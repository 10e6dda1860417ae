package serve

import (
	"fmt"
	"sync"
	"testing"

	"ting/internal/telemetry"
	"ting/internal/ting"
)

// testMatrix builds an n-relay matrix with deterministic, distinct RTTs and
// fresh provenance everywhere except pair (0,1), which is marked resumed so
// provenance plumbing is observable end to end.
func testMatrix(t testing.TB, n int) *ting.Matrix {
	t.Helper()
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("relay%02d", i)
	}
	m, err := ting.NewMatrix(names)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if err := m.Set(names[i], names[j], float64(10+i*7+j*13)); err != nil {
				t.Fatal(err)
			}
			if err := m.SetProv(names[i], names[j], ting.ProvFresh); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := m.SetProv(names[0], names[1], ting.ProvResumed); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPublisherEpochsAndETags(t *testing.T) {
	reg := telemetry.New()
	pub := NewPublisher(reg)
	if pub.Current() != nil {
		t.Fatal("current snapshot before first publish")
	}
	m := testMatrix(t, 4)
	s1, err := pub.Publish(m.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if s1.Epoch() != 1 {
		t.Fatalf("first epoch = %d", s1.Epoch())
	}
	if want := `"e1"`; s1.ETag() != want {
		t.Fatalf("etag = %s, want %s", s1.ETag(), want)
	}
	s2, err := pub.Publish(m.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if s2.Epoch() != 2 {
		t.Fatalf("second epoch = %d", s2.Epoch())
	}
	if pub.Current() != s2 {
		t.Fatal("current is not the latest publish")
	}
	// The old snapshot must stay fully usable after the swap.
	if got := s1.View().At(0, 1); got != m.At(0, 1) {
		t.Fatalf("old snapshot At(0,1) = %v", got)
	}
	if got := reg.Counter("serve.epoch_swaps").Value(); got != 2 {
		t.Fatalf("serve.epoch_swaps = %d", got)
	}
	if got := reg.Gauge("serve.epoch").Value(); got != 2 {
		t.Fatalf("serve.epoch gauge = %d", got)
	}
	if _, err := pub.Publish(nil); err == nil {
		t.Fatal("publishing nil matrix succeeded")
	}
}

func TestSnapshotTIVsMemoized(t *testing.T) {
	pub := NewPublisher(nil)
	snap, err := pub.Publish(testMatrix(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	a, err := snap.TIVs()
	if err != nil {
		t.Fatal(err)
	}
	b, err := snap.TIVs()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("TIV count changed between calls: %d then %d", len(a), len(b))
	}
	if len(a) > 0 && &a[0] != &b[0] {
		t.Fatal("TIVs recomputed instead of memoized")
	}
}

// TestEpochSwapRaceHammer is the atomic-swap correctness proof, meant to run
// under -race: one publisher churns epochs as fast as it can while many
// readers continuously resolve the current snapshot. Every observed snapshot
// must be internally consistent — its epoch, its ETag, and its data all
// belonging to the same publish — and epochs must be monotonic per
// reader. A torn swap (epoch from one publish, ETag or matrix from another)
// fails here.
func TestEpochSwapRaceHammer(t *testing.T) {
	const readers = 8
	publishes := 2000
	if testing.Short() {
		publishes = 200
	}

	pub := NewPublisher(nil)
	base := testMatrix(t, 8)

	// Each epoch's matrix encodes its own epoch in cell (0,1): RTT there is
	// 1000 + epoch. A reader can therefore verify the *data* matches the
	// epoch label, not just the metadata.
	stamp := func(epoch int) *ting.Matrix {
		m := base.Clone()
		if err := m.Set("relay00", "relay01", float64(1000+epoch)); err != nil {
			t.Fatal(err)
		}
		return m
	}

	stop := make(chan struct{})
	errc := make(chan error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := pub.Current()
				if snap == nil {
					continue
				}
				epoch := snap.Epoch()
				if epoch < last {
					errc <- fmt.Errorf("epoch went backwards: %d after %d", epoch, last)
					return
				}
				last = epoch
				if want := etagFor(epoch); snap.ETag() != want {
					errc <- fmt.Errorf("torn snapshot: epoch %d with etag %s", epoch, snap.ETag())
					return
				}
				if got, want := snap.View().At(0, 1), float64(1000+epoch); got != want {
					errc <- fmt.Errorf("torn snapshot: epoch %d serves data %v, want %v", epoch, got, want)
					return
				}
			}
		}()
	}

	for i := 1; i <= publishes; i++ {
		if _, err := pub.Publish(stamp(i)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if got := pub.Current().Epoch(); got != uint64(publishes) {
		t.Fatalf("final epoch = %d, want %d", got, publishes)
	}
}
