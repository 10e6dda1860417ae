package campaign

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"ting/internal/ting"
)

func fakeNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("relay%03d", i)
	}
	return names
}

// TestPartitionCoversAllPairs checks, across tile boundaries (TileDim=64),
// that every unordered pair lands in exactly one shard.
func TestPartitionCoversAllPairs(t *testing.T) {
	for _, n := range []int{2, 5, 20, 64, 70, 130} {
		for _, target := range []int{1, 4, 12, 1000} {
			names := fakeNames(n)
			shards := Partition(n, target)
			seen := make(map[[2]string]string)
			for _, sh := range shards {
				pairs, err := sh.Pairs(names)
				if err != nil {
					t.Fatalf("n=%d target=%d shard %s: %v", n, target, sh.ID, err)
				}
				if len(pairs) != sh.PairCount() {
					t.Fatalf("shard %s yielded %d pairs, claims %d", sh.ID, len(pairs), sh.PairCount())
				}
				for _, p := range pairs {
					if owner, dup := seen[p]; dup {
						t.Fatalf("n=%d target=%d: pair %v in both %s and %s", n, target, p, owner, sh.ID)
					}
					seen[p] = sh.ID
				}
			}
			if want := n * (n - 1) / 2; len(seen) != want {
				t.Fatalf("n=%d target=%d: %d pairs covered, want %d", n, target, len(seen), want)
			}
		}
	}
}

func TestPartitionDeterministic(t *testing.T) {
	a := Partition(70, 12)
	b := Partition(70, 12)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Partition is not deterministic")
	}
	if len(a) < 12 {
		t.Errorf("Partition(70, 12) made %d shards, want at least the target", len(a))
	}
}

// TestNewCoordinatorRejectsOverlappingShards: "every pair in exactly one
// shard" is enforced where the shards come in, by geometry. Two shards of
// one block whose ranges intersect are refused; touching ranges, the same
// range in different blocks, and every real partition are accepted.
func TestNewCoordinatorRejectsOverlappingShards(t *testing.T) {
	names := fakeNames(130)
	for _, tc := range []struct {
		name   string
		shards []Shard
		ok     bool
	}{
		{"intersecting", []Shard{NewShard(0, 0, 0, 4), NewShard(0, 0, 2, 6)}, false},
		{"nested, given out of order", []Shard{NewShard(0, 1, 5, 6), NewShard(0, 1, 9, 12), NewShard(0, 1, 0, 10)}, false},
		{"repeated", []Shard{NewShard(0, 0, 0, 3), NewShard(1, 1, 0, 3), NewShard(0, 0, 0, 3)}, false},
		{"adjacent", []Shard{NewShard(0, 0, 0, 3), NewShard(0, 0, 3, 6)}, true},
		{"same range, different blocks", []Shard{NewShard(0, 0, 0, 4), NewShard(0, 1, 0, 4), NewShard(1, 1, 2, 6)}, true},
	} {
		_, err := NewCoordinator(names, tc.shards, time.Second, nil)
		if tc.ok && err != nil {
			t.Errorf("%s: refused: %v", tc.name, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "overlap")) {
			t.Errorf("%s: err = %v, want an overlap error", tc.name, err)
		}
	}
	for _, n := range []int{2, 63, 64, 65, 400} {
		for _, target := range []int{1, 7, 256} {
			if _, err := NewCoordinator(fakeNames(n), Partition(n, target), time.Second, nil); err != nil {
				t.Errorf("Partition(%d, %d) refused: %v", n, target, err)
			}
		}
	}
}

func TestLeaseWireRoundTrip(t *testing.T) {
	in := Lease{Shard: NewShard(1, 2, 10, 64), Epoch: 7, TTL: 1500 * time.Millisecond}
	out, err := DecodeLease(EncodeLease(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
	for _, bad := range []string{
		"",
		"lease",
		"nonsense id=t0-0.p0-1 ti=0 tj=0 lo=0 hi=1 epoch=1 ttl_ms=100",
		"lease id=wrong ti=0 tj=0 lo=0 hi=1 epoch=1 ttl_ms=100",                     // ID mismatch
		"lease id=t0-0.p0-1 ti=0 tj=0 lo=0 hi=1 epoch=0 ttl_ms=100",                 // epoch 0
		"lease id=t0-0.p0-1 ti=0 tj=0 lo=0 hi=1 epoch=1 ttl_ms=0",                   // no TTL
		"lease id=t0-0.p0-1 ti=0 tj=0 lo=0 hi=1 epoch=1 ttl_ms=9223372036854775807", // overflows to -1 ms
		"lease id=t0-0.p0-1 ti=0 tj=0 lo=0 hi=1 epoch=1 ttl_ms=9223372036854776",    // overflows to 192 µs
		"lease id=t0-0.p1-0 ti=0 tj=0 lo=1 hi=0 epoch=1 ttl_ms=100",                 // hi <= lo
		"lease id=t1-0.p0-1 ti=1 tj=0 lo=0 hi=1 epoch=1 ttl_ms=100",                 // tj < ti
		"lease id=t0-0.p0-1 ti=0 tj=0 lo=0 hi=1 epoch=x ttl_ms=100",                 // bad int
		"lease id=t0-0.p0-1 ti=0 tj=0 lo=0 hi=1 epoch=1 ttl_ms=100 x",               // extra field
	} {
		if _, err := DecodeLease(bad); err == nil {
			t.Errorf("DecodeLease(%q) succeeded, want error", bad)
		}
	}
}

// fakeClock drives a Coordinator by hand.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }

func fullResults(t *testing.T, sh Shard, names []string) []PairResult {
	t.Helper()
	pairs, err := sh.Pairs(names)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]PairResult, len(pairs))
	for i, p := range pairs {
		out[i] = PairResult{X: p[0], Y: p[1], RTT: float64(10 + i)}
	}
	return out
}

// TestLeaseLifecycle walks grant → heartbeat renewal → expiry →
// reassignment at a higher epoch → fenced stale writer → completion by the
// new holder, all on a hand-driven clock.
func TestLeaseLifecycle(t *testing.T) {
	names := fakeNames(4)
	shards := []Shard{NewShard(0, 0, 0, 6)} // all 6 pairs, one shard
	clock := newFakeClock()
	c, err := NewCoordinator(names, shards, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.clock = clock.now

	// Grant to w1.
	l1, res, err := c.Acquire("w1")
	if err != nil || res != AcquireGranted || l1.Epoch != 1 {
		t.Fatalf("first acquire: %v %v epoch %d", res, err, l1.Epoch)
	}
	// The only shard is out: nothing for w2.
	if _, res, _ := c.Acquire("w2"); res != AcquireNone {
		t.Fatalf("second acquire: %v, want none", res)
	}

	// Heartbeats keep the lease alive across several TTL-sized windows.
	for i := 0; i < 3; i++ {
		clock.advance(700 * time.Millisecond)
		if err := c.Heartbeat("w1", l1.Shard.ID, l1.Epoch); err != nil {
			t.Fatalf("heartbeat %d: %v", i, err)
		}
	}
	if _, res, _ := c.Acquire("w2"); res != AcquireNone {
		t.Fatal("renewed lease was stolen")
	}

	// Silence past the TTL: the shard is re-granted to w2 at a higher epoch.
	clock.advance(1100 * time.Millisecond)
	l2, res, err := c.Acquire("w2")
	if err != nil {
		t.Fatal(err)
	}
	if res != AcquireGranted {
		t.Fatalf("post-expiry acquire: %v, want granted", res)
	}
	if l2.Shard.ID != l1.Shard.ID || l2.Epoch <= l1.Epoch {
		t.Fatalf("reassignment: shard %s epoch %d (was %s epoch %d)", l2.Shard.ID, l2.Epoch, l1.Shard.ID, l1.Epoch)
	}

	// The stale holder is fenced out of everything.
	if err := c.Heartbeat("w1", l1.Shard.ID, l1.Epoch); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale heartbeat: %v, want ErrFenced", err)
	}
	if err := c.Complete("w1", l1.Shard.ID, l1.Epoch, fullResults(t, l1.Shard, names)); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale complete: %v, want ErrFenced", err)
	}

	// The new holder completes; done fires; a duplicate submission at the
	// winning epoch is an idempotent no-op.
	if err := c.Complete("w2", l2.Shard.ID, l2.Epoch, fullResults(t, l2.Shard, names)); err != nil {
		t.Fatalf("complete: %v", err)
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("Done not closed after last shard completed")
	}
	if err := c.Complete("w2", l2.Shard.ID, l2.Epoch, fullResults(t, l2.Shard, names)); err != nil {
		t.Fatalf("duplicate complete: %v", err)
	}
	if _, res, _ := c.Acquire("w3"); res != AcquireDone {
		t.Fatalf("acquire after done: %v, want done", res)
	}

	st := c.Snapshot()
	if st.Reassigned != 1 || st.Done != 1 || st.LostPairs != 0 {
		t.Errorf("snapshot = %+v, want 1 reassignment, 1 done, 0 lost", st)
	}
}

// TestLeaseResurrection: a worker that went quiet but whose shard was not
// yet re-granted still holds the highest epoch, so its late heartbeat
// revives the lease instead of forfeiting the work.
func TestLeaseResurrection(t *testing.T) {
	names := fakeNames(3)
	clock := newFakeClock()
	c, err := NewCoordinator(names, []Shard{NewShard(0, 0, 0, 3)}, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.clock = clock.now
	l, res, err := c.Acquire("w1")
	if err != nil || res != AcquireGranted {
		t.Fatal(res, err)
	}
	clock.advance(1500 * time.Millisecond) // expired, nobody re-acquired
	if err := c.Heartbeat("w1", l.Shard.ID, l.Epoch); err != nil {
		t.Fatalf("late heartbeat on un-regranted lease: %v", err)
	}
	if _, res, _ := c.Acquire("w2"); res != AcquireNone {
		t.Fatal("resurrected lease handed to w2")
	}
	if err := c.Complete("w1", l.Shard.ID, l.Epoch, fullResults(t, l.Shard, names)); err != nil {
		t.Fatalf("complete after resurrection: %v", err)
	}
}

func TestCompleteDemandsFullCoverage(t *testing.T) {
	names := fakeNames(3)
	clock := newFakeClock()
	c, err := NewCoordinator(names, []Shard{NewShard(0, 0, 0, 3)}, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.clock = clock.now
	l, _, _ := c.Acquire("w1")
	full := fullResults(t, l.Shard, names)

	if err := c.Complete("w1", l.Shard.ID, l.Epoch, full[:len(full)-1]); err == nil {
		t.Error("partial submission accepted")
	}
	if err := c.Complete("w1", l.Shard.ID, l.Epoch, append(append([]PairResult{}, full...), full[0])); err == nil {
		t.Error("duplicated pair accepted")
	}
	stray := append(append([]PairResult{}, full[:len(full)-1]...), PairResult{X: "relay000", Y: "ghost", RTT: 1})
	if err := c.Complete("w1", l.Shard.ID, l.Epoch, stray); err == nil {
		t.Error("stray pair accepted")
	}
	if err := c.Complete("w1", "no-such-shard", l.Epoch, full); !errors.Is(err, ErrUnknownShard) {
		t.Errorf("unknown shard: %v", err)
	}
	// A failed pair still counts as coverage.
	if err := c.completeValues("w1", l.Shard.ID, l.Epoch, []float64{0, 11, 12}, []int{0}); err != nil {
		t.Fatalf("submission with failed pair: %v", err)
	}
	if st := c.Snapshot(); st.LostPairs != 1 {
		t.Errorf("lost pairs = %d, want 1", st.LostPairs)
	}
}

// TestCompleteRefusesNonFiniteRTT: a NaN or infinite RTT is refused by the
// submission check before anything is journaled or written. Accepted, it would merge into a matrix document DecodeMatrix
// refuses, or fail the journal's encoder with the worker's bad value. The
// refused lease still completes with finite values.
func TestCompleteRefusesNonFiniteRTT(t *testing.T) {
	names := fakeNames(4)
	shards := []Shard{NewShard(0, 0, 0, 6)}
	for _, journaled := range []bool{false, true} {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			var c *Coordinator
			if journaled {
				c = newJournaled(t, names, shards, journalPath(t), newFakeClock())
			} else {
				var err error
				if c, err = NewCoordinator(names, shards, time.Second, nil); err != nil {
					t.Fatal(err)
				}
				c.clock = newFakeClock().now
			}
			l, _, err := c.Acquire("w1")
			if err != nil {
				t.Fatal(err)
			}
			res := fullResults(t, l.Shard, names)
			res[2].RTT = bad
			err = c.Complete("w1", l.Shard.ID, l.Epoch, res)
			if err == nil || strings.Contains(err.Error(), "journal") || !strings.Contains(err.Error(), "relay000,relay003") {
				t.Fatalf("journaled %v, rtt %v: Complete = %v, want the pair refused", journaled, bad, err)
			}
			if st := c.Snapshot(); st.Done != 0 || st.Leased != 1 {
				t.Fatalf("after a refused submission: %+v", st)
			}
			if err := c.Complete("w1", l.Shard.ID, l.Epoch, fullResults(t, l.Shard, names)); err != nil {
				t.Fatal(err)
			}
			m, err := c.Merged()
			if err != nil {
				t.Fatal(err)
			}
			var doc bytes.Buffer
			if err := m.Encode(&doc); err != nil {
				t.Fatal(err)
			}
			if _, err := ting.DecodeMatrix(&doc); err != nil {
				t.Fatalf("merged matrix does not decode: %v", err)
			}
			if journaled {
				c.Journal().Close()
			}
		}
	}
}

// TestCompleteAllocs: checking a submission and writing it into the ledger
// costs its shard, not the campaign: an in-memory Complete of a whole shard
// whose tiles the ledger holds allocates nothing, whatever the shard's size.
func TestCompleteAllocs(t *testing.T) {
	names := fakeNames(200)
	for _, target := range []int{1000, 4} { // 20-pair and 2016-pair first shards
		shards := Partition(len(names), target)
		c, err := NewCoordinator(names, shards, time.Hour, nil)
		if err != nil {
			t.Fatal(err)
		}
		l, _, err := c.Acquire("w")
		if err != nil {
			t.Fatal(err)
		}
		results := fullResults(t, l.Shard, names)
		st := c.byID[l.Shard.ID]
		allocs := testing.AllocsPerRun(20, func() {
			st.phase, c.remaining = shardLeased, len(shards) // complete it again
			if err := c.Complete("w", l.Shard.ID, l.Epoch, results); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("Complete of a %d-pair shard: %.1f allocations, want 0", len(results), allocs)
		}
	}
}

// TestLeaseAffinity: two workers that each hold a lease while the other
// acquires, over Partition(400, 256), keep to tile blocks of their own:
// each block's shards go to one worker, but for at most one block per
// worker, where one ran out of blocks of its own and finished the other's.
// Affinity never holds up expiry: a silent worker's shard is re-granted at
// a higher epoch, and its late completion is fenced. Acquire allocates
// nothing for a worker it has granted to before.
func TestLeaseAffinity(t *testing.T) {
	names := fakeNames(400)
	shards := Partition(len(names), 256)
	clock := newFakeClock()
	c, err := NewCoordinator(names, shards, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.clock = clock.now
	workers := []string{"w1", "w2"}
	owners := map[[2]int]map[string]bool{}
	held := map[string]Lease{}
	acquire := func(w string) bool {
		t.Helper()
		l, res, err := c.Acquire(w)
		if err != nil {
			t.Fatal(err)
		}
		if res != AcquireGranted {
			return false
		}
		block := [2]int{l.Shard.TI, l.Shard.TJ}
		if owners[block] == nil {
			owners[block] = map[string]bool{}
		}
		owners[block][w] = true
		held[w] = l
		return true
	}
	complete := func(w string) {
		t.Helper()
		l := held[w]
		if err := c.Complete(w, l.Shard.ID, l.Epoch, fullResults(t, l.Shard, names)); err != nil {
			t.Fatal(err)
		}
		delete(held, w)
	}
	for _, w := range workers {
		acquire(w)
	}
	for len(held) > 0 {
		for _, w := range workers {
			if _, ok := held[w]; ok {
				complete(w)
				acquire(w)
			}
		}
	}
	if st := c.Snapshot(); st.Done != len(shards) {
		t.Fatalf("%d of %d shards done", st.Done, len(shards))
	}
	shared := map[string]int{}
	for block, by := range owners {
		if len(by) > 1 {
			t.Logf("block %v shared by %v", block, by)
			for w := range by {
				shared[w]++
			}
		}
	}
	for _, w := range workers {
		if shared[w] > 1 {
			t.Errorf("%s shares %d of %d blocks, want at most 1", w, shared[w], len(owners))
		}
	}

	// Expiry: w1 goes silent inside its block, w2 keeps working; the
	// first grant of w1's shard after the TTL is at a higher epoch.
	c, err = NewCoordinator(names, shards, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.clock = clock.now
	clear(held)
	acquire("w1")
	acquire("w2")
	silent := held["w1"]
	clock.advance(2 * time.Second)
	for {
		complete("w2")
		if !acquire("w2") {
			t.Fatalf("w2 ran out of shards before %s was re-granted", silent.Shard.ID)
		}
		if held["w2"].Shard.ID == silent.Shard.ID {
			break
		}
	}
	if again := held["w2"]; again.Epoch <= silent.Epoch {
		t.Fatalf("expired shard %s re-granted at epoch %d, not above %d", silent.Shard.ID, again.Epoch, silent.Epoch)
	}
	if err := c.Complete("w1", silent.Shard.ID, silent.Epoch, fullResults(t, silent.Shard, names)); !errors.Is(err, ErrFenced) {
		t.Fatalf("the silent worker's late completion: %v, want ErrFenced", err)
	}

	// A warm worker's grant: no map entry, no scratch, no lease to build.
	l := held["w2"]
	st := c.byID[l.Shard.ID]
	if allocs := testing.AllocsPerRun(20, func() {
		st.phase = shardPending // grant it again
		if got, _, err := c.Acquire("w2"); err != nil || got.Shard.ID != l.Shard.ID {
			t.Fatalf("re-grant of %s: %s, %v", l.Shard.ID, got.Shard.ID, err)
		}
	}); allocs != 0 {
		t.Errorf("Acquire: %.1f allocations, want 0", allocs)
	}
}

// TestMergedMatchesSubmissions: the coordinator's merge output holds
// exactly the submitted values, with failed pairs left missing.
func TestMergedMatchesSubmissions(t *testing.T) {
	names := fakeNames(5) // 10 pairs
	shards := Partition(5, 3)
	clock := newFakeClock()
	c, err := NewCoordinator(names, shards, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.clock = clock.now
	if _, err := c.Merged(); err == nil {
		t.Fatal("Merged before done succeeded")
	}
	want := make(map[[2]string]float64)
	for {
		l, res, err := c.Acquire("w")
		if err != nil {
			t.Fatal(err)
		}
		if res == AcquireDone {
			break
		}
		if res != AcquireGranted {
			t.Fatalf("acquire: %v", res)
		}
		results := fullResults(t, l.Shard, names)
		for i := range results {
			results[i].RTT = float64(l.Epoch*100) + float64(i)
			want[[2]string{results[i].X, results[i].Y}] = results[i].RTT
		}
		// One pair per shard the worker gave up on: covered, but no cell.
		want[[2]string{results[0].X, results[0].Y}] = 0
		if err := c.completeValues("w", l.Shard.ID, l.Epoch, values(results, nil), []int{0}); err != nil {
			t.Fatal(err)
		}
	}
	m, err := c.Merged()
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for p, v := range want {
		got, err := m.RTT(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Errorf("pair %v = %g, want %g", p, got, v)
		}
		// A merged cell says where it came from: measured pairs are fresh,
		// the pairs a worker gave up on stay missing.
		wantProv := ting.ProvFresh
		if v == 0 {
			wantProv, failed = ting.ProvMissing, failed+1
		}
		if got := m.Prov(p[0], p[1]); got != wantProv {
			t.Errorf("pair %v merged as %v, want %v", p, got, wantProv)
		}
	}
	if got, want := m.ProvCounts(), (ting.ProvCount{Fresh: len(want) - failed, Missing: failed}); got != want {
		t.Errorf("merged provenance %+v, want %+v", got, want)
	}
}
