package campaign

import (
	"bytes"
	"context"
	"net"
	"path/filepath"
	"testing"
	"time"

	"ting/internal/directory"
	"ting/internal/experiments"
	"ting/internal/ting"
)

// TestCampaignSurvivesCoordinatorCrash is the durability acceptance
// scenario: a journaled coordinator is killed mid-campaign while leases
// are in flight, a fresh coordinator is recovered from the journal onto
// the same address, and the workers — who only ever see transport errors —
// ride the outage out with backoff. The campaign finishes with zero lost
// pairs, the merged matrix is bytewise equal to a single-process scan, and
// a full journal scan (replayJournal validates grant-epoch monotonicity)
// shows no stale epoch was ever reissued.
func TestCampaignSurvivesCoordinatorCrash(t *testing.T) {
	world, err := experiments.NewTestbedWorld(20, 97)
	if err != nil {
		t.Fatal(err)
	}
	const samples = 2
	shards := Partition(len(world.Names), 12)
	journal := filepath.Join(t.TempDir(), "campaign.journal")
	coord, err := NewJournaledCoordinator(world.Names, shards, 500*time.Millisecond, journal, nil)
	if err != nil {
		t.Fatal(err)
	}

	serve := func(c *Coordinator, addr string) (*directory.Server, string) {
		t.Helper()
		ds := directory.NewServer(directory.NewRegistry())
		NewServer(c).Register(ds)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		go ds.Serve(ln)
		return ds, ln.Addr().String()
	}
	ds, addr := serve(coord, "127.0.0.1:0")

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Slow-ish workers, so the kill reliably lands while leases are out.
	workerErrs := make(chan error, 3)
	for _, name := range []string{"w1", "w2", "w3"} {
		sc := &ting.Scanner{
			NewMeasurer: func(int) (*ting.Measurer, error) {
				p := world.Prober(0)
				p.Exact = true
				return ting.NewMeasurer(ting.Config{
					Prober:  &slowProber{inner: p, delay: 5 * time.Millisecond},
					W:       world.W,
					Z:       world.Z,
					Samples: samples,
				})
			},
			Workers: 2,
		}
		w := &Worker{
			Name: name, Addr: addr,
			Scanner: sc,
			Poll:    20 * time.Millisecond,
			// Far beyond the restart gap: the outage must be invisible.
			UnreachableGrace: 30 * time.Second,
		}
		go func() { workerErrs <- w.Run(ctx) }()
	}

	// Kill the coordinator the moment it has leases in flight.
	waitUntil := time.Now().Add(30 * time.Second)
	for coord.Snapshot().Leased == 0 {
		if time.Now().After(waitUntil) {
			t.Fatal("no lease ever went out")
		}
		time.Sleep(5 * time.Millisecond)
	}
	preKill := coord.Snapshot()
	ds.Close()
	// Let in-flight handlers drain; a SIGKILL would take them down with the
	// process, and the journal's WAL discipline means anything they manage
	// to append was acknowledged and must survive anyway.
	time.Sleep(300 * time.Millisecond)

	reborn, err := RecoverCoordinator(journal, nil)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	st := reborn.Snapshot()
	if st.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", st.Recoveries)
	}
	if st.EpochWatermark < preKill.EpochWatermark {
		t.Fatalf("recovered watermark %d below pre-kill %d", st.EpochWatermark, preKill.EpochWatermark)
	}
	if st.Done < preKill.Done {
		t.Fatalf("recovery lost done shards: %d, had %d", st.Done, preKill.Done)
	}
	ds2, _ := serve(reborn, addr) // same address: workers reconnect to it
	defer ds2.Close()

	select {
	case <-reborn.Done():
	case <-ctx.Done():
		t.Fatalf("campaign did not finish after recovery: %+v", reborn.Snapshot())
	}
	for i := 0; i < 3; i++ {
		if err := <-workerErrs; err != nil {
			t.Errorf("worker: %v", err)
		}
	}

	final := reborn.Snapshot()
	if final.LostPairs != 0 {
		t.Fatalf("lost %d pairs", final.LostPairs)
	}
	if final.Done != final.Total {
		t.Fatalf("%d/%d shards done", final.Done, final.Total)
	}

	merged, err := reborn.Merged()
	if err != nil {
		t.Fatal(err)
	}
	single := &ting.Scanner{
		NewMeasurer: func(int) (*ting.Measurer, error) { return world.ExactMeasurer(samples) },
		Workers:     4,
	}
	ref, failures, err := single.Scan(ctx, world.Names)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 0 {
		t.Fatalf("reference scan failures: %v", failures)
	}
	var got, want bytes.Buffer
	if err := merged.Encode(&got); err != nil {
		t.Fatal(err)
	}
	if err := ref.Encode(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("merged matrix differs from single-process scan (%d vs %d bytes)", got.Len(), want.Len())
	}

	// The journal itself is the last witness: replaying it re-checks that
	// grant epochs only ever went up — across the crash included — and that
	// its final watermark matches the ledger's.
	js, _, err := replayJournal(journal, nil)
	if err != nil {
		t.Fatalf("post-campaign journal scan: %v", err)
	}
	if js.nextEpoch != final.EpochWatermark {
		t.Fatalf("journal watermark %d, ledger %d", js.nextEpoch, final.EpochWatermark)
	}
	if js.remaining != 0 {
		t.Fatalf("journal shows %d shards not done", js.remaining)
	}
}
