package campaign

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ting/internal/directory"
	"ting/internal/experiments"
	"ting/internal/stats"
	"ting/internal/ting"
)

func TestIsTransient(t *testing.T) {
	te := &TransportError{Op: "dial", Err: errors.New("connection refused")}
	if !IsTransient(te) {
		t.Error("bare TransportError not transient")
	}
	wrapped := errors.Join(errors.New("outer"), te)
	if !IsTransient(wrapped) {
		t.Error("wrapped TransportError not transient")
	}
	if IsTransient(ErrFenced) {
		t.Error("ErrFenced classified transient")
	}
	if IsTransient(errors.New("server said no")) {
		t.Error("plain verdict classified transient")
	}
	if IsTransient(nil) {
		t.Error("nil classified transient")
	}
}

// deadAddr returns an address nothing listens on: bind a port, remember
// it, close the listener.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestWorkerGivesUpAfterUnreachableGrace: a worker pointed at a dead
// coordinator retries with backoff for the grace window, then exits with a
// terminal error instead of spinning forever — and does so on the grace
// clock, not after a fixed failure count.
func TestWorkerGivesUpAfterUnreachableGrace(t *testing.T) {
	w := &Worker{
		Name:             "lonely",
		Addr:             deadAddr(t),
		Scanner:          &ting.Scanner{NewMeasurer: func(int) (*ting.Measurer, error) { return nil, errors.New("unused") }},
		Poll:             5 * time.Millisecond,
		UnreachableGrace: 250 * time.Millisecond,
	}
	start := time.Now()
	err := w.Run(context.Background())
	if err == nil {
		t.Fatal("worker against dead coordinator returned nil")
	}
	if !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("error %q does not name the outage", err)
	}
	if took := time.Since(start); took < 250*time.Millisecond || took > 10*time.Second {
		t.Fatalf("gave up after %v, want roughly the 250ms grace window", took)
	}
}

// TestWorkerRunHonorsContext: cancellation beats the grace window — a
// worker stuck retrying a dead coordinator exits promptly when told to.
func TestWorkerRunHonorsContext(t *testing.T) {
	w := &Worker{
		Name:             "cancelled",
		Addr:             deadAddr(t),
		Scanner:          &ting.Scanner{NewMeasurer: func(int) (*ting.Measurer, error) { return nil, errors.New("unused") }},
		Poll:             10 * time.Millisecond,
		UnreachableGrace: time.Hour,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker ignored context cancellation")
	}
}

// TestWorkerRefusesScannerWithDirectory: a campaign's relay set is the
// coordinator's. A scanner following a live consensus would add a relay
// that joins mid-lease to the worker's ledger, its next lease's header would
// name a longer relay set, and its log would stop replaying. Run refuses
// such a scanner before it asks the coordinator for anything.
func TestWorkerRefusesScannerWithDirectory(t *testing.T) {
	addr, dialed := countDials(t)
	w := &Worker{
		Name: "follower",
		Addr: addr,
		Scanner: &ting.Scanner{
			NewMeasurer: func(int) (*ting.Measurer, error) { return nil, errors.New("unused") },
			Directory:   directory.NewRegistry(),
		},
		Poll:             5 * time.Millisecond,
		UnreachableGrace: time.Hour,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	err := w.Run(ctx)
	if err == nil || !strings.Contains(err.Error(), "Directory") {
		t.Fatalf("Run = %v, want a refusal naming the Directory", err)
	}
	if n := dialed.Load(); n != 0 {
		t.Errorf("worker dialed the coordinator %d times before refusing", n)
	}
}

// countDials accepts and closes every connection on a loopback listener,
// counting them, and returns its address.
func countDials(t *testing.T) (string, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	dialed := new(atomic.Int64)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			dialed.Add(1)
			conn.Close()
		}
	}()
	return ln.Addr().String(), dialed
}

// funcCheckpoint is a Checkpoint whose value is not comparable: comparing
// two of them with == panics.
type funcCheckpoint struct{ flush func() error }

func (c funcCheckpoint) Append(ting.CheckpointRecord) error                 { return nil }
func (c funcCheckpoint) Flush() error                                       { return c.flush() }
func (c funcCheckpoint) Replay(func(rec ting.CheckpointRecord) error) error { return nil }

// TestWorkerRefusesTwoLogs: the worker's shard records and its scanner's
// pair records are one log, which a restarted worker replays. Run refuses a
// worker whose scanner writes another log, or none, before it dials
// anything, and a checkpoint value that cannot be compared is refused, not
// compared with a panic. A worker whose two fields hold the same log is not
// refused.
func TestWorkerRefusesTwoLogs(t *testing.T) {
	dir := t.TempDir()
	open := func(name string) *ting.FileCheckpoint {
		cp, err := ting.OpenFileCheckpoint(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cp.Close() })
		return cp
	}
	a, b := open("a.ckpt"), open("b.ckpt")
	odd := funcCheckpoint{flush: func() error { return nil }}
	run := func(worker, scanner ting.Checkpoint) (int64, error) {
		addr, dialed := countDials(t)
		w := &Worker{
			Name:       "w1",
			Addr:       addr,
			Checkpoint: worker,
			Scanner: &ting.Scanner{
				NewMeasurer: func(int) (*ting.Measurer, error) { return nil, errors.New("unused") },
				Checkpoint:  scanner,
			},
			Poll:             5 * time.Millisecond,
			UnreachableGrace: time.Hour,
		}
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		err := w.Run(ctx)
		return dialed.Load(), err
	}
	for _, c := range []struct {
		name            string
		worker, scanner ting.Checkpoint
	}{
		{"two files", a, b},
		{"scanner without a log", a, nil},
		{"worker without a log", nil, a},
		{"non-comparable", odd, odd},
	} {
		dialed, err := run(c.worker, c.scanner)
		if err == nil || !strings.Contains(err.Error(), "Checkpoint") {
			t.Errorf("%s: Run = %v, want a refusal naming the Checkpoint", c.name, err)
		}
		if dialed != 0 {
			t.Errorf("%s: worker dialed the coordinator %d times before refusing", c.name, dialed)
		}
	}
	for _, cp := range []ting.Checkpoint{a, nil} {
		if dialed, err := run(cp, cp); !errors.Is(err, context.DeadlineExceeded) || dialed == 0 {
			t.Errorf("one log (%v): Run = %v after %d dials, want it to reach the coordinator", cp, err, dialed)
		}
	}
}

// TestWorkerRefusesNameOffTheWire: a worker name travels as one field of a
// CAMP request line. Run refuses an empty name, or one white space splits,
// before it dials anything — a coordinator would refuse every acquire, and
// the worker would retry the refusal for its whole grace window — and
// Acquire returns a coordinator's refusal as the coordinator worded it.
func TestWorkerRefusesNameOffTheWire(t *testing.T) {
	addr, dialed := countDials(t)
	for _, name := range []string{"", "w 1", "w\t1", " w1", "w1\n"} {
		w := &Worker{
			Name: name,
			Addr: addr,
			Scanner: &ting.Scanner{
				NewMeasurer: func(int) (*ting.Measurer, error) { return nil, errors.New("unused") },
			},
			Poll:             5 * time.Millisecond,
			UnreachableGrace: time.Hour,
		}
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		err := w.Run(ctx)
		cancel()
		if err == nil || !strings.Contains(err.Error(), "worker name") {
			t.Errorf("Run as %q = %v, want a refusal naming the worker name", name, err)
		}
	}
	if n := dialed.Load(); n != 0 {
		t.Errorf("workers dialed the coordinator %d times before refusing", n)
	}

	coord, err := NewCoordinator(fakeNames(4), Partition(4, 2), time.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = Acquire(serveCoordinator(t, coord), "w 1")
	if err == nil || err.Error() != "campaign: acquire: acquire wants: CAMP acquire <worker>" {
		t.Fatalf("Acquire as \"w 1\" = %v, want the coordinator's refusal", err)
	}
}

// peekCheckpoint reads the file behind its FileCheckpoint as the scan's
// campaign header is appended — the moment a lease's scan starts.
type peekCheckpoint struct {
	*ting.FileCheckpoint
	path   string
	once   sync.Once
	onDisk []byte
}

func (c *peekCheckpoint) Append(rec ting.CheckpointRecord) error {
	if rec.Kind == ting.RecordCampaign {
		c.once.Do(func() { c.onDisk, _ = os.ReadFile(c.path) })
	}
	return c.FileCheckpoint.Append(rec)
}

// TestWorkerFlushesShardRecordBeforeScan: a worker's shard record is in its
// checkpoint file before ScanPairs starts, so a log cut short at any point
// of the scan shows what the worker was holding.
func TestWorkerFlushesShardRecordBeforeScan(t *testing.T) {
	world, err := experiments.NewTestbedWorld(6, 97)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(world.Names, Partition(len(world.Names), 1), time.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := serveCoordinator(t, coord)

	path := filepath.Join(t.TempDir(), "worker.ckpt")
	file, err := ting.OpenFileCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	cp := &peekCheckpoint{FileCheckpoint: file, path: path}
	w := &Worker{
		Name: "w1", Addr: addr, Checkpoint: cp, Poll: 10 * time.Millisecond,
		Scanner: &ting.Scanner{
			Workers:     1,
			Checkpoint:  cp,
			NewMeasurer: func(int) (*ting.Measurer, error) { return world.ExactMeasurer(1) },
		},
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	shard := coord.Snapshot().Shards[0].ID
	if want := `{"t":"shard","shard":"` + shard + `","lease":1,"worker":"w1"}` + "\n"; string(cp.onDisk) != want {
		t.Fatalf("as the scan started the log held %q, want %q", cp.onDisk, want)
	}
}

// serveCoordinator puts coord behind the campaign verb on a loopback
// listener and returns its address.
func serveCoordinator(t *testing.T, coord *Coordinator) string {
	t.Helper()
	ds := directory.NewServer(directory.NewRegistry())
	NewServer(coord).Register(ds)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ds.Serve(ln)
	t.Cleanup(func() { ds.Close() })
	return ln.Addr().String()
}

// countingProber counts the circuit series it samples.
type countingProber struct {
	inner  ting.CircuitProber
	series *atomic.Int64
}

func (p countingProber) SampleCircuit(ctx context.Context, path []string, n int) ([]float64, error) {
	p.series.Add(1)
	return p.inner.SampleCircuit(ctx, path, n)
}

// TestWorkerResubmitsWithoutNewSeries: the worker's matrix is its ledger. A
// shard the worker measured under a lease it then lost to a fence is
// submitted with zero new series when it is granted the shard again —
// from the same ledger in the same process, or from the ledger its
// checkpoint replays after a restart.
func TestWorkerResubmitsWithoutNewSeries(t *testing.T) {
	world, err := experiments.NewTestbedWorld(8, 97)
	if err != nil {
		t.Fatal(err)
	}
	names := world.Names
	for _, restart := range []bool{false, true} {
		name := "fenced"
		if restart {
			name = "restarted"
		}
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			clock := newFakeClock()
			coord, err := NewCoordinator(names, Partition(len(names), 1), time.Second, nil)
			if err != nil {
				t.Fatal(err)
			}
			coord.clock = clock.now
			addr := serveCoordinator(t, coord)
			path := filepath.Join(t.TempDir(), "w1.ckpt")
			var series atomic.Int64
			newWorker := func() (*Worker, *ting.FileCheckpoint) {
				cp, err := ting.OpenFileCheckpoint(path)
				if err != nil {
					t.Fatal(err)
				}
				return &Worker{
					Name: "w1", Addr: addr, Checkpoint: cp,
					HeartbeatEvery: time.Hour, Poll: 10 * time.Millisecond,
					Scanner: &ting.Scanner{
						Workers:    1,
						Checkpoint: cp,
						NewMeasurer: func(int) (*ting.Measurer, error) {
							p := world.Prober(0)
							p.Exact = true
							return ting.NewMeasurer(ting.Config{
								Prober: countingProber{p, &series}, W: world.W, Z: world.Z, Samples: 1,
							})
						},
					},
				}, cp
			}

			// w1's lease is fenced before it submits: the shard expires, is
			// granted to w2, and expires again.
			l1, _, err := coord.Acquire("w1")
			if err != nil {
				t.Fatal(err)
			}
			clock.advance(2 * time.Second)
			if _, res, err := coord.Acquire("w2"); err != nil || res != AcquireGranted {
				t.Fatalf("re-grant to w2: %v %v", res, err)
			}
			clock.advance(2 * time.Second)
			w, cp := newWorker()
			ledger, err := w.openLedger(names)
			if err != nil {
				t.Fatal(err)
			}
			rec := &reconnector{
				backoff: stats.Backoff{Base: 10 * time.Millisecond, Max: 10 * time.Millisecond},
				grace:   time.Minute,
				rng:     rand.New(rand.NewSource(1)),
			}
			// One pair list and one submission buffer for every lease, as
			// Run keeps them.
			var (
				need [][2]int
				sub  shardValues
			)
			if err := w.runLease(ctx, names, ledger, l1, rec, &need, &sub); !errors.Is(err, ErrFenced) {
				t.Fatalf("stale lease's submission: %v, want ErrFenced", err)
			}
			spent := series.Load()
			if spent == 0 {
				t.Fatal("the fenced lease measured nothing")
			}

			if restart {
				if err := cp.Close(); err != nil {
					t.Fatal(err)
				}
				w, cp = newWorker()
				if err := w.Run(ctx); err != nil {
					t.Fatal(err)
				}
			} else {
				l3, res, err := coord.Acquire("w1")
				if err != nil || res != AcquireGranted {
					t.Fatalf("re-grant to w1: %v %v", res, err)
				}
				if err := w.runLease(ctx, names, ledger, l3, rec, &need, &sub); err != nil {
					t.Fatal(err)
				}
			}
			defer cp.Close()
			if got := series.Load() - spent; got != 0 {
				t.Errorf("the re-granted shard took %d new series, want 0", got)
			}
			merged, err := coord.Merged()
			if err != nil {
				t.Fatal(err)
			}
			if pc := merged.ProvCounts(); pc.Fresh != len(names)*(len(names)-1)/2 {
				t.Errorf("merged provenance %+v, want every pair measured", pc)
			}
		})
	}
}

// TestOpenLedgerRefusesAnotherCampaignsLog: a worker restarted against a
// campaign whose relay set is not its checkpoint header's refuses the log
// instead of submitting the old campaign's cells as resumed; an empty log
// and a log of the same campaign open.
func TestOpenLedgerRefusesAnotherCampaignsLog(t *testing.T) {
	old, cur := fakeNames(20), fakeNames(30)
	cp, err := ting.OpenFileCheckpoint(filepath.Join(t.TempDir(), "worker.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	w := &Worker{Name: "w1", Checkpoint: cp}
	if _, err := w.openLedger(cur); err != nil {
		t.Fatalf("empty log: %v", err)
	}
	for _, rec := range []ting.CheckpointRecord{
		{Kind: ting.RecordCampaign, Names: old},
		{Kind: ting.RecordPair, J: 1, RTT: 5},
	} {
		if err := cp.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := cp.Flush(); err != nil {
		t.Fatal(err)
	}
	if m, err := w.openLedger(cur); err == nil {
		t.Fatalf("opened a %d-relay campaign's log for a %d-relay campaign: %+v resumed", len(old), len(cur), m.ProvCounts())
	}
	m, err := w.openLedger(old)
	if err != nil {
		t.Fatalf("the log's own campaign: %v", err)
	}
	if !measured(m, 0, 1) {
		t.Fatal("the log's own pair was not resumed")
	}
}
