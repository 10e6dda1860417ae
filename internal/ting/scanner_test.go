package ting

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ting/internal/faults"
	"ting/internal/geo"
	"ting/internal/inet"
	"ting/internal/tornet"
)

// bigFakeWorld is newFakeWorld extended with relays u and v so scans have
// six pairs to chew on.
func bigFakeWorld() *fakeProber {
	f := newFakeWorld()
	for _, r := range []string{"u", "v"} {
		f.fwd[r] = 0.5
		for _, peer := range []string{"h", "w", "z", "x", "y"} {
			f.rtt[[2]string{peer, r}] = 25
		}
	}
	f.rtt[[2]string{"u", "v"}] = 33
	return f
}

// TestScannerProgressReachesTotal is the regression test for the tolerant
// progress bug: failed pairs are completed work, so a SkipFailures scan
// with dead relays must still drive Progress(done, total) to done == total.
func TestScannerProgressReachesTotal(t *testing.T) {
	f := bigFakeWorld()
	f.errs["x"] = errors.New("x is down")
	var mu sync.Mutex
	var lastDone, lastTotal, calls int
	sc := &Scanner{
		NewMeasurer: func(worker int) (*Measurer, error) {
			return NewMeasurer(Config{Prober: f, W: "w", Z: "z", Samples: 1})
		},
		Workers:      2,
		SkipFailures: true,
		Progress: func(done, total int) {
			mu.Lock()
			if done < lastDone {
				t.Errorf("progress went backwards: %d after %d", done, lastDone)
			}
			lastDone, lastTotal = done, total
			calls++
			mu.Unlock()
		},
	}
	names := []string{"x", "y", "u", "v"}
	_, failures, err := sc.Scan(context.Background(), names)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 3 { // the three pairs touching x
		t.Fatalf("failures = %v, want the 3 pairs touching x", failures)
	}
	if lastTotal != 6 || lastDone != 6 {
		t.Errorf("final progress %d/%d, want 6/6", lastDone, lastTotal)
	}
	if calls != 6 {
		t.Errorf("progress called %d times, want once per pair", calls)
	}
}

// TestScanSlowPairsSettleAlone: a worker's run only grows while pairs cost
// less than its budget. With a prober taking 2 ms a series, every measured
// pair's Progress arrives before the worker starts its next series.
func TestScanSlowPairsSettleAlone(t *testing.T) {
	var mu sync.Mutex
	measured, reported, series := 0, 0, 0
	hook := func([]string) {
		mu.Lock()
		if reported != measured {
			t.Errorf("series %d started with %d pairs measured but %d reported", series+1, measured, reported)
		}
		series++
		mu.Unlock()
		time.Sleep(2 * time.Millisecond)
	}
	obs := &Observer{PairDone: func(string, string, *Measurement, error) {
		mu.Lock()
		measured++
		mu.Unlock()
	}}
	sc := &Scanner{
		NewMeasurer: func(int) (*Measurer, error) {
			return NewMeasurer(Config{Prober: &hookProber{f: bigFakeWorld(), hook: hook}, W: "w", Z: "z", Samples: 1, Observer: obs})
		},
		Workers: 1,
		Progress: func(done, _ int) {
			mu.Lock()
			reported = done
			mu.Unlock()
		},
	}
	if _, failures, err := sc.Scan(context.Background(), []string{"x", "y", "u", "v"}); err != nil || len(failures) != 0 {
		t.Fatalf("scan = (%v, %v), want clean", failures, err)
	}
	if reported != 6 || series != 10 {
		t.Errorf("%d pairs reported over %d series, want 6 over N + pairs = 10", reported, series)
	}
}

// countingProber fails every circuit after a short synchronizing delay and
// counts how many measurement attempts actually reached the network. Each
// failed attempt costs exactly one SampleCircuit call (C_x errors first).
type countingProber struct {
	attempts atomic.Int64
}

func (p *countingProber) SampleCircuit(_ context.Context, path []string, n int) ([]float64, error) {
	p.attempts.Add(1)
	time.Sleep(2 * time.Millisecond)
	return nil, errors.New("relay unreachable")
}

// TestScannerNonTolerantStopsDispatching is the regression test for the
// keep-scanning-after-fatal-error bug: without SkipFailures the first
// failure must abort the scan, with at most the already-in-flight
// measurements (one per worker) hitting the network.
func TestScannerNonTolerantStopsDispatching(t *testing.T) {
	p := &countingProber{}
	const workers = 3
	sc := &Scanner{
		NewMeasurer: func(worker int) (*Measurer, error) {
			return NewMeasurer(Config{Prober: p, W: "w", Z: "z", Samples: 1})
		},
		Workers: workers,
	}
	names := []string{"a", "b", "c", "d", "e", "f"} // 15 pairs
	_, _, err := sc.Scan(context.Background(), names)
	if err == nil {
		t.Fatal("scan with failing prober succeeded")
	}
	if !strings.Contains(err.Error(), "unreachable") {
		t.Errorf("cause lost: %v", err)
	}
	// One attempt fails first; every other worker can have at most one
	// measurement already committed. 15 would mean the bug is back.
	if got := p.attempts.Load(); got > workers {
		t.Errorf("%d measurements ran, want ≤ %d after first failure", got, workers)
	}
}

// closeProber records whether the scanner released it.
type closeProber struct {
	*fakeProber
	closed atomic.Bool
}

func (p *closeProber) Close() { p.closed.Store(true) }

func TestScannerClosesMeasurersAfterScan(t *testing.T) {
	f := bigFakeWorld()
	var probers []*closeProber
	sc := &Scanner{
		NewMeasurer: func(worker int) (*Measurer, error) {
			p := &closeProber{fakeProber: f}
			probers = append(probers, p)
			return NewMeasurer(Config{Prober: p, W: "w", Z: "z", Samples: 1})
		},
		Workers: 2,
	}
	if _, _, err := sc.Scan(context.Background(), []string{"x", "y", "v"}); err != nil {
		t.Fatal(err)
	}
	if len(probers) != 2 {
		t.Fatalf("%d measurers built, want 2", len(probers))
	}
	for i, p := range probers {
		if !p.closed.Load() {
			t.Errorf("worker %d's prober not closed", i)
		}
	}
}

// TestScannerCleansUpOnMeasurerFailure is the regression test for the
// leaked-measurer bug: when the k-th worker's measurer fails to build, the
// ones already built must be closed before the scan errors out.
func TestScannerCleansUpOnMeasurerFailure(t *testing.T) {
	f := bigFakeWorld()
	var probers []*closeProber
	sc := &Scanner{
		NewMeasurer: func(worker int) (*Measurer, error) {
			if worker == 2 {
				return nil, errors.New("no control connection left")
			}
			p := &closeProber{fakeProber: f}
			probers = append(probers, p)
			return NewMeasurer(Config{Prober: p, W: "w", Z: "z", Samples: 1})
		},
		Workers: 3,
	}
	_, _, err := sc.Scan(context.Background(), []string{"x", "y", "v"})
	if err == nil || !strings.Contains(err.Error(), "worker 2") {
		t.Fatalf("err = %v, want worker 2 build failure", err)
	}
	if len(probers) != 2 {
		t.Fatalf("%d measurers built before the failure, want 2", len(probers))
	}
	for i, p := range probers {
		if !p.closed.Load() {
			t.Errorf("worker %d's measurer leaked after build failure", i)
		}
	}
}

// workerProber fails or succeeds depending on which worker owns it.
type workerProber struct {
	*fakeProber
	fail     bool
	attempts *atomic.Int64
}

func (p *workerProber) SampleCircuit(ctx context.Context, path []string, n int) ([]float64, error) {
	if p.fail {
		p.attempts.Add(1)
		return nil, errors.New("this worker's circuits are wedged")
	}
	return p.fakeProber.SampleCircuit(ctx, path, n)
}

// TestScannerRetriesOnDifferentWorker: worker 0's prober always fails;
// every pair still completes because retries are handed to another worker
// with a healthy measurer.
func TestScannerRetriesOnDifferentWorker(t *testing.T) {
	f := bigFakeWorld()
	var badAttempts atomic.Int64
	sc := &Scanner{
		NewMeasurer: func(worker int) (*Measurer, error) {
			p := &workerProber{fakeProber: f, fail: worker == 0, attempts: &badAttempts}
			return NewMeasurer(Config{Prober: p, W: "w", Z: "z", Samples: 1})
		},
		Workers: 2,
		// Generous budget: a retry is only *handed toward* another worker —
		// it lands there once that worker is free, which the backoff pause
		// guarantees long before the budget runs out.
		Retry:   8,
		Backoff: 2 * time.Millisecond,
		Shuffle: 7,
	}
	names := []string{"x", "y", "u", "v"}
	m, failures, err := sc.Scan(context.Background(), names)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 0 {
		t.Fatalf("failures despite a healthy worker: %v", failures)
	}
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if v, _ := m.RTT(names[i], names[j]); v <= 0 {
				t.Errorf("pair (%s,%s) unmeasured", names[i], names[j])
			}
		}
	}
	t.Logf("wedged worker consumed %d attempts before hand-offs", badAttempts.Load())
}

// flakyProber fails its first n calls, then behaves.
type flakyProber struct {
	*fakeProber
	mu   sync.Mutex
	left int
}

func (p *flakyProber) SampleCircuit(ctx context.Context, path []string, n int) ([]float64, error) {
	p.mu.Lock()
	if p.left > 0 {
		p.left--
		p.mu.Unlock()
		return nil, errors.New("transient circuit failure")
	}
	p.mu.Unlock()
	return p.fakeProber.SampleCircuit(ctx, path, n)
}

func TestScannerRetryRecoversTransientFailures(t *testing.T) {
	p := &flakyProber{fakeProber: newFakeWorld(), left: 2}
	sc := &Scanner{
		NewMeasurer: func(worker int) (*Measurer, error) {
			return NewMeasurer(Config{Prober: p, W: "w", Z: "z", Samples: 1})
		},
		Retry:   2,
		Backoff: time.Millisecond,
	}
	m, failures, err := sc.Scan(context.Background(), []string{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 0 {
		t.Fatalf("transient failure not retried away: %v", failures)
	}
	if v, _ := m.RTT("x", "y"); v != 73 {
		t.Errorf("recovered measurement = %v, want 73", v)
	}
}

func TestScannerReportsAttemptCounts(t *testing.T) {
	f := newFakeWorld()
	f.errs["x"] = errors.New("x is gone for good")
	sc := &Scanner{
		NewMeasurer: func(worker int) (*Measurer, error) {
			return NewMeasurer(Config{Prober: f, W: "w", Z: "z", Samples: 1})
		},
		SkipFailures: true,
		Retry:        2,
		Backoff:      time.Millisecond,
	}
	_, failures, err := sc.Scan(context.Background(), []string{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 1 {
		t.Fatalf("failures = %v", failures)
	}
	if failures[0].Attempts != 3 {
		t.Errorf("Attempts = %d, want 1 initial + 2 retries", failures[0].Attempts)
	}
}

// planProber consults a fault plan before sampling: any circuit through a
// Down relay fails, exactly as the overlay's dial refusal would make it.
type planProber struct {
	*fakeProber
	plan *faults.Plan
}

func (p *planProber) SampleCircuit(ctx context.Context, path []string, n int) ([]float64, error) {
	for _, r := range path {
		if p.plan.Down(r) {
			return nil, fmt.Errorf("relay %s is down", r)
		}
	}
	return p.fakeProber.SampleCircuit(ctx, path, n)
}

// TestScannerFaultPlanReproducible is the acceptance test: two tolerant
// scans of the same faulty overlay with the same seed produce byte-identical
// matrices, identical failed-pair sets, and progress that reaches the total.
func TestScannerFaultPlanReproducible(t *testing.T) {
	names := []string{"x", "y", "u", "v"}
	run := func() (matrix []byte, failed []string, done, total int) {
		plan := faults.NewPlan(42)
		plan.Begin()
		plan.Crash("v")
		p := &planProber{fakeProber: bigFakeWorld(), plan: plan}
		sc := &Scanner{
			NewMeasurer: func(worker int) (*Measurer, error) {
				return NewMeasurer(Config{Prober: p, W: "w", Z: "z", Samples: 1})
			},
			Workers:      2,
			Shuffle:      42,
			SkipFailures: true,
			Retry:        1,
			Backoff:      time.Millisecond,
			Progress:     func(d, tot int) { done, total = d, tot },
		}
		m, failures, err := sc.Scan(context.Background(), names)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		for _, f := range failures {
			failed = append(failed, fmt.Sprintf("%s|%s|%d|%v", f.X, f.Y, f.Attempts, f.Err))
		}
		return buf.Bytes(), failed, done, total
	}

	m1, f1, done1, total1 := run()
	m2, f2, done2, total2 := run()
	if done1 != 6 || total1 != 6 {
		t.Errorf("progress stalled at %d/%d, want 6/6", done1, total1)
	}
	if done2 != done1 || total2 != total1 {
		t.Errorf("progress differs across runs: %d/%d vs %d/%d", done1, total1, done2, total2)
	}
	if !bytes.Equal(m1, m2) {
		t.Error("matrices of two same-seed scans differ")
	}
	if len(f1) != 3 {
		t.Fatalf("failed pairs = %v, want the 3 pairs touching crashed v", f1)
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Errorf("failure %d differs: %q vs %q", i, f1[i], f2[i])
		}
		if !strings.Contains(f1[i], "|2|") {
			t.Errorf("failure %q did not consume 1 initial + 1 retry attempt", f1[i])
		}
	}
}

// TestScannerSharedCacheConcurrent runs two 4-worker scans against one
// HalfCache in turn, as ScanBudget's batches share theirs: the -race test
// for the workers' lock-free reads of the index beside the locked writes,
// and for a second scan reading the slots the first one left.
func TestScannerSharedCacheConcurrent(t *testing.T) {
	f := bigFakeWorld()
	cache := NewHalfCache(time.Hour)
	names := []string{"x", "y", "u", "v"}
	var misses atomic.Int64
	obs := &Observer{HalfCircuit: func(_ []string, ev HalfCircuitEvent) {
		if ev == HalfCircuitMiss {
			misses.Add(1)
		}
	}}
	for i := 0; i < 2; i++ {
		misses.Store(0)
		sc := &Scanner{
			NewMeasurer: func(worker int) (*Measurer, error) {
				return NewMeasurer(Config{Prober: f, W: "w", Z: "z", Samples: 2, Observer: obs})
			},
			Workers:      4,
			halfCircuits: cache,
			Shuffle:      5,
		}
		m, _, err := sc.Scan(context.Background(), names)
		if err != nil {
			t.Fatal(err)
		}
		for a := 0; a < len(names); a++ {
			for b := a + 1; b < len(names); b++ {
				if v, _ := m.RTT(names[a], names[b]); v <= 0 {
					t.Errorf("scan %d: pair (%s,%s) unmeasured", i, names[a], names[b])
				}
			}
		}
		if i == 1 && misses.Load() != 0 {
			t.Errorf("second scan measured %d half series, want 0", misses.Load())
		}
	}
	if len(cache.entries) != 4 {
		t.Errorf("cache holds %d half circuits, want 4", len(cache.entries))
	}
}

// cancellingProber cancels the scan context from inside the first sample.
type cancellingProber struct {
	*fakeProber
	cancel context.CancelFunc
	once   sync.Once
}

func (p *cancellingProber) SampleCircuit(ctx context.Context, path []string, n int) ([]float64, error) {
	p.once.Do(p.cancel)
	return p.fakeProber.SampleCircuit(ctx, path, n)
}

func TestScannerContextCancellation(t *testing.T) {
	// Already-cancelled context: nothing measured, ctx error returned.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	p := &countingProber{}
	sc := &Scanner{
		NewMeasurer: func(worker int) (*Measurer, error) {
			return NewMeasurer(Config{Prober: p, W: "w", Z: "z", Samples: 1})
		},
		SkipFailures: true,
	}
	if _, _, err := sc.Scan(cancelled, []string{"x", "y", "v"}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if p.attempts.Load() != 0 {
		t.Errorf("%d measurements ran under a dead context", p.attempts.Load())
	}

	// Mid-scan cancellation: even a tolerant scan reports the abort rather
	// than pretending the unmeasured pairs merely failed.
	ctx, cancelMid := context.WithCancel(context.Background())
	cp := &cancellingProber{fakeProber: bigFakeWorld(), cancel: cancelMid}
	sc2 := &Scanner{
		NewMeasurer: func(worker int) (*Measurer, error) {
			return NewMeasurer(Config{Prober: cp, W: "w", Z: "z", Samples: 1})
		},
		Workers:      1,
		SkipFailures: true,
	}
	if _, _, err := sc2.Scan(ctx, []string{"x", "y", "u", "v"}); !errors.Is(err, context.Canceled) {
		t.Errorf("mid-scan cancel: err = %v, want context.Canceled", err)
	}
}

// stuckProber hangs until its context is cancelled — a wedged transport as
// seen by a context-aware prober.
type stuckProber struct{}

func (stuckProber) SampleCircuit(ctx context.Context, path []string, n int) ([]float64, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

func TestScannerPairTimeout(t *testing.T) {
	sc := &Scanner{
		NewMeasurer: func(worker int) (*Measurer, error) {
			return NewMeasurer(Config{Prober: stuckProber{}, W: "w", Z: "z", Samples: 1})
		},
		SkipFailures: true,
		PairTimeout:  10 * time.Millisecond,
	}
	done := make(chan struct{})
	var failures []PairError
	var err error
	go func() {
		defer close(done)
		_, failures, err = sc.Scan(context.Background(), []string{"x", "y"})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("PairTimeout did not bound a wedged measurement")
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 1 || !errors.Is(failures[0].Err, context.DeadlineExceeded) {
		t.Errorf("failures = %v, want one deadline-exceeded pair", failures)
	}
}

// TestFullStackTolerantScanWithCrash is the end-to-end fault test: a relay
// of a real in-process overlay is killed mid-run, and a tolerant scan over
// the live circuit machinery completes with exactly that relay's pairs
// reported failed.
func TestFullStackTolerantScanWithCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack scan is seconds-long; skipped in -short")
	}
	topo, err := inet.Generate(inet.Config{N: 4, Seed: 51, FlatRegions: true})
	if err != nil {
		t.Fatal(err)
	}
	host := topo.AddHost("host", geo.Coord{Lat: 40, Lon: -74}, 52)
	plan := faults.NewPlan(53)
	n, err := tornet.Build(tornet.Config{
		Topology:  topo,
		Host:      host,
		TimeScale: 0.06,
		Faults:    plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	names := make([]string, 4)
	for i := range names {
		names[i], _ = n.NodeName(inet.NodeID(i))
	}
	crashed := names[2]
	if !n.CrashRelay(crashed) {
		t.Fatalf("relay %s unknown to the overlay", crashed)
	}

	sc := &Scanner{
		NewMeasurer: func(worker int) (*Measurer, error) {
			p := &StackProber{
				Client:   n.Client,
				Registry: n.Registry,
				Target:   tornet.EchoTarget,
				ToMs:     n.VirtualMs,
			}
			return NewMeasurer(Config{Prober: p, W: tornet.WName, Z: tornet.ZName, Samples: 2})
		},
		Workers:      2,
		Shuffle:      54,
		SkipFailures: true,
	}
	var lastDone, lastTotal int
	var progressMu sync.Mutex
	sc.Progress = func(done, total int) {
		progressMu.Lock()
		lastDone, lastTotal = done, total
		progressMu.Unlock()
	}
	m, failures, err := sc.Scan(context.Background(), names)
	if err != nil {
		t.Fatal(err)
	}
	if lastDone != 6 || lastTotal != 6 {
		t.Errorf("progress stalled at %d/%d with a crashed relay", lastDone, lastTotal)
	}
	if len(failures) != 3 {
		t.Fatalf("failures = %v, want the 3 pairs touching crashed %s", failures, crashed)
	}
	for _, pe := range failures {
		if pe.X != crashed && pe.Y != crashed {
			t.Errorf("healthy pair (%s,%s) reported failed: %v", pe.X, pe.Y, pe.Err)
		}
	}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			v, _ := m.RTT(names[i], names[j])
			touchesCrash := names[i] == crashed || names[j] == crashed
			if touchesCrash && v != 0 {
				t.Errorf("crashed pair (%s,%s) has value %v", names[i], names[j], v)
			}
			if !touchesCrash && v <= 0 {
				t.Errorf("surviving pair (%s,%s) unmeasured", names[i], names[j])
			}
		}
	}
}
