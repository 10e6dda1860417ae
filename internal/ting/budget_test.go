package ting

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ting/internal/inet"
)

// budgetScanner builds a scanner over a model world for budget tests.
func budgetScanner(t *testing.T, n int, seed int64, workers int) (*Scanner, []string) {
	t.Helper()
	topo, host, nodeOf := modelWorld(t, n, seed)
	sc := &Scanner{
		NewMeasurer: func(worker int) (*Measurer, error) {
			p := NewModelProber(topo, host, nodeOf, seed+10+int64(worker))
			return NewMeasurer(Config{Prober: p, W: "w", Z: "z", Samples: 4})
		},
		Workers: workers,
		Shuffle: seed,
	}
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = topo.Node(inet.NodeID(i)).Name
	}
	return sc, names
}

// TestScanBudgetCompletesMatrix: a budgeted scan must return a complete
// matrix — measured cells fresh at confidence 1, every other cell
// predicted with a confidence in (0, 1].
func TestScanBudgetCompletesMatrix(t *testing.T) {
	sc, names := budgetScanner(t, 16, 700, 2)
	n := len(names)
	allPairs := n * (n - 1) / 2
	budget := allPairs / 3

	m, failures, err := sc.ScanBudget(context.Background(), names, budget)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 0 {
		t.Fatalf("healthy world produced failures: %v", failures)
	}
	pc := m.ProvCounts()
	if pc.Missing != 0 {
		t.Errorf("%d cells missing from a completed matrix", pc.Missing)
	}
	if pc.Fresh == 0 || pc.Fresh > budget {
		t.Errorf("fresh cells %d outside (0, budget %d]", pc.Fresh, budget)
	}
	if pc.Predicted != allPairs-pc.Fresh {
		t.Errorf("predicted %d + fresh %d != %d pairs", pc.Predicted, pc.Fresh, allPairs)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			conf := m.ConfAt(i, j)
			switch m.ProvAt(i, j) {
			case ProvFresh:
				if conf != 1 {
					t.Fatalf("measured cell (%d,%d) confidence %v, want 1", i, j, conf)
				}
			case ProvPredicted:
				if conf <= 0 || conf > 1 {
					t.Fatalf("predicted cell (%d,%d) confidence %v outside (0,1]", i, j, conf)
				}
				if m.At(i, j) <= 0 {
					t.Fatalf("predicted cell (%d,%d) has no value", i, j)
				}
			default:
				t.Fatalf("cell (%d,%d) provenance %v", i, j, m.ProvAt(i, j))
			}
			if m.ConfAt(j, i) != conf {
				t.Fatalf("confidence asymmetric at (%d,%d)", i, j)
			}
		}
	}
}

// TestScanBudgetSeriesEconomy is the tentpole's cost claim, counted at the
// mechanism: each CircuitDone is one sampled circuit series. A 20-node
// budgeted scan at ~15% budget must cost at least 4× fewer series than the
// memoized all-pairs scan.
func TestScanBudgetSeriesEconomy(t *testing.T) {
	const n = 20
	topo, host, nodeOf := modelWorld(t, n, 800)
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = topo.Node(inet.NodeID(i)).Name
	}
	count := func(run func(sc *Scanner) error) int64 {
		var series atomic.Int64
		obs := &Observer{
			CircuitDone: func(_ []string, _ int, _ time.Duration, _ error) { series.Add(1) },
		}
		sc := &Scanner{
			NewMeasurer: func(worker int) (*Measurer, error) {
				p := NewModelProber(topo, host, nodeOf, 810+int64(worker))
				return NewMeasurer(Config{Prober: p, W: "w", Z: "z", Samples: 4, Observer: obs})
			},
			Workers: 2,
			Shuffle: 800,
		}
		if err := run(sc); err != nil {
			t.Fatal(err)
		}
		return series.Load()
	}
	allPairs := n * (n - 1) / 2 // 190
	budget := 30

	full := count(func(sc *Scanner) error {
		_, _, err := sc.Scan(context.Background(), names)
		return err
	})
	budgeted := count(func(sc *Scanner) error {
		_, _, err := sc.ScanBudget(context.Background(), names, budget)
		return err
	})
	// Memoized all-pairs costs pairs + N series; the budgeted scan should
	// cost about budget + touched-node halves.
	if full < int64(allPairs) {
		t.Fatalf("all-pairs scan sampled %d series, fewer than %d pairs?", full, allPairs)
	}
	if budgeted*4 > full {
		t.Errorf("budgeted scan sampled %d series vs %d all-pairs — less than the promised 4× saving", budgeted, full)
	}
}

// TestScanBudgetFallsThroughToScan: budget ≥ all pairs is a plain scan —
// no predicted cells.
func TestScanBudgetFallsThroughToScan(t *testing.T) {
	sc, names := budgetScanner(t, 6, 900, 2)
	allPairs := 6 * 5 / 2
	m, _, err := sc.ScanBudget(context.Background(), names, allPairs)
	if err != nil {
		t.Fatal(err)
	}
	pc := m.ProvCounts()
	if pc.Fresh != allPairs || pc.Predicted != 0 {
		t.Errorf("ProvCounts = %+v, want all %d fresh", pc, allPairs)
	}
}

// TestScanBudgetCheckpoint: a budget below all pairs writes no
// checkpoint, so a scanner with one is refused before anything is measured
// — not left with a log that a resume then finds without a campaign
// header. A budget of all pairs is a plain scan and writes its log.
func TestScanBudgetCheckpoint(t *testing.T) {
	sc, names := budgetScanner(t, 6, 902, 1)
	allPairs := 6 * 5 / 2
	cp := &MemCheckpoint{}
	sc.Checkpoint = cp
	if m, _, err := sc.ScanBudget(context.Background(), names, allPairs-1); err == nil || m != nil {
		t.Errorf("budgeted scan with a checkpoint = (%v, %v), want refused", m, err)
	}
	if n := len(cp.recs); n != 0 {
		t.Errorf("refused scan logged %d records", n)
	}
	if _, _, err := sc.ScanBudget(context.Background(), names, allPairs); err != nil {
		t.Fatal(err)
	}
	if _, pairs := countRecords(cp); pairs != allPairs {
		t.Errorf("full-budget scan logged %d pair records, want all %d", pairs, allPairs)
	}
}

// TestScanBudgetRejectsNonPositive pins the argument contract.
func TestScanBudgetRejectsNonPositive(t *testing.T) {
	sc, names := budgetScanner(t, 6, 901, 1)
	if _, _, err := sc.ScanBudget(context.Background(), names, 0); err == nil {
		t.Error("budget 0 accepted")
	}
	if _, _, err := sc.ScanBudget(context.Background(), names, -5); err == nil {
		t.Error("negative budget accepted")
	}
}

// TestScanBudgetObserver: the BudgetComplete hook reports the campaign's
// measured/total split, and the telemetry observer turns it into the
// budget counters.
func TestScanBudgetObserver(t *testing.T) {
	sc, names := budgetScanner(t, 12, 902, 2)
	n := len(names)
	allPairs := n * (n - 1) / 2
	budget := allPairs / 4

	var gotMeasured, gotAll atomic.Int64
	sc.Observer = &Observer{
		BudgetComplete: func(measured, all int) {
			gotMeasured.Store(int64(measured))
			gotAll.Store(int64(all))
		},
	}
	m, _, err := sc.ScanBudget(context.Background(), names, budget)
	if err != nil {
		t.Fatal(err)
	}
	if gotAll.Load() != int64(allPairs) {
		t.Errorf("BudgetComplete allPairs = %d, want %d", gotAll.Load(), allPairs)
	}
	meas := gotMeasured.Load()
	if meas <= 0 || meas > int64(budget) {
		t.Errorf("BudgetComplete measured = %d, want in (0, %d]", meas, budget)
	}
	pc := m.ProvCounts()
	if int64(pc.Fresh) > meas {
		t.Errorf("matrix has %d fresh cells but only %d were reported measured", pc.Fresh, meas)
	}
}

// TestScanBudgetProgressMonotonic: the cross-batch progress wrapper must
// report a monotonically nondecreasing done count.
func TestScanBudgetProgressMonotonic(t *testing.T) {
	sc, names := budgetScanner(t, 12, 903, 2)
	var mu sync.Mutex
	last := 0
	sc.Progress = func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		if done < last {
			t.Errorf("progress went backwards: %d after %d", done, last)
		}
		last = done
		if done > total {
			t.Errorf("done %d > total %d", done, total)
		}
	}
	if _, _, err := sc.ScanBudget(context.Background(), names, 20); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if last == 0 {
		t.Error("progress never reported")
	}
}
