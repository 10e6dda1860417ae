package ting

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// tallyProber counts the series it takes, half circuits (w, x) apart from
// full ones, and answers every circuit at once with its hop count, so every
// pair's estimate is 4 − 1 − 1 = 2. gate, if set, runs before each series
// and may fail it.
type tallyProber struct {
	halves, fulls atomic.Int64
	gate          func(ctx context.Context, path []string) error
}

func (p *tallyProber) SampleCircuit(ctx context.Context, path []string, n int) ([]float64, error) {
	out := make([]float64, n)
	return out, p.SampleCircuitInto(ctx, path, out)
}

func (p *tallyProber) SampleCircuitInto(ctx context.Context, path []string, out []float64) error {
	if p.gate != nil {
		if err := p.gate(ctx, path); err != nil {
			return err
		}
	}
	if len(path) == 2 {
		p.halves.Add(1)
	} else {
		p.fulls.Add(1)
	}
	for i := range out {
		out[i] = float64(len(path))
	}
	return nil
}

// tallyScanner is a Scanner whose workers all sample through p.
func tallyScanner(p *tallyProber, workers int, cp Checkpoint) *Scanner {
	return &Scanner{
		NewMeasurer: func(int) (*Measurer, error) {
			return NewMeasurer(Config{Prober: p, W: "w", Z: "z", Samples: 2})
		},
		Workers:    workers,
		Checkpoint: cp,
	}
}

// tileShard lists the pairs (i, j) for i in [i0, i0+rows) and j in [j0,
// j0+cols), as a campaign shard's tile block does, and counts the relays it
// touches.
func tileShard(i0, rows, j0, cols int) (pairs [][2]int, relays int) {
	for i := i0; i < i0+rows; i++ {
		for j := j0; j < j0+cols; j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	return pairs, rows + cols
}

// scanShard runs one ScanPairs of pairs into a fresh matrix and checks what
// it cost p: exactly one series per pair plus one per relay touched. A half
// entry left over from an earlier scan would answer a relay's series
// without measuring it.
func scanShard(ctx context.Context, sc *Scanner, p *tallyProber, names []string, pairs [][2]int, relays int) error {
	m, err := NewMatrix(names)
	if err != nil {
		return err
	}
	h0, f0 := p.halves.Load(), p.fulls.Load()
	if _, err := sc.ScanPairs(ctx, m, pairs); err != nil {
		return err
	}
	if h, f := p.halves.Load()-h0, p.fulls.Load()-f0; h != int64(relays) || f != int64(len(pairs)) {
		return fmt.Errorf("%d half + %d full series for %d pairs over %d relays, want %d + %d",
			h, f, len(pairs), relays, relays, len(pairs))
	}
	return nil
}

// countRecords tallies a log's half and pair records.
func countRecords(cp *MemCheckpoint) (halves, pairs int) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	for _, r := range cp.recs {
		switch r.Kind {
		case RecordHalf:
			halves++
		case RecordPair:
			pairs++
		}
	}
	return halves, pairs
}

// TestPooledScanIsolation holds the scans that share pooled scratch — the
// half-circuit cache a scan owns and its index, its pair-list check —
// to what separate allocations gave them: every ScanPairs takes exactly
// pairs + relays series, one after another on one Scanner and interleaved
// on two, and a scan cancelled mid-flight leaves nothing behind: no half
// entry answers the next scan, and its store hook never appends to its log
// again.
func TestPooledScanIsolation(t *testing.T) {
	const n = 40
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("relay%02d", i)
	}
	ctx := context.Background()
	shards := [][4]int{{0, 4, 20, 10}, {0, 4, 20, 10}, {4, 4, 20, 10}, {0, 8, 30, 10}, {0, 4, 20, 10}}

	t.Run("consecutive", func(t *testing.T) {
		p := &tallyProber{}
		sc := tallyScanner(p, 2, nil)
		for round := 0; round < 3; round++ {
			for _, s := range shards {
				pairs, relays := tileShard(s[0], s[1], s[2], s[3])
				if err := scanShard(ctx, sc, p, names, pairs, relays); err != nil {
					t.Fatalf("round %d shard %v: %v", round, s, err)
				}
			}
		}
	})

	t.Run("interleaved", func(t *testing.T) {
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for k := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p := &tallyProber{}
				sc := tallyScanner(p, 2, nil)
				for round := 0; round < 20 && errs[k] == nil; round++ {
					s := shards[(round+k)%len(shards)]
					pairs, relays := tileShard(s[0], s[1], s[2], s[3])
					errs[k] = scanShard(ctx, sc, p, names, pairs, relays)
				}
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("cancelled", func(t *testing.T) {
		pairs, relays := tileShard(0, 4, 20, 10)
		for round := 0; round < 10; round++ {
			// The first scan is cancelled by its own prober once a few pairs
			// are in: its log holds half records by then.
			cctx, cancel := context.WithCancel(ctx)
			first := &tallyProber{}
			first.gate = func(ctx context.Context, path []string) error {
				if len(path) > 2 && first.fulls.Load() >= 5 {
					cancel()
					return ctx.Err()
				}
				return nil
			}
			logA := &MemCheckpoint{}
			_, err := tallyScanner(first, 2, logA).ScanPairs(cctx, mustMatrix(t, names), pairs)
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("round %d: cancelled scan returned %v, want context.Canceled", round, err)
			}
			halvesA, pairsA := countRecords(logA)
			if halvesA == 0 {
				t.Fatalf("round %d: the cancelled scan logged no half series", round)
			}

			// A scan without a log sets no store hook of its own: one left on
			// the cache would append its series to the first scan's log.
			next := &tallyProber{}
			if err := scanShard(ctx, tallyScanner(next, 2, nil), next, names, pairs, relays); err != nil {
				t.Fatalf("round %d, scan after the cancelled one: %v", round, err)
			}
			logged := &MemCheckpoint{}
			if err := scanShard(ctx, tallyScanner(next, 2, logged), next, names, pairs, relays); err != nil {
				t.Fatalf("round %d, logged scan after the cancelled one: %v", round, err)
			}
			if h, p := countRecords(logA); h != halvesA || p != pairsA {
				t.Fatalf("round %d: the cancelled scan's log went from %d half and %d pair records to %d and %d after it returned",
					round, halvesA, pairsA, h, p)
			}
			if h, p := countRecords(logged); h != relays || p != len(pairs) {
				t.Fatalf("round %d: the logged scan wrote %d half and %d pair records, want %d and %d", round, h, p, relays, len(pairs))
			}
		}
	})
}

// TestScanPairsAllocs pins what a warm campaign lease costs the scan
// engine: a one-worker ScanPairs of a 312-pair tile shard over 400 relays,
// the campaign workload's shard, through a prober that allocates nothing.
// The lease's half-circuit cache, its index by relay, the series its 38
// misses measure into and its pair-list check reuse the last lease's, so
// what is left is the scan's own state and the measurer. Before that reuse
// the lease took 181 allocations and 29 962 bytes; with a fresh series,
// channel and key string per miss it took 134 and about 10 200; it takes
// 20 and about 1700.
func TestScanPairsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const n, runs = 400, 50
	names, sc := nullScan(n)
	sc.Workers = 1
	pairs, _ := tileShard(0, 12, 200, 26)
	m := mustMatrix(t, names)
	lease := func() {
		if _, err := sc.ScanPairs(context.Background(), m, pairs); err != nil {
			t.Fatal(err)
		}
	}
	lease() // warm: the matrix's tiles, the pools, the runtime's first use
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		lease()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%.0f allocations and %.0f bytes a %d-pair lease", allocs, bytes, len(pairs))
	if allocs > 32 || bytes > 3072 {
		t.Errorf("%.0f allocations and %.0f bytes a warm lease, want ≤ 32 and ≤ 3072", allocs, bytes)
	}
}

// TestHalfCacheMissAllocs: a warm pooled cache measures a lease's half
// circuits without allocating. Each round takes a cache from the pool,
// misses on every relay of a 38-relay lease through one measurer and
// releases the cache, whose series the next round's misses reuse.
func TestHalfCacheMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	names, _ := nullScan(38)
	ev := &halfEvents{}
	meas, err := NewMeasurer(Config{Prober: nullProber{}, W: "w", Z: "z", Samples: 8, Observer: ev.observer()})
	if err != nil {
		t.Fatal(err)
	}
	path := make([]string, 2)
	lease := func() {
		meas.hc = ownedHalfCache()
		meas.hc.sizeIndex(len(names))
		for i, x := range names {
			path[0], path[1] = "w", x
			if _, err := meas.halfMin(context.Background(), path, i); err != nil {
				t.Fatal(err)
			}
		}
		releaseHalfCache(meas.hc)
		meas.hc = nil
	}
	lease() // warm: the pooled cache's map, index and spare series
	ev.misses.Store(0)
	allocs := testing.AllocsPerRun(50, lease)
	if misses := ev.misses.Load(); misses != 51*int64(len(names)) {
		t.Fatalf("%d misses in 51 leases of %d relays, want every half measured", misses, len(names))
	}
	if allocs != 0 {
		t.Errorf("%.0f allocations a warm lease of %d half-circuit misses, want 0", allocs, len(names))
	}
}

// relayProber answers a half circuit (w, x) with x's relay number and a
// full circuit (w, x, y, z) with 100 plus half of each, so every pair's
// estimate is 100 and a half minimum names the relay it came from. It
// counts the half series it takes; gate, if set, runs before each full
// series and may fail it.
type relayProber struct {
	halves, fulls atomic.Int64
	gate          func(ctx context.Context) error
}

// relayNumber is the number a relayNN name ends in.
func relayNumber(name string) float64 {
	n, _ := strconv.Atoi(strings.TrimPrefix(name, "relay"))
	return float64(n)
}

func (p *relayProber) SampleCircuit(ctx context.Context, path []string, n int) ([]float64, error) {
	out := make([]float64, n)
	return out, p.SampleCircuitInto(ctx, path, out)
}

func (p *relayProber) SampleCircuitInto(ctx context.Context, path []string, out []float64) error {
	v := relayNumber(path[1])
	if len(path) == 2 {
		p.halves.Add(1)
	} else {
		if p.gate != nil {
			if err := p.gate(ctx); err != nil {
				return err
			}
		}
		p.fulls.Add(1)
		v = 100 + v/2 + relayNumber(path[2])/2
	}
	for i := range out {
		out[i] = v
	}
	return nil
}

// TestPooledLogKeepsItsHalves: the path a half record carries is valid only
// for the append, since the pooled cache whose series it names serves the
// next scan's misses with that series. Scan A logs to a MemCheckpoint and is
// cancelled part way; scan B, over other relays, measures into A's series;
// A's log must still replay each half A measured with A's minimum for its
// path, and Resume from it must seed those, measuring only the halves A
// never logged and estimating every pair at 100.
func TestPooledLogKeepsItsHalves(t *testing.T) {
	namesA, namesB := make([]string, 10), make([]string, 10)
	for i := range namesA {
		namesA[i], namesB[i] = fmt.Sprintf("relay%02d", i), fmt.Sprintf("relay%02d", 10+i)
	}
	scanner := func(p *relayProber, cp Checkpoint) *Scanner {
		return &Scanner{
			NewMeasurer: func(int) (*Measurer, error) {
				return NewMeasurer(Config{Prober: p, W: "w", Z: "z", Samples: 2})
			},
			Workers:    1,
			Checkpoint: cp,
		}
	}
	ctx := t.Context()
	for round := 0; round < 5; round++ {
		cctx, cancel := context.WithCancel(ctx)
		a := &relayProber{}
		a.gate = func(ctx context.Context) error {
			if a.fulls.Load() >= 4 {
				cancel()
				return ctx.Err()
			}
			return nil
		}
		logA := &MemCheckpoint{}
		_, _, err := scanner(a, logA).Scan(cctx, namesA)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: scan A returned %v, want context.Canceled", round, err)
		}
		if _, _, err := scanner(&relayProber{}, nil).Scan(ctx, namesB); err != nil {
			t.Fatalf("round %d: scan B: %v", round, err)
		}

		st, err := ReplayState(logA)
		if err != nil {
			t.Fatal(err)
		}
		logged := 0
		for _, h := range st.Halves {
			if len(h.Path) != 2 || h.Path[0] != "w" || !slices.Contains(namesA, h.Path[1]) || h.Min != relayNumber(h.Path[1]) {
				t.Fatalf("round %d: A's log replays half %v at %v, want one of A's relays at its own minimum", round, h.Path, h.Min)
			}
			logged++
		}
		if logged == 0 || logged == len(namesA) {
			t.Fatalf("round %d: A logged %d of %d halves, want the cancellation mid-scan", round, logged, len(namesA))
		}
		r := &relayProber{}
		m, failures, err := scanner(r, logA).Resume(ctx, logA)
		if err != nil || len(failures) != 0 {
			t.Fatalf("round %d: Resume = %v, %v", round, failures, err)
		}
		for i, x := range namesA {
			for _, y := range namesA[i+1:] {
				if v, err := m.RTT(x, y); err != nil || v != 100 {
					t.Fatalf("round %d: resumed (%s,%s) = %v, %v; want 100", round, x, y, v, err)
				}
			}
		}
		if got, want := r.halves.Load(), int64(len(namesA)-logged); got != want {
			t.Errorf("round %d: Resume measured %d half series, want the %d A never logged", round, got, want)
		}
	}
}
