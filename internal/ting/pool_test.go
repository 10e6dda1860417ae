package ting

import (
	"context"
	"errors"
	"fmt"
	"runtime"
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
// The lease's half-circuit cache, its index by relay and its pair-list
// check reuse the last lease's, so what is left is the scan's own state,
// the measurer, and about 200 bytes per half-circuit miss (the series with
// its path, its channel and the key the cache keeps): 38 misses here.
// Before that reuse the lease took 181 allocations and 29 962 bytes; it
// took 173 and about 10 900 with the workers' memos, and takes 134 and
// about 10 200 without them, under ceilings set at the former.
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
	if allocs > 175 || bytes > 11264 {
		t.Errorf("%.0f allocations and %.0f bytes a warm lease, want ≤ 175 and ≤ 11264", allocs, bytes)
	}
}
