package ting

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"testing"
)

// nullProber answers every circuit at once: a scan over it costs what the
// engine costs — schedule, Measurer, half-circuit memo, matrix writes — and
// nothing else.
type nullProber struct{}

func (nullProber) SampleCircuit(ctx context.Context, path []string, n int) ([]float64, error) {
	out := make([]float64, n)
	return out, nullProber{}.SampleCircuitInto(ctx, path, out)
}

func (nullProber) SampleCircuitInto(_ context.Context, _ []string, out []float64) error {
	for i := range out {
		out[i] = 1
	}
	return nil
}

// nullScan returns the relay names and a two-worker Scanner over
// nullProbers: the model-scan shape with the measuring taken out.
func nullScan(n int) ([]string, *Scanner) {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("relay%04d", i)
	}
	return names, &Scanner{
		NewMeasurer: func(int) (*Measurer, error) {
			return NewMeasurer(Config{Prober: nullProber{}, W: "w", Z: "z", Samples: 8})
		},
		Workers: 2,
	}
}

// BenchmarkScanEngine is the scan engine's layer row: a 200-relay all-pairs
// scan with a zero-cost prober, per pair.
func BenchmarkScanEngine(b *testing.B) {
	const n = 200
	names, sc := nullScan(n)
	pairs := n * (n - 1) / 2
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for b.Loop() {
		if _, _, err := sc.Scan(context.Background(), names); err != nil {
			b.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perPair := float64(b.N) * float64(pairs)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perPair, "ns/pair")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/perPair, "B/pair")
}

// TestScanAllocs pins what a scan allocates: the planned runs, their
// placement on the workers' queues, the matrix's one triangle of tiles,
// and per-relay state — nothing per pair. At N = 200 that is at most 5·N
// allocations a scan and 32 bytes a pair, 21 of them the tiles. Logged to a FileCheckpoint, a record is encoded
// straight into the log's buffer: no allocation per record — at most 0.01
// allocations a pair beyond the in-memory scan's — and 100 bytes a pair.
func TestScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const n, runs = 200, 3
	pairs := n * (n - 1) / 2
	measure := func(t *testing.T, sc *Scanner, names []string) (allocs, perPair float64) {
		scan := func() {
			if _, _, err := sc.Scan(context.Background(), names); err != nil {
				t.Fatal(err)
			}
		}
		scan() // warm: first-use allocations in the runtime are not the scan's
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			scan()
		}
		runtime.ReadMemStats(&after)
		allocs = float64(after.Mallocs-before.Mallocs) / runs
		perPair = float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(pairs)
		t.Logf("%.0f allocations a scan, %.1f bytes a pair", allocs, perPair)
		return allocs, perPair
	}
	t.Run("in memory", func(t *testing.T) {
		names, sc := nullScan(n)
		if allocs, perPair := measure(t, sc, names); allocs > 5*n || perPair > 32 {
			t.Errorf("%.0f allocations and %.1f bytes a pair per %d-relay scan, want ≤ 5·N = %d and ≤ 32", allocs, perPair, n, 5*n)
		}
	})
	t.Run("file checkpoint", func(t *testing.T) {
		names, sc := nullScan(n)
		cp, err := OpenFileCheckpoint(filepath.Join(t.TempDir(), "campaign.ckpt"))
		if err != nil {
			t.Fatal(err)
		}
		defer cp.Close()
		cp.SyncEvery = math.MaxInt // fsyncs allocate nothing, and cost seconds here
		sc.Checkpoint = cp
		allocs, perPair := measure(t, sc, names)
		if limit := 5*n + 0.01*float64(pairs); allocs > limit || perPair > 100 {
			t.Errorf("%.0f allocations and %.1f bytes a pair per logged %d-relay scan, want ≤ 5·N + 0.01 a pair = %.0f and ≤ 100",
				allocs, perPair, n, limit)
		}
	})
}
