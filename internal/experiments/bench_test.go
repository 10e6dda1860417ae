package experiments

// One benchmark per paper figure (reduced scale — the figures' shapes, not
// their full population sizes), plus ablation benches for the design
// choices DESIGN.md calls out, the extensions, the model prober and the
// scan engine over a model world. `go run ./scripts/benchgate <base>`
// times them against a base revision on the same host.
import (
	"context"
	"testing"

	"ting/internal/deanon"
	"ting/internal/pathsel"
	"ting/internal/ting"
)

// loop times f, failing the benchmark on its first error.
func loop(b *testing.B, f func() error) {
	for b.Loop() {
		if err := f(); err != nil {
			b.Fatal(err)
		}
	}
}

// check fails the benchmark's setup on err.
func check(b *testing.B, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
}

var (
	benchFig3Config  = Fig3Config{Nodes: 10, Samples: 100, PingSamples: 20, Seed: 1}
	benchFig9Config  = Fig9Config{WorldNodes: 30, PairCount: 8, Hours: 12, Samples: 60, Seed: 6}
	benchFig12Config = Fig12Config{Trials: 100, Seed: 8}
)

// benchFig11 is the 20-node all-pairs matrix the benchmarks downstream of
// Figure 11 start from.
func benchFig11(b *testing.B) *Fig11Result {
	b.Helper()
	res, err := Fig11(Fig11Config{Nodes: 20, Samples: 50, Seed: 7})
	check(b, err)
	return res
}

// --- Figure benchmarks ---

func BenchmarkFig3Validation(b *testing.B) {
	loop(b, func() error { _, err := Fig3(benchFig3Config); return err })
}

func BenchmarkFig4Regimes(b *testing.B) {
	res, err := Fig3(benchFig3Config)
	check(b, err)
	for b.Loop() {
		_ = Fig4(res)
	}
}

func BenchmarkFig5ForwardingDelays(b *testing.B) {
	cfg := Fig5Config{Nodes: 10, Rounds: 3, CircuitSamples: 100, PingSamples: 20, Seed: 2}
	loop(b, func() error { _, err := Fig5(cfg); return err })
}

func BenchmarkFig6SampleSizes(b *testing.B) {
	cfg := Fig6Config{WorldNodes: 20, Pairs: 20, Samples: 300, Seed: 3}
	loop(b, func() error { _, err := Fig6(cfg); return err })
}

func BenchmarkFig7SampleComparison(b *testing.B) {
	cfg := Fig3Config{Nodes: 8, PingSamples: 20, Seed: 4}
	loop(b, func() error { _, err := Fig7(cfg, 50, 200); return err })
}

func BenchmarkFig8DistanceLatency(b *testing.B) {
	cfg := Fig8Config{WorldNodes: 80, Pairs: 200, Samples: 50, Seed: 5}
	loop(b, func() error { _, err := Fig8(cfg); return err })
}

func BenchmarkFig9Stability(b *testing.B) {
	loop(b, func() error { _, err := Fig9(benchFig9Config); return err })
}

func BenchmarkFig10Boxes(b *testing.B) {
	res, err := Fig9(benchFig9Config)
	check(b, err)
	for b.Loop() {
		_ = Fig10(res)
	}
}

func BenchmarkFig11AllPairs(b *testing.B) {
	for b.Loop() {
		_ = benchFig11(b)
	}
}

func BenchmarkFig12Deanonymization(b *testing.B) {
	f11 := benchFig11(b)
	loop(b, func() error { _, err := Fig12(f11, benchFig12Config); return err })
}

func BenchmarkFig13RuledOut(b *testing.B) {
	f12, err := Fig12(benchFig11(b), benchFig12Config)
	check(b, err)
	for b.Loop() {
		_ = Fig13(f12)
	}
}

func BenchmarkFig14TIVs(b *testing.B) {
	f11 := benchFig11(b)
	loop(b, func() error { _, err := Fig14(f11); return err })
}

func BenchmarkFig15Scatter(b *testing.B) {
	f14, err := Fig14(benchFig11(b))
	check(b, err)
	for b.Loop() {
		_ = Fig15(f14)
	}
}

func BenchmarkFig16LongerCircuits(b *testing.B) {
	f11 := benchFig11(b)
	cfg := Fig16Config{Lengths: []int{3, 5, 7}, Samples: 2000, Seed: 9}
	loop(b, func() error { _, err := Fig16(f11, cfg); return err })
}

// Figure 17 shares Figure 16's computation; this benches the underlying
// analysis directly.
func BenchmarkFig17NodeProbability(b *testing.B) {
	f11 := benchFig11(b)
	loop(b, func() error { _, err := pathsel.AnalyzeLengths(f11.Matrix, []int{4}, 2000, 10); return err })
}

func BenchmarkFig18Coverage(b *testing.B) {
	cfg := Fig18Config{Days: 10, Relays: 2000, Seed: 11}
	loop(b, func() error { _, err := Fig18(cfg); return err })
}

func BenchmarkHeadlines(b *testing.B) {
	f3, err := Fig3(benchFig3Config)
	check(b, err)
	f11 := benchFig11(b)
	f12, err := Fig12(f11, benchFig12Config)
	check(b, err)
	f14, err := Fig14(f11)
	check(b, err)
	f18, err := Fig18(Fig18Config{Days: 5, Relays: 1000, Seed: 11})
	check(b, err)
	loop(b, func() error { _, err := ComputeHeadlines(f3, f12, f14, f18); return err })
}

// --- Ablation benchmarks ---

func BenchmarkAblationAggregator(b *testing.B) {
	cfg := AblationConfig{Nodes: 10, Pairs: 20, Samples: 100, Seed: 12}
	loop(b, func() error { _, err := AblationAggregator(cfg); return err })
}

func BenchmarkAblationStrawman(b *testing.B) {
	cfg := AblationConfig{Nodes: 10, Pairs: 20, Samples: 100, Seed: 13}
	loop(b, func() error { _, err := AblationStrawman(cfg); return err })
}

func BenchmarkAblationSamples(b *testing.B) {
	cfg := AblationConfig{Nodes: 10, Pairs: 10, Seed: 14}
	loop(b, func() error { _, err := AblationSamples(cfg, []int{10, 100}); return err })
}

func BenchmarkAblationMu(b *testing.B) {
	f11 := benchFig11(b)
	loop(b, func() error { _, err := AblationMu(f11, 60, 15); return err })
}

// --- Extension benchmarks: defenses (§5.1.3), future-work selection
// (§5.2.2/§6), and the King comparison (§2, §4.2) ---

func BenchmarkDefensePadding(b *testing.B) {
	f11 := benchFig11(b)
	loop(b, func() error { _, err := deanon.PaddingSweep(f11.Matrix, []float64{0, 100}, 60, 21); return err })
}

func BenchmarkDefenseRandomLength(b *testing.B) {
	f11 := benchFig11(b)
	loop(b, func() error { _, err := deanon.LengthDefense(f11.Matrix, 3, 5, 60, 22); return err })
}

func BenchmarkSelectionLowLatency(b *testing.B) {
	f11 := benchFig11(b)
	cfg := SelectionConfig{Lengths: []int{4}, Baseline3Hop: 1000, Select: 200, Seed: 23}
	loop(b, func() error { _, err := Selection(f11, cfg); return err })
}

func BenchmarkKingComparison(b *testing.B) {
	cfg := KingConfig{Nodes: 10, Pairs: 40, Samples: 60, Seed: 24}
	loop(b, func() error { _, err := KingComparison(cfg); return err })
}

// --- The model prober and the scan engine over a model world ---

func BenchmarkModelProberSample(b *testing.B) {
	w, err := NewWorld(30, 16)
	check(b, err)
	p := w.Prober(17)
	path := []string{w.W, w.Names[0], w.Names[1], w.Z}
	loop(b, func() error { _, err := p.SampleCircuit(context.Background(), path, 1); return err })
}

// benchScan times scan over a 20-node model world, with a fresh 4-worker
// Scanner each iteration.
func benchScan(b *testing.B, disableHalfCache bool, scan func(*ting.Scanner, []string) error) {
	w, err := NewWorld(20, 25)
	check(b, err)
	loop(b, func() error {
		return scan(&ting.Scanner{
			NewMeasurer: func(worker int) (*ting.Measurer, error) {
				return w.Measurer(50, 26+int64(worker))
			},
			Workers:          4,
			DisableHalfCache: disableHalfCache,
		}, w.Names)
	})
}

// scanAllPairs is the all-pairs scan — the end-to-end cost the half-circuit
// cache exists to cut. The memoized/unmemoized pair is the ~3× ablation:
// pairs+N vs 3·pairs circuit series.
func scanAllPairs(sc *ting.Scanner, names []string) error {
	_, _, err := sc.Scan(context.Background(), names)
	return err
}

func BenchmarkScanAllPairsMemoized(b *testing.B) { benchScan(b, false, scanAllPairs) }

func BenchmarkScanAllPairsNoMemo(b *testing.B) { benchScan(b, true, scanAllPairs) }

// BenchmarkScanBudgeted is the N² counterpart of BenchmarkScanAllPairsMemoized:
// the same world, but a budget of 30 measured pairs (~15%) with the
// coordinate model filling in the rest.
func BenchmarkScanBudgeted(b *testing.B) {
	benchScan(b, false, func(sc *ting.Scanner, names []string) error {
		_, _, err := sc.ScanBudget(context.Background(), names, 30)
		return err
	})
}
