package ting

// One benchmark per paper figure (reduced scale — the figures' shapes, not
// their full population sizes), plus ablation benches for the design
// choices DESIGN.md calls out and micro-benchmarks for the hot paths of
// the onion stack. Run with:
//
//	go test -bench=. -benchmem
import (
	"context"
	"math/rand"
	"testing"

	"ting/internal/cell"
	"ting/internal/coords"
	"ting/internal/deanon"
	"ting/internal/experiments"
	"ting/internal/inet"
	"ting/internal/onion"
	"ting/internal/pathsel"
	"ting/internal/ting"
)

// --- Figure benchmarks ---

func BenchmarkFig3Validation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(experiments.Fig3Config{
			Nodes: 10, Samples: 100, PingSamples: 20, Seed: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4Regimes(b *testing.B) {
	res, err := experiments.Fig3(experiments.Fig3Config{
		Nodes: 10, Samples: 100, PingSamples: 20, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig4(res)
	}
}

func BenchmarkFig5ForwardingDelays(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(experiments.Fig5Config{
			Nodes: 10, Rounds: 3, CircuitSamples: 100, PingSamples: 20, Seed: 2,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6SampleSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(experiments.Fig6Config{
			WorldNodes: 20, Pairs: 20, Samples: 300, Seed: 3,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7SampleComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(experiments.Fig3Config{
			Nodes: 8, PingSamples: 20, Seed: 4,
		}, 50, 200); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8DistanceLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(experiments.Fig8Config{
			WorldNodes: 80, Pairs: 200, Samples: 50, Seed: 5,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9Stability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9(experiments.Fig9Config{
			WorldNodes: 30, PairCount: 8, Hours: 12, Samples: 60, Seed: 6,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10Boxes(b *testing.B) {
	res, err := experiments.Fig9(experiments.Fig9Config{
		WorldNodes: 30, PairCount: 8, Hours: 12, Samples: 60, Seed: 6,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig10(res)
	}
}

func benchFig11(b *testing.B) *experiments.Fig11Result {
	b.Helper()
	res, err := experiments.Fig11(experiments.Fig11Config{
		Nodes: 20, Samples: 50, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func BenchmarkFig11AllPairs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = benchFig11(b)
	}
}

func BenchmarkFig12Deanonymization(b *testing.B) {
	f11 := benchFig11(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12(f11, experiments.Fig12Config{Trials: 100, Seed: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13RuledOut(b *testing.B) {
	f11 := benchFig11(b)
	f12, err := experiments.Fig12(f11, experiments.Fig12Config{Trials: 100, Seed: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig13(f12)
	}
}

func BenchmarkFig14TIVs(b *testing.B) {
	f11 := benchFig11(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig14(f11); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15Scatter(b *testing.B) {
	f11 := benchFig11(b)
	f14, err := experiments.Fig14(f11)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig15(f14)
	}
}

func BenchmarkFig16LongerCircuits(b *testing.B) {
	f11 := benchFig11(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig16(f11, experiments.Fig16Config{
			Lengths: []int{3, 5, 7}, Samples: 2000, Seed: 9,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig17NodeProbability(b *testing.B) {
	// Figure 17 shares Figure 16's computation; bench the underlying
	// analysis directly.
	f11 := benchFig11(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pathsel.AnalyzeLengths(f11.Matrix, []int{4}, 2000, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig18Coverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig18(experiments.Fig18Config{
			Days: 10, Relays: 2000, Seed: 11,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeadlines(b *testing.B) {
	f3, err := experiments.Fig3(experiments.Fig3Config{Nodes: 10, Samples: 100, PingSamples: 20, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	f11 := benchFig11(b)
	f12, err := experiments.Fig12(f11, experiments.Fig12Config{Trials: 100, Seed: 8})
	if err != nil {
		b.Fatal(err)
	}
	f14, err := experiments.Fig14(f11)
	if err != nil {
		b.Fatal(err)
	}
	f18, err := experiments.Fig18(experiments.Fig18Config{Days: 5, Relays: 1000, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ComputeHeadlines(f3, f12, f14, f18); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks ---

func BenchmarkAblationAggregator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationAggregator(experiments.AblationConfig{
			Nodes: 10, Pairs: 20, Samples: 100, Seed: 12,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationStrawman(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationStrawman(experiments.AblationConfig{
			Nodes: 10, Pairs: 20, Samples: 100, Seed: 13,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSamples(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationSamples(experiments.AblationConfig{
			Nodes: 10, Pairs: 10, Seed: 14,
		}, []int{10, 100}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationMu(b *testing.B) {
	f11 := benchFig11(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationMu(f11, 60, 15); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks for the onion stack's hot paths ---

// benchSink defeats dead-code elimination: without a live use of the
// encoded/decoded bytes the compiler deletes the loop body outright and
// the marshal/unmarshal ratio becomes meaningless.
var benchSink byte

func BenchmarkCellMarshal(b *testing.B) {
	c := cell.Cell{Circ: 42, Cmd: cell.Relay}
	buf := make([]byte, cell.Size)
	b.SetBytes(cell.Size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.MarshalInto(buf)
		benchSink += buf[0]
	}
}

func BenchmarkCellUnmarshal(b *testing.B) {
	c := cell.Cell{Circ: 42, Cmd: cell.Relay}
	buf := make([]byte, cell.Size)
	c.MarshalInto(buf)
	b.SetBytes(cell.Size)
	b.ResetTimer()
	// UnmarshalInto is the receive-loop decode path: every link Recv
	// decodes into a caller-owned Cell rather than returning one by value.
	var dst cell.Cell
	for i := 0; i < b.N; i++ {
		if err := cell.UnmarshalInto(&dst, buf); err != nil {
			b.Fatal(err)
		}
		benchSink += dst.Payload[0]
	}
}

func BenchmarkHandshake(b *testing.B) {
	rnd := rand.New(rand.NewSource(1))
	id, err := onion.NewIdentity(rnd)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch, err := onion.StartHandshake(id.Public(), rnd)
		if err != nil {
			b.Fatal(err)
		}
		reply, _, err := onion.ServerHandshake(id, ch.Onionskin(), rnd)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ch.Complete(reply); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOnionForward3Hops(b *testing.B) {
	rnd := rand.New(rand.NewSource(2))
	var cc onion.CircuitCrypto
	relays := make([]*onion.HopState, 3)
	for i := range relays {
		id, err := onion.NewIdentity(rnd)
		if err != nil {
			b.Fatal(err)
		}
		ch, err := onion.StartHandshake(id.Public(), rnd)
		if err != nil {
			b.Fatal(err)
		}
		reply, hop, err := onion.ServerHandshake(id, ch.Onionskin(), rnd)
		if err != nil {
			b.Fatal(err)
		}
		clientHop, err := ch.Complete(reply)
		if err != nil {
			b.Fatal(err)
		}
		cc.AddHop(clientHop)
		relays[i] = hop
	}
	rc := cell.RelayCell{Cmd: cell.RelayData, Stream: 1, Data: make([]byte, cell.RelayDataLen)}
	b.SetBytes(cell.PayloadLen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := rc.MarshalPayload()
		if err != nil {
			b.Fatal(err)
		}
		if err := cc.EncryptForward(2, &p); err != nil {
			b.Fatal(err)
		}
		relays[0].CryptForward(&p)
		_ = relays[0].VerifyForward(&p)
		relays[1].CryptForward(&p)
		_ = relays[1].VerifyForward(&p)
		relays[2].CryptForward(&p)
		if !relays[2].VerifyForward(&p) {
			b.Fatal("exit failed to recognize cell")
		}
	}
}

func BenchmarkModelProberSample(b *testing.B) {
	w, err := experiments.NewWorld(30, 16)
	if err != nil {
		b.Fatal(err)
	}
	p := w.Prober(17)
	path := []string{w.W, w.Names[0], w.Names[1], w.Z}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.SampleCircuit(context.Background(), path, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMeasurePair(b *testing.B) {
	w, err := experiments.NewWorld(30, 18)
	if err != nil {
		b.Fatal(err)
	}
	m, err := w.Measurer(200, 19)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.MeasurePair(context.Background(), w.Names[0], w.Names[1]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeanonInformedTrial(b *testing.B) {
	f11 := benchFig11(b)
	rng := rand.New(rand.NewSource(20))
	sc, err := deanon.NewScenario(f11.Matrix, nil, rng)
	if err != nil {
		b.Fatal(err)
	}
	strat := &deanon.Informed{UseMu: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = strat.Run(sc, rng)
	}
}

func BenchmarkTIVScan50Nodes(b *testing.B) {
	f11 := benchFig11(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pathsel.FindTIVs(f11.Matrix); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extension benchmarks: defenses (§5.1.3), future-work selection
// (§5.2.2/§6), and the King comparison (§2, §4.2) ---

func BenchmarkDefensePadding(b *testing.B) {
	f11 := benchFig11(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := deanon.PaddingSweep(f11.Matrix, []float64{0, 100}, 60, 21); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDefenseRandomLength(b *testing.B) {
	f11 := benchFig11(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := deanon.LengthDefense(f11.Matrix, 3, 5, 60, 22); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectionLowLatency(b *testing.B) {
	f11 := benchFig11(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Selection(f11, experiments.SelectionConfig{
			Lengths: []int{4}, Baseline3Hop: 1000, Select: 200, Seed: 23,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKingComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.KingComparison(experiments.KingConfig{
			Nodes: 10, Pairs: 40, Samples: 60, Seed: 24,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Half-circuit memoization and scan-scheduling benchmarks ---

// benchScanAllPairs runs a 20-node all-pairs scan over the model world —
// the end-to-end cost the half-circuit cache exists to cut. The memoized/
// unmemoized pair is the ~3× ablation: pairs+N vs 3·pairs circuit series.
func benchScanAllPairs(b *testing.B, disable bool) {
	w, err := experiments.NewWorld(20, 25)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := &ting.Scanner{
			NewMeasurer: func(worker int) (*ting.Measurer, error) {
				return w.Measurer(50, 26+int64(worker))
			},
			Workers:          4,
			DisableHalfCache: disable,
		}
		if _, _, err := sc.Scan(context.Background(), w.Names); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanAllPairsMemoized(b *testing.B) { benchScanAllPairs(b, false) }

func BenchmarkScanAllPairsNoMemo(b *testing.B) { benchScanAllPairs(b, true) }

func BenchmarkHalfCacheHit(b *testing.B) {
	c := ting.NewHalfCache(0)
	path := []string{"w", "x"}
	fn := func(context.Context) (float64, error) { return 1, nil }
	if _, err := c.Do(context.Background(), path, 200, nil, fn); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Do(context.Background(), path, 200, nil, fn); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Coordinate-embedding and budgeted-scan benchmarks ---

// BenchmarkScanBudgeted is the N² counterpart of BenchmarkScanAllPairsMemoized:
// same 20-node world, but a budget of 30 measured pairs (~15%) with the
// coordinate model filling in the rest. The ratchet guards the claim that it
// samples ≥4× fewer circuit series than the memoized all-pairs scan.
func BenchmarkScanBudgeted(b *testing.B) {
	w, err := experiments.NewWorld(20, 25)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := &ting.Scanner{
			NewMeasurer: func(worker int) (*ting.Measurer, error) {
				return w.Measurer(50, 26+int64(worker))
			},
			Workers: 4,
		}
		if _, _, err := sc.ScanBudget(context.Background(), w.Names, 30); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmbedFit times one full coordinate fit: 200 nodes, 15% of pairs
// observed, 10 passes — the per-batch refit cost inside a budgeted campaign.
func BenchmarkEmbedFit(b *testing.B) {
	const n = 200
	topo, err := inet.Generate(inet.Config{N: n, Seed: 31})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(32))
	all := n * (n - 1) / 2
	obs := make([]coords.Observation, 0, all*15/100)
	seen := make(map[[2]int]bool)
	for len(obs) < all*15/100 {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		if i > j {
			i, j = j, i
		}
		if seen[[2]int{i, j}] {
			continue
		}
		seen[[2]int{i, j}] = true
		obs = append(obs, coords.Observation{I: i, J: j, RTTMs: topo.RTT(inet.NodeID(i), inet.NodeID(j))})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := coords.New(n, coords.Config{Seed: 33})
		if err != nil {
			b.Fatal(err)
		}
		m.Fit(obs, 10)
	}
}
