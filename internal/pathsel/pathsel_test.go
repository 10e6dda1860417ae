package pathsel

import (
	"math"
	"math/rand"
	"testing"

	"ting/internal/inet"
	"ting/internal/stats"
	"ting/internal/ting"
)

func worldMatrix(t testing.TB, n int, seed int64) *ting.Matrix {
	t.Helper()
	topo, err := inet.Generate(inet.Config{N: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, n)
	for i := range names {
		names[i] = topo.Node(inet.NodeID(i)).Name
	}
	m, err := ting.NewMatrix(names)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(names[i], names[j], topo.RTT(inet.NodeID(i), inet.NodeID(j)))
		}
	}
	return m
}

func TestFindTIVsHandCrafted(t *testing.T) {
	m, _ := ting.NewMatrix([]string{"a", "b", "c", "d"})
	// a—b direct 100; a—c 20, c—b 30 → detour 50: TIV with saving 50%.
	m.Set("a", "b", 100)
	m.Set("a", "c", 20)
	m.Set("c", "b", 30)
	// All other pairs metric (no TIVs through them).
	m.Set("a", "d", 200)
	m.Set("b", "d", 200)
	m.Set("c", "d", 195)

	tivs, err := FindTIVs(m)
	if err != nil {
		t.Fatal(err)
	}
	var ab *TIV
	for i := range tivs {
		if tivs[i].S == 0 && tivs[i].D == 1 {
			ab = &tivs[i]
		}
	}
	if ab == nil {
		t.Fatal("a—b TIV not found")
	}
	if ab.R != 2 || ab.DetourMs != 50 || ab.DirectMs != 100 {
		t.Errorf("TIV = %+v", ab)
	}
	if math.Abs(ab.SavingsFraction()-0.5) > 1e-12 {
		t.Errorf("savings = %v, want 0.5", ab.SavingsFraction())
	}
}

func TestFindTIVsNoneInMetricSpace(t *testing.T) {
	// A matrix derived from a metric (all pairs equal) has no TIVs.
	m, _ := ting.NewMatrix([]string{"a", "b", "c", "d"})
	for _, p := range [][2]string{{"a", "b"}, {"a", "c"}, {"a", "d"}, {"b", "c"}, {"b", "d"}, {"c", "d"}} {
		m.Set(p[0], p[1], 100)
	}
	tivs, err := FindTIVs(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(tivs) != 0 {
		t.Errorf("found %d TIVs in metric space", len(tivs))
	}
	if _, err := FindTIVs(nil); err == nil {
		t.Error("nil matrix accepted")
	}
}

func TestTIVDetourAlwaysBeatsDirect(t *testing.T) {
	m := worldMatrix(t, 40, 1)
	tivs, err := FindTIVs(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, tiv := range tivs {
		if tiv.DetourMs >= tiv.DirectMs {
			t.Fatalf("TIV %+v does not improve", tiv)
		}
		s := tiv.SavingsFraction()
		if s <= 0 || s >= 1 {
			t.Fatalf("savings %v out of (0,1)", s)
		}
	}
}

func TestTIVFractionMatchesPaper(t *testing.T) {
	// §5.2.1: 69% of pairs exhibit a TIV on the 50-node dataset. Our
	// synthetic Internet should put the fraction in the same regime.
	m := worldMatrix(t, 50, 2)
	sum, err := SummarizeTIVs(m)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Pairs != 50*49/2 {
		t.Errorf("pairs = %d", sum.Pairs)
	}
	frac := sum.FractionWithTIV()
	t.Logf("TIV fraction: %.3f (paper: 0.69)", frac)
	if frac < 0.45 || frac > 0.9 {
		t.Errorf("TIV fraction %.3f outside plausible band around 0.69", frac)
	}
	med, err := stats.Median(sum.Savings)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("median TIV saving: %.3f (paper: 0.075)", med)
	if med <= 0 || med > 0.5 {
		t.Errorf("median saving %.3f implausible", med)
	}
}

func TestTIVSummaryEmptyFraction(t *testing.T) {
	if (TIVSummary{}).FractionWithTIV() != 0 {
		t.Error("empty summary fraction should be 0")
	}
	tiv := TIV{DirectMs: 0, DetourMs: 0}
	if tiv.SavingsFraction() != 0 {
		t.Error("zero-direct TIV saving should be 0")
	}
}

func TestSampleCircuits(t *testing.T) {
	m := worldMatrix(t, 20, 3)
	rng := rand.New(rand.NewSource(4))
	circs, err := SampleCircuits(m, 5, 500, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(circs) != 500 {
		t.Fatalf("%d circuits", len(circs))
	}
	for _, c := range circs {
		if len(c.Hops) != 5 {
			t.Fatalf("circuit has %d hops", len(c.Hops))
		}
		seen := map[int]bool{}
		var want float64
		for i, h := range c.Hops {
			if seen[h] {
				t.Fatalf("repeated hop in %v", c.Hops)
			}
			seen[h] = true
			if i > 0 {
				want += m.At(c.Hops[i-1], h)
			}
		}
		if math.Abs(c.RTTms-want) > 1e-9 {
			t.Fatalf("RTT %v != hop sum %v", c.RTTms, want)
		}
	}
}

func TestSampleCircuitsValidation(t *testing.T) {
	m := worldMatrix(t, 10, 5)
	rng := rand.New(rand.NewSource(6))
	if _, err := SampleCircuits(nil, 3, 10, rng); err == nil {
		t.Error("nil matrix accepted")
	}
	if _, err := SampleCircuits(m, 1, 10, rng); err == nil {
		t.Error("length 1 accepted")
	}
	if _, err := SampleCircuits(m, 11, 10, rng); err == nil {
		t.Error("length > n accepted")
	}
	if _, err := SampleCircuits(m, 3, 0, rng); err == nil {
		t.Error("zero count accepted")
	}
}

func TestSampleCircuitsUniformCoverage(t *testing.T) {
	// Every node should appear with roughly equal frequency.
	m := worldMatrix(t, 10, 7)
	rng := rand.New(rand.NewSource(8))
	circs, err := SampleCircuits(m, 3, 6000, rng)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 10)
	for _, c := range circs {
		for _, h := range c.Hops {
			counts[h]++
		}
	}
	want := 6000.0 * 3 / 10
	for i, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.1 {
			t.Errorf("node %d appeared %d times, want ≈ %.0f", i, c, want)
		}
	}
}

func TestAnalyzeLengths(t *testing.T) {
	m := worldMatrix(t, 30, 9)
	lengths := []int{3, 5, 8}
	res, err := AnalyzeLengths(m, lengths, 2000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("%d results", len(res))
	}
	for i, lh := range res {
		if lh.Length != lengths[i] {
			t.Errorf("length order wrong: %d", lh.Length)
		}
		// Total scaled count must equal C(30, l).
		want := stats.Choose(30, lh.Length)
		if math.Abs(lh.Hist.Total()-want)/want > 1e-9 {
			t.Errorf("length %d: total %.3g, want C(30,%d)=%.3g",
				lh.Length, lh.Hist.Total(), lh.Length, want)
		}
		if len(lh.NodeProb) != len(lh.Hist.Counts) {
			t.Errorf("length %d: NodeProb has %d bins, hist %d",
				lh.Length, len(lh.NodeProb), len(lh.Hist.Counts))
		}
		for b, p := range lh.NodeProb {
			if p < 0 || p > 1 {
				t.Errorf("length %d bin %d: probability %v", lh.Length, b, p)
			}
		}
	}
	// Longer circuits reach higher max RTTs (Figure 16's fan-out).
	if len(res[2].Hist.Counts) <= len(res[0].Hist.Counts) {
		t.Error("8-hop histogram does not extend past 3-hop histogram")
	}
	if _, err := AnalyzeLengths(m, nil, 100, 1); err == nil {
		t.Error("empty lengths accepted")
	}
}

func TestLongerCircuitsOfferMoreChoices(t *testing.T) {
	// §5.2.2: in the 200–300ms band there are an order of magnitude more
	// 4-hop than 3-hop circuits (after C(n,l) scaling).
	m := worldMatrix(t, 50, 11)
	res, err := AnalyzeLengths(m, []int{3, 4}, 8000, 12)
	if err != nil {
		t.Fatal(err)
	}
	c3 := res[0].CircuitsWithin(200, 300)
	c4 := res[1].CircuitsWithin(200, 300)
	t.Logf("circuits in 200–300ms: 3-hop %.3g, 4-hop %.3g (ratio %.1f)", c3, c4, c4/c3)
	if c3 <= 0 {
		t.Skip("no 3-hop circuits in band for this seed")
	}
	if c4 < 3*c3 {
		t.Errorf("4-hop choices (%.3g) not ≫ 3-hop (%.3g)", c4, c3)
	}
}

func TestNodeProbEntropicMiddle(t *testing.T) {
	// Figure 17: per-length membership probability peaks at intermediate
	// RTTs and collapses at the extremes.
	m := worldMatrix(t, 30, 13)
	res, err := AnalyzeLengths(m, []int{4}, 8000, 14)
	if err != nil {
		t.Fatal(err)
	}
	probs := res[0].NodeProb
	var peak float64
	peakBin := 0
	for b, p := range probs {
		if p > peak {
			peak = p
			peakBin = b
		}
	}
	if peak <= 0 {
		t.Fatal("no positive probabilities")
	}
	if peakBin == 0 || peakBin == len(probs)-1 {
		t.Errorf("peak at extreme bin %d of %d", peakBin, len(probs))
	}
	if probs[len(probs)-1] >= peak/2 {
		t.Errorf("tail probability %.4g not well below peak %.4g", probs[len(probs)-1], peak)
	}
}

// TestFindTIVsPredictedCells pins the completed-matrix contract: a
// predicted *witness* leg can never manufacture a detour, while a
// predicted *direct* leg only flags the violation as a candidate.
func TestFindTIVsPredictedCells(t *testing.T) {
	build := func() *ting.Matrix {
		m, _ := ting.NewMatrix([]string{"a", "b", "c", "d"})
		// a—b direct 100; detour a—c—b = 50.
		m.Set("a", "b", 100)
		m.Set("a", "c", 20)
		m.Set("c", "b", 30)
		m.Set("a", "d", 200)
		m.Set("b", "d", 200)
		m.Set("c", "d", 195)
		for _, p := range [][2]string{{"a", "b"}, {"a", "c"}, {"c", "b"}, {"a", "d"}, {"b", "d"}, {"c", "d"}} {
			m.SetProv(p[0], p[1], ting.ProvFresh)
		}
		return m
	}
	find := func(m *ting.Matrix) *TIV {
		t.Helper()
		tivs, err := FindTIVs(m)
		if err != nil {
			t.Fatal(err)
		}
		for i := range tivs {
			if tivs[i].S == 0 && tivs[i].D == 1 {
				return &tivs[i]
			}
		}
		return nil
	}

	// Fully measured: the a—b TIV exists unflagged.
	if tiv := find(build()); tiv == nil || tiv.Predicted {
		t.Fatalf("measured-world TIV = %+v, want unflagged detour", tiv)
	}

	// Predicted witness leg (a—c): the detour's evidence is a model guess,
	// so the candidate disappears entirely.
	m := build()
	if err := m.SetPredicted("a", "c", 20, 0.9); err != nil {
		t.Fatal(err)
	}
	if tiv := find(m); tiv != nil {
		t.Errorf("TIV %+v reported via predicted witness leg", tiv)
	}

	// The other witness leg (c—b) predicted: same exclusion.
	m = build()
	if err := m.SetPredicted("c", "b", 30, 0.9); err != nil {
		t.Fatal(err)
	}
	if tiv := find(m); tiv != nil {
		t.Errorf("TIV %+v reported via predicted witness leg c—b", tiv)
	}

	// Predicted direct leg: measured witnesses, so the violation is real
	// evidence — reported, but flagged.
	m = build()
	if err := m.SetPredicted("a", "b", 100, 0.9); err != nil {
		t.Fatal(err)
	}
	tiv := find(m)
	if tiv == nil || !tiv.Predicted {
		t.Fatalf("predicted-direct TIV = %+v, want flagged candidate", tiv)
	}
	if tiv.R != 2 || tiv.DetourMs != 50 {
		t.Errorf("flagged TIV = %+v, want detour via c at 50ms", tiv)
	}
}

// findTIVsByColumn is FindTIVs as it read the detour's second leg before
// it walked rows: rtt[r][d] and pred[r][d], a column of each.
// TestFindTIVsRowsMatchColumns holds FindTIVs to it.
func findTIVsByColumn(m ting.MatrixView) []TIV {
	n := m.N()
	rtt := m.Dense()
	pred := make([][]bool, n)
	for s := range pred {
		pred[s] = make([]bool, n)
		for d := range pred[s] {
			pred[s][d] = s != d && m.ProvAt(s, d) == ting.ProvPredicted
		}
	}
	var out []TIV
	for s := 0; s < n; s++ {
		for d := s + 1; d < n; d++ {
			best := TIV{S: s, D: d, R: -1, DirectMs: rtt[s][d], DetourMs: rtt[s][d], Predicted: pred[s][d]}
			for r := 0; r < n; r++ {
				if r == s || r == d || pred[s][r] || pred[r][d] {
					continue
				}
				if detour := rtt[s][r] + rtt[r][d]; detour < best.DetourMs {
					best.DetourMs, best.R = detour, r
				}
			}
			if best.R >= 0 {
				out = append(out, best)
			}
		}
	}
	return out
}

// TestFindTIVsRowsMatchColumns: FindTIVs, which reads the detour's second
// leg along a row, reports exactly the TIVs of the column-reading loop —
// the same pairs in the same order, the same detour relay where two tie,
// and the same flags — on three worlds of each size, fully measured and
// with a tenth of the pairs predicted. The race detector slows both loops
// tenfold and has no goroutines to watch, so under it the 500-relay worlds
// are skipped.
func TestFindTIVsRowsMatchColumns(t *testing.T) {
	sizes := []int{20, 200, 500}
	if raceEnabled {
		sizes = sizes[:2]
	}
	for _, n := range sizes {
		for seed := int64(1); seed <= 3; seed++ {
			m := worldMatrix(t, n, seed)
			// Whole-millisecond RTTs make ties among detours common.
			names := m.Names()
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					m.Set(names[i], names[j], math.Round(m.At(i, j)))
				}
			}
			for _, predicted := range []bool{false, true} {
				if predicted {
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < n; i++ {
						for j := i + 1; j < n; j++ {
							if rng.Intn(10) == 0 {
								if err := m.SetPredicted(names[i], names[j], math.Round(m.At(i, j)*(0.5+rng.Float64())), 0.5); err != nil {
									t.Fatal(err)
								}
							}
						}
					}
				}
				got, err := FindTIVs(m)
				if err != nil {
					t.Fatal(err)
				}
				want := findTIVsByColumn(m)
				if len(got) != len(want) {
					t.Fatalf("n=%d seed=%d predicted=%v: %d TIVs, the column loop finds %d", n, seed, predicted, len(got), len(want))
				}
				for k := range got {
					if got[k] != want[k] {
						t.Fatalf("n=%d seed=%d predicted=%v: TIV %d is %+v, the column loop's %+v", n, seed, predicted, k, got[k], want[k])
					}
				}
			}
		}
	}
}
