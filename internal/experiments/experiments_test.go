package experiments

import (
	"math"
	"testing"

	"ting/internal/stats"
)

// Quick-scale configs keep the test suite fast; the CLI and benches run
// paper scale.

func quickFig3() Fig3Config {
	return Fig3Config{Nodes: 12, Samples: 150, PingSamples: 40, Seed: 1}
}

func TestFig3Validation(t *testing.T) {
	res, err := Fig3(quickFig3())
	if err != nil {
		t.Fatal(err)
	}
	wantPairs := 12 * 11 / 2
	if len(res.Pairs) != wantPairs {
		t.Fatalf("%d pairs, want %d", len(res.Pairs), wantPairs)
	}
	w10 := res.Within(0.1)
	t.Logf("within 10%%: %.3f (paper: 0.91)", w10)
	if w10 < 0.7 {
		t.Errorf("within-10%% = %.3f, want the large majority", w10)
	}
	if over30 := 1 - res.Within(0.3); over30 > 0.1 {
		t.Errorf("errors over 30%% = %.3f, want rare", over30)
	}
	sp, err := res.Spearman()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("spearman: %.4f (paper: 0.997)", sp)
	if sp < 0.98 {
		t.Errorf("spearman = %.4f, want ≈ 0.997", sp)
	}
	// Estimates are unbiased enough that the ratio CDF straddles 1.
	med, _ := stats.Median(res.Ratios())
	if med < 0.9 || med > 1.15 {
		t.Errorf("median ratio %.3f, want ≈ 1", med)
	}
}

func TestFig3Ordered(t *testing.T) {
	cfg := quickFig3()
	cfg.Nodes = 6
	cfg.Ordered = true
	res, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 6*5 {
		t.Errorf("%d ordered pairs, want 30", len(res.Pairs))
	}
}

func TestFig4Regimes(t *testing.T) {
	res, err := Fig3(quickFig3())
	if err != nil {
		t.Fatal(err)
	}
	buckets := Fig4(res)
	if len(buckets) != 4 {
		t.Fatalf("%d buckets", len(buckets))
	}
	total := 0
	for _, b := range buckets {
		total += len(b.Ratios)
	}
	if total != len(res.Pairs) {
		t.Errorf("buckets hold %d pairs, want %d", total, len(res.Pairs))
	}
	// The paper: accuracy improves with RTT; the >250ms bucket is nearly
	// perfect while <50ms holds most outliers. Require the high bucket to
	// be at least as accurate as the low one when both are populated.
	lo, hi := buckets[0], buckets[3]
	if len(lo.Ratios) > 3 && len(hi.Ratios) > 3 && hi.Within10 < lo.Within10-0.05 {
		t.Errorf("high-RTT bucket (%.3f) less accurate than low (%.3f)", hi.Within10, lo.Within10)
	}
}

func TestFig5ForwardingDelays(t *testing.T) {
	res, err := Fig5(Fig5Config{Nodes: 16, Rounds: 6, CircuitSamples: 150, PingSamples: 40, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hosts) != 16 {
		t.Fatalf("%d hosts", len(res.Hosts))
	}
	frac := res.AbnormalFraction()
	t.Logf("abnormal fraction: %.3f (paper: ~0.35)", frac)
	if frac < 0.1 || frac > 0.6 {
		t.Errorf("abnormal fraction %.3f far from paper's ~35%%", frac)
	}
	// Sorted by ICMP median.
	for i := 1; i < len(res.Hosts); i++ {
		if res.Hosts[i].ICMP.Median < res.Hosts[i-1].ICMP.Median {
			t.Fatal("hosts not sorted by ICMP median")
		}
	}
	// Normal (unbiased) hosts should show small positive medians (~0–3ms
	// total over both traversals).
	for _, h := range res.Hosts {
		if !h.Biased && (h.ICMP.Median < -1.5 || h.ICMP.Median > 6) {
			t.Errorf("unbiased host %s has ICMP median %.2f", h.Name, h.ICMP.Median)
		}
	}
	// Biased hosts dominate the abnormal set.
	misattributed := 0
	for _, h := range res.Hosts {
		if h.Abnormal() != h.Biased {
			misattributed++
		}
	}
	if misattributed > len(res.Hosts)/3 {
		t.Errorf("%d of %d hosts misattributed", misattributed, len(res.Hosts))
	}
}

func TestFig6Convergence(t *testing.T) {
	res, err := Fig6(Fig6Config{WorldNodes: 30, Pairs: 40, Samples: 400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 40 {
		t.Fatalf("%d pairs", len(res.Pairs))
	}
	for _, p := range res.Pairs {
		if p.ToMin < 1 || p.ToMin > 400 {
			t.Fatalf("ToMin %d out of range", p.ToMin)
		}
		// Looser thresholds must be reached no later than tighter ones.
		if p.Within10pct > p.Within5pct || p.Within5pct > p.Within1pct || p.Within1pct > p.ToMin {
			t.Fatalf("threshold ordering violated: %+v", p)
		}
		if p.Within1ms > p.ToMin {
			t.Fatalf("1ms threshold after true min: %+v", p)
		}
	}
	mins, err := res.Series("min")
	if err != nil {
		t.Fatal(err)
	}
	med1ms, _ := res.Series("1ms")
	medMin, _ := stats.Median(mins)
	med1, _ := stats.Median(med1ms)
	t.Logf("median samples: to min %.0f, to within 1ms %.0f (paper: ~25x gap)", medMin, med1)
	// The paper's key observation: near-minimum arrives far earlier than
	// the true minimum.
	if med1 > medMin/2 {
		t.Errorf("within-1ms median %.0f not well below to-min median %.0f", med1, medMin)
	}
	if _, err := res.Series("nonsense"); err == nil {
		t.Error("unknown series accepted")
	}
}

func TestFig7SampleCounts(t *testing.T) {
	cfg := quickFig3()
	cfg.Nodes = 10
	res, err := Fig7(cfg, 50, 250)
	if err != nil {
		t.Fatal(err)
	}
	if res.SamplesA != 50 || res.SamplesB != 250 {
		t.Errorf("sample counts %d, %d", res.SamplesA, res.SamplesB)
	}
	wA, wB := res.A.Within(0.1), res.B.Within(0.1)
	t.Logf("within10: %d samples %.3f, %d samples %.3f", res.SamplesA, wA, res.SamplesB, wB)
	// The paper's point: the two CDFs are nearly identical.
	if math.Abs(wA-wB) > 0.15 {
		t.Errorf("sample counts diverge too much: %.3f vs %.3f", wA, wB)
	}
}

func TestFig8DistanceLatency(t *testing.T) {
	res, err := Fig8(Fig8Config{WorldNodes: 120, Pairs: 500, Samples: 60, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 500 {
		t.Fatalf("%d points", len(res.Points))
	}
	if res.Fit.Slope <= 0 {
		t.Errorf("fit slope %.4f, want positive distance-latency relation", res.Fit.Slope)
	}
	// Our fit measures minimum latencies; it must sit below the Htrae
	// (median-latency) line through the plotted range, as in the paper.
	for _, km := range []float64{2000, 8000, 15000} {
		if res.Fit.Eval(km) >= HtraeFit.Eval(km) {
			t.Errorf("our fit at %.0fkm (%.1fms) not below Htrae (%.1fms)",
				km, res.Fit.Eval(km), HtraeFit.Eval(km))
		}
	}
	below, explained := res.BelowLightSpeedStats()
	t.Logf("below (2/3)c: %d points, %d explained by geolocation error", below, explained)
	if below > 0 && explained == 0 {
		t.Error("impossible points exist but none trace to geolocation error")
	}
	// Honest points never beat light.
	for _, p := range res.Points {
		if !p.GeoError && p.BelowLightSpeed() {
			t.Errorf("clean pair (%s,%s) below light speed", p.X, p.Y)
		}
	}
	if _, err := res.DistanceCDF(); err != nil {
		t.Error(err)
	}
	if _, err := res.RTTCDF(); err != nil {
		t.Error(err)
	}
}

func TestFig9Stability(t *testing.T) {
	res, err := Fig9(Fig9Config{WorldNodes: 40, PairCount: 12, Hours: 30, Samples: 80, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 12 {
		t.Fatalf("%d pairs", len(res.Pairs))
	}
	frac := res.FractionBelow(0.5)
	t.Logf("fraction with cv<0.5: %.3f (paper: 0.967)", frac)
	if frac < 0.8 {
		t.Errorf("only %.3f of pairs stable; Ting should be stable over time", frac)
	}
	for _, p := range res.Pairs {
		if len(p.RTTs) != 30 {
			t.Fatalf("pair %s-%s has %d hours", p.X, p.Y, len(p.RTTs))
		}
		if p.CV < 0 {
			t.Fatalf("negative cv")
		}
	}
	ordered := Fig10(res)
	for i := 1; i < len(ordered); i++ {
		if ordered[i].Box.Median < ordered[i-1].Box.Median {
			t.Fatal("Fig10 not ordered by median")
		}
	}
}

func quickFig11(t *testing.T) *Fig11Result {
	t.Helper()
	res, err := Fig11(Fig11Config{Nodes: 25, Samples: 60, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFig11AllPairs(t *testing.T) {
	res := quickFig11(t)
	if res.Matrix.N() != 25 {
		t.Fatalf("matrix over %d nodes", res.Matrix.N())
	}
	cdf, err := res.RTTCDF()
	if err != nil {
		t.Fatal(err)
	}
	if xs, _ := cdf.Points(); len(xs) != 25*24/2 {
		t.Errorf("CDF over %d pairs", len(xs))
	}
	// Every measured value is positive and sane.
	for _, v := range res.Matrix.PairValues() {
		if v <= 0 || v > 2000 {
			t.Fatalf("measured RTT %v", v)
		}
	}
	weights := res.Weights()
	if len(weights) != 25 {
		t.Fatalf("%d weights", len(weights))
	}
	for _, w := range weights {
		if w <= 0 {
			t.Fatal("non-positive weight")
		}
	}
}

func TestFig12Deanonymization(t *testing.T) {
	f11 := quickFig11(t)
	res, err := Fig12(f11, Fig12Config{Trials: 150, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Strategies) != 3 {
		t.Fatalf("%d strategies", len(res.Strategies))
	}
	mu, mi, minf := res.Medians["rtt-unaware"], res.Medians["ignore-too-large"], res.Medians["informed"]
	t.Logf("medians: unaware=%.3f ignore=%.3f informed=%.3f (paper: 0.72/0.62/0.48)", mu, mi, minf)
	if !(minf < mi && mi < mu) {
		t.Errorf("strategy ordering violated: %.3f / %.3f / %.3f", mu, mi, minf)
	}
	sp, err := res.Speedup()
	if err != nil {
		t.Fatal(err)
	}
	if sp < 1.1 {
		t.Errorf("speedup %.2f×, want > 1.1 (paper: 1.5×)", sp)
	}
	if _, err := res.CDF("informed"); err != nil {
		t.Error(err)
	}

	pts := Fig13(res)
	if len(pts) != 150 {
		t.Fatalf("%d fig13 points", len(pts))
	}
	// Correlation between E2E and fraction ruled out must be negative.
	var e2e, ruled []float64
	for _, p := range pts {
		e2e = append(e2e, p.E2EMs)
		ruled = append(ruled, p.FracRuledOut)
	}
	r, err := stats.Pearson(e2e, ruled)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("fig13 correlation: %.3f", r)
	if r >= 0 {
		t.Errorf("E2E vs ruled-out correlation %.3f, want negative", r)
	}
}

func TestFig12Weighted(t *testing.T) {
	f11 := quickFig11(t)
	res, err := Fig12(f11, Fig12Config{Trials: 100, Seed: 8, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Strategies) != 2 {
		t.Fatalf("%d strategies", len(res.Strategies))
	}
	if _, ok := res.Medians["weight-ordered"]; !ok {
		t.Error("weight-ordered baseline missing")
	}
	if _, ok := res.Medians["informed-weighted"]; !ok {
		t.Error("informed-weighted missing")
	}
}

func TestFig14TIVs(t *testing.T) {
	f11 := quickFig11(t)
	res, err := Fig14(f11)
	if err != nil {
		t.Fatal(err)
	}
	frac := res.Summary.FractionWithTIV()
	t.Logf("TIV fraction: %.3f (paper: 0.69)", frac)
	if frac < 0.3 {
		t.Errorf("TIV fraction %.3f too low", frac)
	}
	pts := Fig15(res)
	if len(pts) != len(res.TIVs) {
		t.Fatalf("fig15 has %d points for %d TIVs", len(pts), len(res.TIVs))
	}
	for _, p := range pts {
		if p.DetourMs >= p.DirectMs {
			t.Fatal("fig15 point above the diagonal")
		}
	}
}

func TestFig16LongerCircuits(t *testing.T) {
	f11 := quickFig11(t)
	res, err := Fig16(f11, Fig16Config{Lengths: []int{3, 4, 6}, Samples: 3000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Lengths) != 3 {
		t.Fatalf("%d lengths", len(res.Lengths))
	}
	// Longer circuits reach higher RTTs and (with C(n,l) scaling) far
	// higher counts.
	if res.Lengths[2].Hist.Total() <= res.Lengths[0].Hist.Total() {
		t.Error("6-hop scaled population not larger than 3-hop")
	}
}

func TestFig18Coverage(t *testing.T) {
	res, err := Fig18(Fig18Config{Days: 20, Relays: 2000, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 20 {
		t.Fatalf("%d points", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Unique24s <= 0 || p.Unique24s >= p.Relays {
			t.Fatalf("point %+v implausible", p)
		}
	}
	frac := res.Classes.ResidentialFractionOfNamed()
	if frac < 0.5 || frac > 0.72 {
		t.Errorf("residential fraction %.3f, want ≈ 0.61", frac)
	}
}

func TestAblationAggregator(t *testing.T) {
	res, err := AblationAggregator(AblationConfig{Nodes: 14, Pairs: 40, Samples: 150, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AggregatorResult{}
	for _, r := range res {
		byName[r.Name] = r
	}
	t.Logf("aggregators: min=%.3f median=%.3f mean=%.3f (within 10%%)",
		byName["min"].Within10, byName["median"].Within10, byName["mean"].Within10)
	if byName["min"].Within10 < byName["mean"].Within10 {
		t.Errorf("min (%.3f) should beat mean (%.3f)", byName["min"].Within10, byName["mean"].Within10)
	}
	if byName["min"].MedianAbsErrPct > byName["median"].MedianAbsErrPct {
		t.Errorf("min error %.2f%% worse than median %.2f%%",
			byName["min"].MedianAbsErrPct, byName["median"].MedianAbsErrPct)
	}
}

func TestAblationStrawman(t *testing.T) {
	res, err := AblationStrawman(AblationConfig{Nodes: 20, Pairs: 60, Samples: 150, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("within10: ting=%.3f strawman=%.3f on-biased=%.3f on-clean=%.3f",
		res.TingWithin10, res.StrawmanWithin10, res.BiasedStrawmanWithin10, res.CleanStrawmanWithin10)
	if res.TingWithin10 <= res.StrawmanWithin10 {
		t.Errorf("Ting (%.3f) should beat the strawman (%.3f)", res.TingWithin10, res.StrawmanWithin10)
	}
	// Both §3.2 flaws hurt the strawman: unaccounted forwarding delays on
	// every pair (why even clean pairs trail Ting) and protocol bias on
	// biased pairs. At quick scale the biased subset is small, so only
	// sanity-check it against the clean subset.
	if res.BiasedStrawmanWithin10 > res.CleanStrawmanWithin10+0.1 {
		t.Errorf("biased pairs implausibly more accurate: biased %.3f vs clean %.3f",
			res.BiasedStrawmanWithin10, res.CleanStrawmanWithin10)
	}
}

func TestAblationSamples(t *testing.T) {
	res, err := AblationSamples(AblationConfig{Nodes: 14, Pairs: 30, Seed: 13}, []int{10, 100, 400})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("%d points", len(res))
	}
	t.Logf("samples sweep: %+v", res)
	// More samples must not be materially worse.
	if res[2].Within10 < res[0].Within10-0.1 {
		t.Errorf("400 samples (%.3f) materially worse than 10 (%.3f)", res[2].Within10, res[0].Within10)
	}
}

func TestAblationMu(t *testing.T) {
	f11 := quickFig11(t)
	res, err := AblationMu(f11, 120, 14)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("mu ablation: with=%.3f without=%.3f", res.WithMu, res.WithoutMu)
	if res.WithMu <= 0 || res.WithoutMu <= 0 {
		t.Error("degenerate medians")
	}
}

func TestHeadlines(t *testing.T) {
	f3, err := Fig3(quickFig3())
	if err != nil {
		t.Fatal(err)
	}
	f11 := quickFig11(t)
	f12, err := Fig12(f11, Fig12Config{Trials: 100, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	f14, err := Fig14(f11)
	if err != nil {
		t.Fatal(err)
	}
	f18, err := Fig18(Fig18Config{Days: 5, Relays: 2000, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	h, err := ComputeHeadlines(f3, f12, f14, f18)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(h.String())
	if h.Spearman < 0.95 || h.DeanonSpeedup < 1 || h.TIVFraction <= 0 {
		t.Errorf("headlines implausible: %+v", h)
	}
}

func TestWorldHelpers(t *testing.T) {
	w, err := NewWorld(5, 17)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.TrueRTT("ghost", w.Names[0]); err == nil {
		t.Error("ghost relay accepted")
	}
	if _, err := w.TrueRTT(w.Names[0], "ghost"); err == nil {
		t.Error("ghost relay accepted")
	}
	rtt, err := w.TrueRTT(w.Names[0], w.Names[1])
	if err != nil || rtt <= 0 {
		t.Errorf("TrueRTT = %v, %v", rtt, err)
	}
	if _, err := NewWorld(0, 1); err == nil {
		t.Error("empty world accepted")
	}
}
