package experiments

import (
	"testing"

	"ting/internal/stats"
)

func TestKingComparison(t *testing.T) {
	res, err := KingComparison(KingConfig{Nodes: 16, Pairs: 80, Samples: 100, Seed: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TingRatios) != 80 || len(res.KingRatios) != 80 {
		t.Fatalf("ratio counts %d, %d", len(res.TingRatios), len(res.KingRatios))
	}
	tw, kw := res.TingWithin10(), res.KingWithin10()
	km, err := res.KingMedianRatio()
	if err != nil {
		t.Fatal(err)
	}
	tm, _ := stats.Median(res.TingRatios)
	t.Logf("within10: ting %.3f vs king %.3f; medians: ting %.3f, king %.3f", tw, kw, tm, km)
	// §4.2: Ting's CDF is centered on 1 while King's skews left because
	// resolvers are better connected than the hosts they stand in for.
	if tw <= kw {
		t.Errorf("Ting (%.3f) should beat King (%.3f) at the 10%% band", tw, kw)
	}
	if km >= 1.0 {
		t.Errorf("King's median ratio %.3f not skewed below 1", km)
	}
	if tm < 0.95 || tm > 1.1 {
		t.Errorf("Ting's median ratio %.3f not centered on 1", tm)
	}
}

func TestDefensesExperiment(t *testing.T) {
	f11 := quickFig11(t)
	res, err := Defenses(f11, DefenseConfig{
		PaddingLevels: []float64{0, 150},
		Trials:        200,
		Seed:          41,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Padding) != 2 {
		t.Fatalf("%d padding points", len(res.Padding))
	}
	s0, s1 := res.Padding[0].Speedup(), res.Padding[1].Speedup()
	t.Logf("padding: speedup %.2fx → %.2fx at 150ms (cost %.0fms median)",
		s0, s1, res.Padding[1].MedianE2EOverheadMs)
	if s1 >= s0 {
		t.Errorf("padding did not reduce attacker advantage: %.2f → %.2f", s0, s1)
	}
	t.Logf("length defense: fixed rtt-order %.3f, randomized rtt-order %.3f (extra hops %.1f)",
		res.Fixed.MedianFracRTTOrder, res.Random.MedianFracRTTOrder, res.Random.MedianExtraHops)
	if res.Random.MedianFracRTTOrder <= res.Fixed.MedianFracRTTOrder {
		t.Error("randomized lengths did not slow the informed attacker")
	}
}

func TestSelectionExperiment(t *testing.T) {
	f11 := quickFig11(t)
	res, err := Selection(f11, SelectionConfig{
		Lengths:      []int{4},
		Baseline3Hop: 2000,
		Select:       300,
		Seed:         42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BudgetMs <= 0 {
		t.Fatal("no budget computed")
	}
	if len(res.Rows) != 1 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	row := res.Rows[0]
	t.Logf("budget %.0fms (3-hop median); 4-hop selection: %d circuits, median %.0fms, entropy %.3f",
		res.BudgetMs, row.Selected, row.MedianRTT, row.Entropy)
	if row.MedianRTT > res.BudgetMs {
		t.Errorf("selected circuits (median %.1f) exceed budget %.1f", row.MedianRTT, res.BudgetMs)
	}
	if row.Entropy < 0.8 {
		t.Errorf("selection entropy %.3f too low; anonymity collapsed", row.Entropy)
	}
	if row.Selected < 100 {
		t.Errorf("only %d qualifying 4-hop circuits found", row.Selected)
	}
}
