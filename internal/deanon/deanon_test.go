package deanon

import (
	"fmt"
	"math/rand"
	"testing"

	"ting/internal/inet"
	"ting/internal/ting"
)

// worldMatrix builds a 50-node matrix from the synthetic Internet, the
// shape of the paper's §5 dataset (Figure 11).
func worldMatrix(t testing.TB, n int, seed int64) (*ting.Matrix, []float64) {
	t.Helper()
	topo, err := inet.Generate(inet.Config{N: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, n)
	weights := make([]float64, n)
	for i := 0; i < n; i++ {
		names[i] = topo.Node(inet.NodeID(i)).Name
		weights[i] = topo.Node(inet.NodeID(i)).BandwidthKBps
	}
	m, err := ting.NewMatrix(names)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if err := m.Set(names[i], names[j], topo.RTT(inet.NodeID(i), inet.NodeID(j))); err != nil {
				t.Fatal(err)
			}
		}
	}
	return m, weights
}

func TestNewScenario(t *testing.T) {
	m, _ := worldMatrix(t, 20, 1)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		sc, err := NewScenario(m, nil, rng)
		if err != nil {
			t.Fatal(err)
		}
		c := sc.circ
		ids := []int{c.Source, c.Entry, c.Middle, c.Exit}
		seen := map[int]bool{}
		for _, id := range ids {
			if id < 0 || id >= 20 {
				t.Fatalf("node id %d out of range", id)
			}
			if seen[id] {
				t.Fatalf("repeated node in circuit %+v", c)
			}
			seen[id] = true
		}
		if sc.E2E <= 0 || sc.AttackerExitRTT <= 0 {
			t.Fatalf("degenerate scenario: %+v", sc)
		}
		// E2E must equal the path sum.
		want := m.At(c.Source, c.Entry) + m.At(c.Entry, c.Middle) + m.At(c.Middle, c.Exit) + sc.AttackerExitRTT
		if sc.E2E != want {
			t.Fatalf("E2E %v != path sum %v", sc.E2E, want)
		}
		if !sc.Probe(c.Entry) || !sc.Probe(c.Middle) {
			t.Fatal("oracle misses circuit members")
		}
		if sc.Probe(c.Exit) || sc.Probe(c.Source) {
			t.Fatal("oracle false positive")
		}
	}
	small, _ := worldMatrix(t, 4, 3)
	if _, err := NewScenario(small, nil, rng); err == nil {
		t.Error("tiny matrix accepted")
	}
	if _, err := NewScenario(m, []float64{1}, rng); err == nil {
		t.Error("mismatched weights accepted")
	}
}

func strategies() []Strategy {
	return []Strategy{&RTTUnaware{}, IgnoreTooLarge{}, &Informed{UseMu: true}}
}

func TestAllStrategiesAlwaysSucceed(t *testing.T) {
	// The pruning rules are conservative: the true entry and middle must
	// never be ruled out, so every strategy finds both on every run.
	m, _ := worldMatrix(t, 30, 4)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 60; i++ {
		sc, err := NewScenario(m, nil, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range strategies() {
			res := s.Run(sc, rng)
			if res.Found != 2 {
				t.Fatalf("trial %d: strategy %s found %d members (probes=%d)",
					i, s.Name(), res.Found, res.Probes)
			}
			if res.Probes < 2 {
				t.Fatalf("strategy %s claims success with %d probes", s.Name(), res.Probes)
			}
			if res.Probes > res.Candidates {
				t.Fatalf("strategy %s probed %d of %d candidates", s.Name(), res.Probes, res.Candidates)
			}
		}
	}
}

func TestStrategyOrderingMatchesPaper(t *testing.T) {
	// §5.1.2: medians of fraction probed should order
	// unaware > ignore-too-large > informed, with unaware around 2/3 and a
	// noticeable informed speedup.
	m, _ := worldMatrix(t, 50, 6)
	sim := &Simulation{Matrix: m, Strategies: strategies(), Seed: 7}
	trials, err := sim.Run(300)
	if err != nil {
		t.Fatal(err)
	}
	unaware, err := MedianFracTested(trials, "rtt-unaware")
	if err != nil {
		t.Fatal(err)
	}
	ignore, err := MedianFracTested(trials, "ignore-too-large")
	if err != nil {
		t.Fatal(err)
	}
	informed, err := MedianFracTested(trials, "informed")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("medians: unaware=%.3f ignore=%.3f informed=%.3f", unaware, ignore, informed)
	if unaware < 0.55 || unaware > 0.85 {
		t.Errorf("unaware median %.3f, want ≈ 0.72", unaware)
	}
	if ignore >= unaware {
		t.Errorf("ignore-too-large (%.3f) not better than unaware (%.3f)", ignore, unaware)
	}
	if informed >= ignore {
		t.Errorf("informed (%.3f) not better than ignore (%.3f)", informed, ignore)
	}
	speedup, err := Speedup(trials, "rtt-unaware", "informed")
	if err != nil {
		t.Fatal(err)
	}
	if speedup < 1.2 {
		t.Errorf("informed speedup %.2f×, want ≥ 1.2 (paper: 1.5×)", speedup)
	}
}

func TestWeightedVariants(t *testing.T) {
	m, weights := worldMatrix(t, 40, 8)
	sim := &Simulation{
		Matrix:     m,
		Strategies: []Strategy{&RTTUnaware{Weights: weights}, &Informed{UseMu: true, Weights: weights}, &Informed{UseMu: true}},
		Weights:    weights,
		Seed:       9,
	}
	trials, err := sim.Run(200)
	if err != nil {
		t.Fatal(err)
	}
	speedup, err := Speedup(trials, "weight-ordered", "informed-weighted")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("weighted speedup: %.2f×", speedup)
	// The paper reports 2× here; under our synthetic topology's strongly
	// clustered bandwidths the weight-ordered baseline is already
	// near-optimal, so we assert non-regression and record the difference
	// in EXPERIMENTS.md.
	if speedup < 0.9 {
		t.Errorf("informed-weighted materially worse than weight-ordered: %.2f×", speedup)
	}
	// Under weighted circuits, weight-aware probing must crush the
	// weight-blind informed strategy.
	blind, err := MedianFracTested(trials, "informed")
	if err != nil {
		t.Fatal(err)
	}
	aware, err := MedianFracTested(trials, "informed-weighted")
	if err != nil {
		t.Fatal(err)
	}
	if aware >= blind {
		t.Errorf("informed-weighted (%.3f) not better than weight-blind informed (%.3f)", aware, blind)
	}
}

func TestRuledOutCorrelatesWithE2E(t *testing.T) {
	// Figure 13: low-RTT circuits allow ruling out many relays; the very
	// highest-RTT circuits allow almost none.
	m, _ := worldMatrix(t, 50, 10)
	sim := &Simulation{Matrix: m, Strategies: []Strategy{IgnoreTooLarge{}}, Seed: 11}
	trials, err := sim.Run(400)
	if err != nil {
		t.Fatal(err)
	}
	var lowE2E, highE2E []float64
	for _, tr := range trials {
		if tr.E2E < 300 {
			lowE2E = append(lowE2E, tr.FracRuledOut)
		}
		if tr.E2E > 700 {
			highE2E = append(highE2E, tr.FracRuledOut)
		}
	}
	if len(lowE2E) == 0 || len(highE2E) == 0 {
		t.Skip("seed produced no trials in the extreme E2E buckets")
	}
	mean := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if mean(lowE2E) <= mean(highE2E) {
		t.Errorf("ruled-out fraction: low-E2E %.3f ≤ high-E2E %.3f; want negative correlation",
			mean(lowE2E), mean(highE2E))
	}
}

func TestRulesNeverPruneTruth(t *testing.T) {
	m, _ := worldMatrix(t, 30, 12)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 100; i++ {
		sc, err := NewScenario(m, nil, rng)
		if err != nil {
			t.Fatal(err)
		}
		st := newRuleState(sc)
		if !st.viable[sc.circ.Entry] {
			t.Fatalf("true entry pruned at init (trial %d)", i)
		}
		if !st.viable[sc.circ.Middle] {
			t.Fatalf("true middle pruned at init (trial %d)", i)
		}
		st.observePositive(sc.circ.Middle)
		if !st.viable[sc.circ.Entry] {
			t.Fatalf("true entry pruned after middle discovery (trial %d)", i)
		}
	}
}

func TestSimulationValidation(t *testing.T) {
	m, _ := worldMatrix(t, 10, 14)
	if _, err := (&Simulation{}).Run(1); err == nil {
		t.Error("empty simulation accepted")
	}
	if _, err := (&Simulation{Matrix: m}).Run(1); err == nil {
		t.Error("missing strategies accepted")
	}
	if _, err := (&Simulation{Matrix: m, Strategies: strategies()}).Run(0); err == nil {
		t.Error("zero trials accepted")
	}
}

func TestStrategyNames(t *testing.T) {
	cases := map[Strategy]string{
		&RTTUnaware{}:                      "rtt-unaware",
		&RTTUnaware{Weights: []float64{1}}: "weight-ordered",
		IgnoreTooLarge{}:                   "ignore-too-large",
		&Informed{UseMu: true}:             "informed",
		&Informed{}:                        "informed-no-mu",
		&Informed{Weights: []float64{1}}:   "informed-weighted",
	}
	for s, want := range cases {
		if s.Name() != want {
			t.Errorf("Name = %q, want %q", s.Name(), want)
		}
	}
}

func TestMedianFracTestedErrors(t *testing.T) {
	if _, err := MedianFracTested(nil, "x"); err == nil {
		t.Error("empty trials accepted")
	}
	if _, err := Speedup(nil, "a", "b"); err == nil {
		t.Error("empty speedup accepted")
	}
}

func TestFractionTestedZeroCandidates(t *testing.T) {
	if (Result{}).FractionTested() != 0 {
		t.Error("zero candidates should yield 0")
	}
}

func BenchmarkInformedRun(b *testing.B) {
	m, _ := worldMatrix(b, 50, 15)
	rng := rand.New(rand.NewSource(16))
	sc, err := NewScenario(m, nil, rng)
	if err != nil {
		b.Fatal(err)
	}
	s := &Informed{UseMu: true}
	for b.Loop() {
		_ = s.Run(sc, rng)
	}
}

func ExampleSpeedup() {
	trials := []Trial{
		{FracTested: map[string]float64{"a": 0.6, "b": 0.3}},
		{FracTested: map[string]float64{"a": 0.8, "b": 0.4}},
	}
	s, _ := Speedup(trials, "a", "b")
	fmt.Printf("%.1f×\n", s)
	// Output: 2.0×
}
