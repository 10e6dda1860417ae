package deanon

import (
	"math/rand"
	"testing"
)

func TestPaddedScenarioAddsOnly(t *testing.T) {
	m, _ := worldMatrix(t, 20, 30)
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 50; i++ {
		sc, err := NewPaddedScenario(m, 40, rng)
		if err != nil {
			t.Fatal(err)
		}
		if sc.PaddingMs < 0 || sc.PaddingMs > 120 {
			t.Fatalf("padding %v out of [0, 3×40]", sc.PaddingMs)
		}
		base := m.At(sc.circ.Source, sc.circ.Entry) +
			m.At(sc.circ.Entry, sc.circ.Middle) +
			m.At(sc.circ.Middle, sc.circ.Exit) + sc.AttackerExitRTT
		if sc.E2E < base {
			t.Fatal("padding reduced E2E")
		}
	}
	if _, err := NewPaddedScenario(m, -1, rng); err == nil {
		t.Error("negative padding accepted")
	}
}

func TestPaddingNeverBreaksConservatism(t *testing.T) {
	// Padding only inflates E2E, so the too-large rules must still never
	// prune true members — the attack stays correct, just slower.
	m, _ := worldMatrix(t, 25, 32)
	rng := rand.New(rand.NewSource(33))
	informed := &Informed{UseMu: true}
	for i := 0; i < 40; i++ {
		sc, err := NewPaddedScenario(m, 100, rng)
		if err != nil {
			t.Fatal(err)
		}
		res := informed.Run(sc.Scenario, rng)
		if res.Found != 2 {
			t.Fatalf("informed attack failed under padding (found %d)", res.Found)
		}
	}
}

func TestPaddingSweepErodesAdvantage(t *testing.T) {
	m, _ := worldMatrix(t, 40, 34)
	pts, err := PaddingSweep(m, []float64{0, 200}, 250, 35)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	s0, s200 := pts[0].Speedup(), pts[1].Speedup()
	t.Logf("speedup: no padding %.2fx, 200ms padding %.2fx (overhead %.0fms)",
		s0, s200, pts[1].MedianE2EOverheadMs)
	if s0 <= 1.0 {
		t.Errorf("unpadded speedup %.2f, want > 1", s0)
	}
	if s200 >= s0 {
		t.Errorf("padding did not erode the attacker's advantage: %.2f → %.2f", s0, s200)
	}
	if pts[1].MedianE2EOverheadMs <= 0 {
		t.Error("padding has no measured latency cost")
	}
	if _, err := PaddingSweep(m, []float64{0}, 0, 1); err == nil {
		t.Error("zero trials accepted")
	}
}

func TestVariableScenario(t *testing.T) {
	m, _ := worldMatrix(t, 20, 36)
	rng := rand.New(rand.NewSource(37))
	lengths := map[int]int{}
	for i := 0; i < 200; i++ {
		v, err := newVariableScenario(m, m.Dense(), 3, 5, rng)
		if err != nil {
			t.Fatal(err)
		}
		l := len(v.Members) + 1
		if l < 3 || l > 5 {
			t.Fatalf("length %d out of [3,5]", l)
		}
		lengths[l]++
		seen := map[int]bool{v.Exit: true, v.Source: true}
		for _, mbr := range v.Members {
			if seen[mbr] {
				t.Fatal("repeated node in variable circuit")
			}
			seen[mbr] = true
			if !v.Probe(mbr) {
				t.Fatal("oracle misses a member")
			}
		}
		if v.Probe(v.Exit) || v.Probe(v.Source) {
			t.Fatal("oracle false positive")
		}
		if v.E2E <= 0 {
			t.Fatal("degenerate E2E")
		}
	}
	for l := 3; l <= 5; l++ {
		if lengths[l] == 0 {
			t.Errorf("length %d never drawn", l)
		}
	}
	if _, err := newVariableScenario(m, m.Dense(), 2, 5, rng); err == nil {
		t.Error("minLen 2 accepted")
	}
	if _, err := newVariableScenario(m, m.Dense(), 5, 3, rng); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := newVariableScenario(m, m.Dense(), 3, 19, rng); err == nil {
		t.Error("oversized circuits accepted")
	}
}

func TestLengthDefenseSlowsAttack(t *testing.T) {
	m, _ := worldMatrix(t, 40, 38)
	fixed, err := LengthDefense(m, 3, 3, 250, 39)
	if err != nil {
		t.Fatal(err)
	}
	random, err := LengthDefense(m, 3, 6, 250, 39)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("fixed 3-hop: rtt-order %.3f vs random %.3f; randomized 3-6: rtt-order %.3f vs random %.3f",
		fixed.MedianFracRTTOrder, fixed.MedianFracRandomOrder,
		random.MedianFracRTTOrder, random.MedianFracRandomOrder)
	// RTT ordering helps against fixed-length circuits…
	if fixed.MedianFracRTTOrder >= fixed.MedianFracRandomOrder {
		t.Errorf("RTT ordering useless even without the defense")
	}
	// …and the randomized defense costs the attacker more probes overall.
	if random.MedianFracRTTOrder <= fixed.MedianFracRTTOrder {
		t.Errorf("randomized lengths did not slow the RTT-informed attack: %.3f vs %.3f",
			random.MedianFracRTTOrder, fixed.MedianFracRTTOrder)
	}
	if random.MedianExtraHops <= 0 {
		t.Error("randomized defense shows no resource cost")
	}
	if fixed.MedianExtraHops != 0 {
		t.Error("fixed 3-hop circuits report extra hops")
	}
	if _, err := LengthDefense(m, 3, 4, 0, 1); err == nil {
		t.Error("zero trials accepted")
	}
}
