// Package deanon implements the deanonymization study of §5.1: how
// knowledge of all-pairs RTTs (from Ting) speeds up an on-path attacker who
// already controls the destination and wants to identify the entry and
// middle relays of a victim circuit.
//
// The attacker has a brute-force probe oracle in the style of Murdoch and
// Danezis — "is relay c carrying the victim's traffic?" — where each probe
// is expensive (it requires building circuits through c and loading them).
// The study therefore counts probes. Three strategies are compared:
//
//   - RTT-unaware: probe relays in random order (the baseline);
//   - ignore-too-large: never probe relays that cannot be on any circuit
//     whose RTT sum fits within the observed end-to-end RTT;
//   - informed selection (Algorithm 1): additionally order the remaining
//     relays by how closely their best-fitting circuit explains the
//     end-to-end RTT, using µ (the mean all-pairs RTT) in place of the
//     unknown source→entry leg.
//
// Weighted variants model Tor's bandwidth-weighted relay selection
// (footnote 5): the baseline probes in decreasing bandwidth order, and the
// informed strategy divides each score by the relay's weight.
package deanon

import (
	"errors"
	"fmt"
	"math/rand"

	"ting/internal/ting"
)

// Circuit is a victim three-hop circuit plus endpoints. All values are
// node indices into the matrix.
type Circuit struct {
	Source int // victim client (also drawn from the node set, as in §5.1.2)
	Entry  int
	Middle int
	Exit   int
}

// Scenario is one deanonymization instance: what the attacker knows.
type Scenario struct {
	m    ting.MatrixView
	circ Circuit

	// AttackerExitRTT is r, the destination's RTT to the exit.
	AttackerExitRTT float64
	// E2E is the observed end-to-end RTT R_e2e, source through circuit to
	// destination.
	E2E float64
}

// NewScenario draws a random victim circuit over m. The source and an
// attacker location are drawn from the node set; entry, middle, and exit
// are distinct relays chosen uniformly (weights nil) or
// bandwidth-weighted.
func NewScenario(m ting.MatrixView, weights []float64, rng *rand.Rand) (*Scenario, error) {
	n := m.N()
	if n < 5 {
		return nil, errors.New("deanon: need at least 5 nodes")
	}
	if weights != nil && len(weights) != n {
		return nil, fmt.Errorf("deanon: %d weights for %d nodes", len(weights), n)
	}
	pick := func(exclude map[int]bool) int {
		for {
			var i int
			if weights == nil {
				i = rng.Intn(n)
			} else {
				i = weightedIndex(weights, rng)
			}
			if !exclude[i] {
				return i
			}
		}
	}
	// Source and attacker are positions, not relays: uniform regardless of
	// weights.
	src := rng.Intn(n)
	used := map[int]bool{src: true}
	entry := pick(used)
	used[entry] = true
	middle := pick(used)
	used[middle] = true
	exit := pick(used)
	used[exit] = true
	attacker := -1
	for attacker < 0 || used[attacker] {
		attacker = rng.Intn(n)
	}

	circ := Circuit{Source: src, Entry: entry, Middle: middle, Exit: exit}
	r := m.At(exit, attacker)
	e2e := m.At(src, entry) + m.At(entry, middle) + m.At(middle, exit) + r
	return &Scenario{m: m, circ: circ, AttackerExitRTT: r, E2E: e2e}, nil
}

func weightedIndex(weights []float64, rng *rand.Rand) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	x := rng.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Probe is the attacker's oracle: does relay c carry the victim circuit?
// Only the entry and middle answer yes — the attacker already knows the
// exit.
func (sc *Scenario) Probe(c int) bool {
	return c == sc.circ.Entry || c == sc.circ.Middle
}

// Result reports one strategy's run.
type Result struct {
	// Probes is how many relays were actively probed before both the
	// entry and middle were identified.
	Probes int
	// Candidates is the number of relays the strategy considered probing
	// (the network size minus the known exit).
	Candidates int
	// ImplicitlyRuledOut counts relays the too-large-RTT rules excluded
	// before any probing (zero for the RTT-unaware baseline) — the
	// quantity Figure 13 plots against E2E RTT.
	ImplicitlyRuledOut int
	// Found is how many circuit members were identified (2 on success).
	Found int
}

// FractionTested is Probes / Candidates, the x-axis of Figure 12.
func (r Result) FractionTested() float64 {
	if r.Candidates == 0 {
		return 0
	}
	return float64(r.Probes) / float64(r.Candidates)
}

// Strategy deanonymizes a scenario and reports its cost.
type Strategy interface {
	Name() string
	Run(sc *Scenario, rng *rand.Rand) Result
}
