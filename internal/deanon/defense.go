package deanon

import (
	"errors"
	"fmt"
	"math/rand"

	"ting/internal/stats"
	"ting/internal/ting"
)

// This file implements the defenses §5.1.3 sketches against RTT-informed
// deanonymization, so their cost/benefit can be quantified:
//
//   - latency padding: relays "artificially inflate latencies within a
//     circuit", which the Tor designers were unwilling to pay for;
//   - randomized circuit length: "randomize the length of circuits",
//     which slows the attack but costs resources.
//
// Both defenses only ever *add* delay, so the attacker's too-large-RTT
// rules remain conservative (they can never exclude a true circuit
// member); what degrades is the informativeness of the RTT signal.

// PaddedScenario wraps a Scenario whose observed end-to-end RTT includes
// per-hop padding the attacker cannot model.
type PaddedScenario struct {
	*Scenario
	// PaddingMs is the total padding added across the circuit.
	PaddingMs float64
}

// NewPaddedScenario draws a scenario and adds U(0, maxPadMs) of padding at
// each of the three relays.
func NewPaddedScenario(m ting.MatrixView, maxPadMs float64, rng *rand.Rand) (*PaddedScenario, error) {
	if maxPadMs < 0 {
		return nil, errors.New("deanon: negative padding")
	}
	sc, err := NewScenario(m, nil, rng)
	if err != nil {
		return nil, err
	}
	pad := rng.Float64()*maxPadMs + rng.Float64()*maxPadMs + rng.Float64()*maxPadMs
	sc.E2E += pad
	return &PaddedScenario{Scenario: sc, PaddingMs: pad}, nil
}

// PaddingSweepPoint is one padding level's outcome.
type PaddingSweepPoint struct {
	MaxPadMs float64
	// MedianFracInformed is the informed strategy's median fraction of
	// relays probed under this padding level.
	MedianFracInformed float64
	// MedianFracUnaware is the baseline's (padding-insensitive, since it
	// ignores RTTs entirely).
	MedianFracUnaware float64
	// MedianE2EOverheadMs is the latency cost users pay for the defense.
	MedianE2EOverheadMs float64
}

// Speedup is the attacker's remaining advantage from RTT knowledge.
func (p PaddingSweepPoint) Speedup() float64 {
	if p.MedianFracInformed == 0 {
		return 0
	}
	return p.MedianFracUnaware / p.MedianFracInformed
}

// PaddingSweep measures how latency padding erodes the informed attacker's
// advantage, at each maximum per-relay padding level.
func PaddingSweep(m ting.MatrixView, maxPads []float64, trials int, seed int64) ([]PaddingSweepPoint, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("deanon: trials %d", trials)
	}
	out := make([]PaddingSweepPoint, 0, len(maxPads))
	for i, pad := range maxPads {
		rng := rand.New(rand.NewSource(seed + int64(i)*1000))
		informed := &Informed{UseMu: true}
		unaware := &RTTUnaware{}
		var fi, fu, overhead []float64
		for t := 0; t < trials; t++ {
			sc, err := NewPaddedScenario(m, pad, rng)
			if err != nil {
				return nil, err
			}
			fi = append(fi, informed.Run(sc.Scenario, rng).FractionTested())
			fu = append(fu, unaware.Run(sc.Scenario, rng).FractionTested())
			overhead = append(overhead, sc.PaddingMs)
		}
		mi, err := stats.Median(fi)
		if err != nil {
			return nil, err
		}
		mu, err := stats.Median(fu)
		if err != nil {
			return nil, err
		}
		mo, err := stats.Median(overhead)
		if err != nil {
			return nil, err
		}
		out = append(out, PaddingSweepPoint{
			MaxPadMs:            pad,
			MedianFracInformed:  mi,
			MedianFracUnaware:   mu,
			MedianE2EOverheadMs: mo,
		})
	}
	return out, nil
}

// VariableScenario is a victim circuit of attacker-unknown length: the
// randomized-length defense. The attacker must identify every relay
// between the source and the known exit.
type VariableScenario struct {
	m ting.MatrixView
	// rtt is a dense snapshot of m: the attacker's scoring loops read
	// O(N²) cells per candidate pass, which would pay the tiled store's
	// indirection on every read.
	rtt [][]float64
	// Members are the on-path relays the attacker must find (everything
	// but the exit).
	Members []int
	Exit    int
	Source  int

	AttackerExitRTT float64
	E2E             float64
}

// newVariableScenario draws a circuit whose length is uniform over
// [minLen, maxLen] hops. rtt is m.Dense(): callers drawing many scenarios
// from one matrix (LengthDefense) share a single dense snapshot instead of
// re-copying N² cells per trial.
func newVariableScenario(m ting.MatrixView, rtt [][]float64, minLen, maxLen int, rng *rand.Rand) (*VariableScenario, error) {
	n := m.N()
	if minLen < 3 || maxLen < minLen {
		return nil, fmt.Errorf("deanon: bad length range [%d,%d]", minLen, maxLen)
	}
	if n < maxLen+2 {
		return nil, fmt.Errorf("deanon: %d nodes cannot host %d-hop circuits", n, maxLen)
	}
	length := minLen + rng.Intn(maxLen-minLen+1)

	perm := rng.Perm(n)
	src := perm[0]
	hops := perm[1 : 1+length]
	attacker := perm[1+length]

	exit := hops[length-1]
	e2e := rtt[src][hops[0]]
	for i := 0; i+1 < length; i++ {
		e2e += rtt[hops[i]][hops[i+1]]
	}
	r := rtt[exit][attacker]
	e2e += r
	return &VariableScenario{
		m:               m,
		rtt:             rtt,
		Members:         append([]int(nil), hops[:length-1]...),
		Exit:            exit,
		Source:          src,
		AttackerExitRTT: r,
		E2E:             e2e,
	}, nil
}

// Probe reports whether relay c carries the circuit.
func (v *VariableScenario) Probe(c int) bool {
	for _, mbr := range v.Members {
		if c == mbr {
			return true
		}
	}
	return false
}

// LengthDefensePoint compares attack cost on fixed 3-hop circuits versus
// the randomized-length defense.
type LengthDefensePoint struct {
	MinLen, MaxLen int
	// MedianFracRandomOrder is the cost of probing in random order until
	// every member is found.
	MedianFracRandomOrder float64
	// MedianFracRTTOrder probes in ascending score order using the 3-hop
	// heuristic (the attacker does not know the true length, so it keeps
	// probing past the first two finds until the oracle confirms
	// completeness).
	MedianFracRTTOrder float64
	// MedianExtraHops is the resource cost: mean hops beyond 3.
	MedianExtraHops float64
}

// LengthDefense evaluates randomized circuit lengths in [minLen, maxLen].
// The attacker is granted a completeness oracle (it knows when it has
// found every member), which is generous to the attacker — the defense's
// measured benefit is therefore a lower bound.
func LengthDefense(m ting.MatrixView, minLen, maxLen, trials int, seed int64) (*LengthDefensePoint, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("deanon: trials %d", trials)
	}
	rng := rand.New(rand.NewSource(seed))
	mu := m.Mean()
	rtt := m.Dense()
	var fracRand, fracRTT, extra []float64
	for t := 0; t < trials; t++ {
		v, err := newVariableScenario(m, rtt, minLen, maxLen, rng)
		if err != nil {
			return nil, err
		}
		need := len(v.Members)
		extra = append(extra, float64(need+1-3))
		candidates := candidateListVar(v, rng, nil)
		fracRand = append(fracRand, probeUntilComplete(v, candidates, need))
		scored := candidateListVar(v, rng, func(c int) float64 { return threeHopScore(v, c, mu) })
		fracRTT = append(fracRTT, probeUntilComplete(v, scored, need))
	}
	mr, err := stats.Median(fracRand)
	if err != nil {
		return nil, err
	}
	mt, err := stats.Median(fracRTT)
	if err != nil {
		return nil, err
	}
	me, err := stats.Median(extra)
	if err != nil {
		return nil, err
	}
	return &LengthDefensePoint{
		MinLen: minLen, MaxLen: maxLen,
		MedianFracRandomOrder: mr,
		MedianFracRTTOrder:    mt,
		MedianExtraHops:       me,
	}, nil
}

// candidateListVar builds the probe order: random, or ascending by score.
func candidateListVar(v *VariableScenario, rng *rand.Rand, score func(int) float64) []int {
	n := v.m.N()
	order := make([]int, 0, n-1)
	for i := 0; i < n; i++ {
		if i != v.Exit {
			order = append(order, i)
		}
	}
	rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
	if score != nil {
		scores := make(map[int]float64, len(order))
		for _, c := range order {
			scores[c] = score(c)
		}
		// Stable-ish sort by score (insertion; n ≤ a few hundred).
		for i := 1; i < len(order); i++ {
			for j := i; j > 0 && scores[order[j]] < scores[order[j-1]]; j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
	}
	return order
}

// threeHopScore applies Algorithm 1's scoring under the (possibly wrong)
// assumption that the circuit has three hops.
func threeHopScore(v *VariableScenario, c int, mu float64) float64 {
	n := v.m.N()
	best := -1.0
	consider := func(sum float64) {
		if sum > v.E2E {
			return
		}
		d := v.E2E - (sum + mu)
		if d < 0 {
			d = -d
		}
		if best < 0 || d < best {
			best = d
		}
	}
	rowC := v.rtt[c]
	exitCol := v.Exit
	for j := 0; j < n; j++ {
		if j == c || j == exitCol {
			continue
		}
		consider(rowC[j] + v.rtt[j][exitCol] + v.AttackerExitRTT) // c entry
		consider(v.rtt[j][c] + rowC[exitCol] + v.AttackerExitRTT) // c middle
	}
	if best < 0 {
		return 1e18 // no fitting circuit at all: probe last
	}
	return best
}

// probeUntilComplete counts the fraction of candidates probed before all
// `need` members are found.
func probeUntilComplete(v *VariableScenario, order []int, need int) float64 {
	found, probes := 0, 0
	for _, c := range order {
		probes++
		if v.Probe(c) {
			found++
			if found == need {
				break
			}
		}
	}
	return float64(probes) / float64(len(order))
}
