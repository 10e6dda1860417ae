package pathsel

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"ting/internal/stats"
	"ting/internal/ting"
)

// This file implements the circuit-selection algorithm the paper leaves to
// future work (§5.2.2, §6): with an all-pairs RTT matrix, a client can
// choose circuits *longer* than three hops that still meet a latency
// budget, gaining anonymity (a vastly larger candidate set) at no latency
// cost. The selection must not collapse onto a few well-connected relays
// — Figure 17's concern — so the sampler is rejection-based (uniform over
// qualifying circuits) and its entropy is measured.

// SelectLowLatency samples up to k distinct circuits of the given length
// whose internal RTT is at most budgetMs, by uniform rejection sampling
// with at most `attempts` draws. The result is an unbiased sample of the
// qualifying-circuit population, which is what preserves selection
// entropy.
func SelectLowLatency(m ting.MatrixView, length int, budgetMs float64, k, attempts int, rng *rand.Rand) ([]CircuitSample, error) {
	return SelectLowLatencyConf(m, length, budgetMs, 0, k, attempts, rng)
}

// SelectLowLatencyConf is SelectLowLatency with a per-cell confidence
// floor: circuits using any hop-to-hop cell whose ConfAt is below minConf
// are rejected. On a coordinate-completed matrix this lets a client trade
// candidate-set size for trustworthy latency estimates — minConf 0 accepts
// every cell (measured cells always score 1), minConf just above 0 rejects
// missing cells, and a high minConf restricts selection to measured or
// confidently-predicted pairs.
func SelectLowLatencyConf(m ting.MatrixView, length int, budgetMs, minConf float64, k, attempts int, rng *rand.Rand) ([]CircuitSample, error) {
	if m == nil {
		return nil, errors.New("pathsel: nil matrix")
	}
	if k <= 0 || attempts < k {
		return nil, fmt.Errorf("pathsel: k=%d attempts=%d", k, attempts)
	}
	if budgetMs <= 0 {
		return nil, errors.New("pathsel: non-positive budget")
	}
	if minConf > 1 {
		return nil, fmt.Errorf("pathsel: minConf %v > 1 rejects every circuit", minConf)
	}
	n := m.N()
	if length < 2 || length > n {
		return nil, fmt.Errorf("pathsel: length %d over %d nodes", length, n)
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	out := make([]CircuitSample, 0, k)
	for a := 0; a < attempts && len(out) < k; a++ {
		for i := 0; i < length; i++ {
			j := i + rng.Intn(n-i)
			perm[i], perm[j] = perm[j], perm[i]
		}
		var rtt float64
		ok := true
		for i := 0; i+1 < length; i++ {
			if minConf > 0 && m.ConfAt(perm[i], perm[i+1]) < minConf {
				ok = false
				break
			}
			rtt += m.At(perm[i], perm[i+1])
			if rtt > budgetMs {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		out = append(out, CircuitSample{
			Hops:  append([]int(nil), perm[:length]...),
			RTTms: rtt,
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("pathsel: no %d-hop circuit within %.0fms in %d attempts",
			length, budgetMs, attempts)
	}
	return out, nil
}

// SelectionEntropy returns the Shannon entropy of relay usage across the
// selected circuits, normalized to [0, 1] where 1 means every relay
// appears equally often (the most anonymity-preserving selection).
func SelectionEntropy(circs []CircuitSample, n int) float64 {
	if len(circs) == 0 || n <= 1 {
		return 0
	}
	counts := make([]float64, n)
	var total float64
	for _, c := range circs {
		for _, h := range c.Hops {
			counts[h]++
			total++
		}
	}
	var h float64
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := c / total
		h -= p * math.Log2(p)
	}
	return h / math.Log2(float64(n))
}

// MedianRTT of a circuit set.
func MedianRTT(circs []CircuitSample) (float64, error) {
	if len(circs) == 0 {
		return 0, errors.New("pathsel: no circuits")
	}
	vals := make([]float64, len(circs))
	for i, c := range circs {
		vals[i] = c.RTTms
	}
	return stats.Median(vals)
}
