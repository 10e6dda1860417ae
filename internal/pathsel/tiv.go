// Package pathsel implements the path-selection study of §5.2: triangle
// inequality violations in inter-relay RTTs (Figures 14, 15) and the
// latency/anonymity properties of circuits longer than three hops
// (Figures 16, 17).
package pathsel

import (
	"errors"

	"ting/internal/ting"
)

// TIV records the best detour for one pair: routing s→r→d beats the
// direct s→d path.
type TIV struct {
	// S, D, R are node indices: source, destination, detour relay.
	S, D, R int
	// DirectMs is R(s,d); DetourMs is R(s,r)+R(r,d).
	DirectMs, DetourMs float64
	// Predicted marks a violation whose *direct* leg is a model-completed
	// (ProvPredicted) cell: the violation may be an artifact of prediction
	// error, so it is reported as a candidate and flagged. Violations
	// whose *witness* legs (s→r or r→d) are predicted are never reported
	// at all — a completed matrix must not manufacture fake detours.
	Predicted bool
}

// SavingsFraction is 1 − detour/direct, the x-axis of Figure 14.
func (t TIV) SavingsFraction() float64 {
	if t.DirectMs == 0 {
		return 0
	}
	return 1 - t.DetourMs/t.DirectMs
}

// FindTIVs scans all unordered pairs of the matrix and returns, for every
// pair with at least one violating relay, the best (lowest-detour) TIV.
// §5.2.1: "for 69% of all pairs of Tor nodes in our data, there exists at
// least one circuit that results in a TIV."
func FindTIVs(m ting.MatrixView) ([]TIV, error) {
	if m == nil {
		return nil, errors.New("pathsel: nil matrix")
	}
	n := m.N()
	// O(N³) cell reads: one dense materialization up front beats paying
	// the tiled store's indirection per read.
	rtt := m.Dense()
	// Predicted-cell mask, O(N²) up front. Fully-measured matrices (the
	// common case, and the benched one) take the branch-free inner loop
	// below; only matrices that actually contain predicted cells pay the
	// mask lookups.
	var pred [][]bool
	for s := 0; s < n && pred == nil; s++ {
		for d := s + 1; d < n; d++ {
			if m.ProvAt(s, d) == ting.ProvPredicted {
				pred = make([][]bool, n)
				break
			}
		}
	}
	if pred != nil {
		backing := make([]bool, n*n)
		for s := 0; s < n; s++ {
			pred[s] = backing[s*n : (s+1)*n : (s+1)*n]
			for d := 0; d < n; d++ {
				if s != d && m.ProvAt(s, d) == ting.ProvPredicted {
					pred[s][d] = true
				}
			}
		}
	}
	// rtt and pred are symmetric, so the detour legs r→d are read as d→r:
	// the inner loops walk rows s and d, never a column.
	var out []TIV
	for s := 0; s < n; s++ {
		rowS := rtt[s]
		for d := s + 1; d < n; d++ {
			rowD := rtt[d]
			direct := rowS[d]
			best := TIV{S: s, D: d, R: -1, DirectMs: direct, DetourMs: direct}
			if pred == nil {
				for r := 0; r < n; r++ {
					if r == s || r == d {
						continue
					}
					detour := rowS[r] + rowD[r]
					if detour < best.DetourMs {
						best.DetourMs = detour
						best.R = r
					}
				}
			} else {
				predS, predD := pred[s], pred[d]
				for r := 0; r < n; r++ {
					if r == s || r == d || predS[r] || predD[r] {
						continue
					}
					detour := rowS[r] + rowD[r]
					if detour < best.DetourMs {
						best.DetourMs = detour
						best.R = r
					}
				}
				best.Predicted = predS[d]
			}
			if best.R >= 0 {
				out = append(out, best)
			}
		}
	}
	return out, nil
}

// TIVSummary aggregates the Figure 14 statistics.
type TIVSummary struct {
	// Pairs is the number of unordered pairs scanned.
	Pairs int
	// WithTIV is how many pairs had at least one violating relay.
	WithTIV int
	// Savings holds each TIV pair's fractional saving.
	Savings []float64
}

// FractionWithTIV is WithTIV / Pairs.
func (s TIVSummary) FractionWithTIV() float64 {
	if s.Pairs == 0 {
		return 0
	}
	return float64(s.WithTIV) / float64(s.Pairs)
}

// SummarizeTIVs runs FindTIVs and aggregates.
func SummarizeTIVs(m ting.MatrixView) (TIVSummary, error) {
	tivs, err := FindTIVs(m)
	if err != nil {
		return TIVSummary{}, err
	}
	n := m.N()
	sum := TIVSummary{Pairs: n * (n - 1) / 2, WithTIV: len(tivs)}
	for _, t := range tivs {
		sum.Savings = append(sum.Savings, t.SavingsFraction())
	}
	return sum, nil
}
