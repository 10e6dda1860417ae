package experiments

import (
	"context"
	"fmt"
	"sort"

	"ting/internal/stats"
	"ting/internal/ting"
)

// The matrix-completion study: how much accuracy does the budgeted
// campaign (Scanner.ScanBudget — Vivaldi embedding + active selection)
// give up against ground truth when it measures only a fraction of the
// N·(N−1)/2 pairs? This is the validation behind ROADMAP item 3's
// sub-quadratic mode: the synthetic Internet knows its exact RTT matrix,
// so predicted cells can be scored directly, the same way Figures 3 and 4
// score Ting itself against ping truth.

// CompletionConfig parameterizes one budgeted-campaign accuracy run.
type CompletionConfig struct {
	Nodes int // world size; default 512
	// BudgetFraction is the measured share of all pairs. Default 0.25.
	BudgetFraction float64
	Seed           int64
}

const (
	// completionSamples is the samples per circuit series. Fewer samples
	// make each measured pair noisier (min-finding stops short of the
	// floor), which the embedding then inherits.
	completionSamples = 16
	completionWorkers = 8 // scanner parallelism
)

func (c *CompletionConfig) setDefaults() {
	if c.Nodes == 0 {
		c.Nodes = 512
	}
	if c.BudgetFraction == 0 {
		c.BudgetFraction = 0.25
	}
}

// CompletionResult scores one budgeted campaign against ground truth.
type CompletionResult struct {
	World  *World
	Matrix *ting.Matrix

	Budget    int // pairs the campaign was allowed to measure
	Measured  int // cells holding a fresh measurement
	Predicted int // cells filled by the embedding

	// MedianRTTMs is the median ground-truth RTT over all pairs — the
	// scale the error quantiles are read against.
	MedianRTTMs float64
	// MedianAbsErrMs / P90AbsErrMs summarize |predicted − truth| over the
	// predicted cells only (measured cells are scored by the Figure 3
	// experiments; this one scores the completion).
	MedianAbsErrMs float64
	P90AbsErrMs    float64
	// MeanConfidence averages the model's per-cell confidence over
	// predicted cells.
	MeanConfidence float64

	// AbsErrs holds every predicted cell's absolute error, for CDFs.
	AbsErrs []float64
}

// ErrCDF returns the distribution of absolute prediction errors.
func (r *CompletionResult) ErrCDF() (*stats.CDF, error) {
	return stats.NewCDF(r.AbsErrs)
}

// Completion runs one budgeted campaign and scores the predicted cells
// against the topology's exact RTT matrix.
func Completion(cfg CompletionConfig) (*CompletionResult, error) {
	cfg.setDefaults()
	if cfg.BudgetFraction <= 0 || cfg.BudgetFraction >= 1 {
		return nil, fmt.Errorf("experiments: BudgetFraction %v outside (0,1)", cfg.BudgetFraction)
	}
	w, err := NewWorld(cfg.Nodes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	n := len(w.Names)
	allPairs := n * (n - 1) / 2
	budget := int(float64(allPairs) * cfg.BudgetFraction)

	sc := &ting.Scanner{
		NewMeasurer: func(worker int) (*ting.Measurer, error) {
			return w.Measurer(completionSamples, cfg.Seed+100+int64(worker))
		},
		Workers: completionWorkers,
		Shuffle: cfg.Seed + 4,
	}
	m, _, err := sc.ScanBudget(context.Background(), w.Names, budget)
	if err != nil {
		return nil, err
	}

	res := &CompletionResult{World: w, Matrix: m, Budget: budget}
	truths := make([]float64, 0, allPairs)
	var confSum float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			truth, terr := w.TrueRTT(w.Names[i], w.Names[j])
			if terr != nil {
				return nil, terr
			}
			truths = append(truths, truth)
			switch m.ProvAt(i, j) {
			case ting.ProvFresh, ting.ProvResumed:
				res.Measured++
			case ting.ProvPredicted:
				res.Predicted++
				d := m.At(i, j) - truth
				if d < 0 {
					d = -d
				}
				res.AbsErrs = append(res.AbsErrs, d)
				confSum += m.ConfAt(i, j)
			}
		}
	}
	res.MedianRTTMs = quantileOf(truths, 0.5)
	res.MedianAbsErrMs = quantileOf(append([]float64(nil), res.AbsErrs...), 0.5)
	res.P90AbsErrMs = quantileOf(append([]float64(nil), res.AbsErrs...), 0.9)
	if res.Predicted > 0 {
		res.MeanConfidence = confSum / float64(res.Predicted)
	}
	return res, nil
}

// quantileOf sorts vs in place and reads the q-quantile by nearest rank.
func quantileOf(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	idx := int(q * float64(len(vs)-1))
	return vs[idx]
}

// TradeoffPoint is one measured-fraction's accuracy.
type TradeoffPoint struct {
	Fraction       float64
	Budget         int
	Measured       int
	MedianAbsErrMs float64
	P90AbsErrMs    float64
	MedianRTTMs    float64
}

// CompletionTradeoff sweeps the measured fraction on one world size: the
// budget-vs-accuracy curve that justifies (or indicts) a chosen budget.
func CompletionTradeoff(cfg CompletionConfig, fractions []float64) ([]TradeoffPoint, error) {
	out := make([]TradeoffPoint, 0, len(fractions))
	for _, f := range fractions {
		c := cfg
		c.BudgetFraction = f
		r, err := Completion(c)
		if err != nil {
			return nil, err
		}
		out = append(out, TradeoffPoint{
			Fraction:       f,
			Budget:         r.Budget,
			Measured:       r.Measured,
			MedianAbsErrMs: r.MedianAbsErrMs,
			P90AbsErrMs:    r.P90AbsErrMs,
			MedianRTTMs:    r.MedianRTTMs,
		})
	}
	return out, nil
}

// SizePoint is one world size's completion accuracy at a fixed fraction.
type SizePoint struct {
	Nodes          int
	MedianAbsErrMs float64
	P90AbsErrMs    float64
	MedianRTTMs    float64
}

// CompletionBySize holds the fraction fixed and sweeps the world size:
// embeddings get relatively cheaper as N grows (budget scales with N²,
// coordinates need O(N·k)), so accuracy should hold or improve.
func CompletionBySize(cfg CompletionConfig, sizes []int) ([]SizePoint, error) {
	out := make([]SizePoint, 0, len(sizes))
	for _, n := range sizes {
		c := cfg
		c.Nodes = n
		r, err := Completion(c)
		if err != nil {
			return nil, err
		}
		out = append(out, SizePoint{
			Nodes:          n,
			MedianAbsErrMs: r.MedianAbsErrMs,
			P90AbsErrMs:    r.P90AbsErrMs,
			MedianRTTMs:    r.MedianRTTMs,
		})
	}
	return out, nil
}
