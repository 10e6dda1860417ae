package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"ting/internal/deanon"
	"ting/internal/stats"
	"ting/internal/ting"
)

// The ablations quantify the design choices DESIGN.md calls out: why Ting
// aggregates samples with the minimum, why it refuses to mix ping with Tor
// paths (the §3.2 strawman), how accuracy scales with sample count, and
// what the µ term of Algorithm 1 buys.

// AblationConfig is shared by the ablation studies.
type AblationConfig struct {
	Nodes   int // testbed size; default 31
	Pairs   int // pairs measured; default 100
	Samples int // samples per circuit; default 200
	Seed    int64
}

func (c *AblationConfig) setDefaults() {
	if c.Nodes == 0 {
		c.Nodes = 31
	}
	if c.Pairs == 0 {
		c.Pairs = 100
	}
	if c.Samples == 0 {
		c.Samples = 200
	}
}

// AggregatorResult reports accuracy for one aggregation function.
type AggregatorResult struct {
	Name            string
	Within10        float64 // fraction of pairs within 10% of ground truth
	MedianAbsErrPct float64
}

// AblationAggregator compares min/median/mean aggregation of circuit
// samples. The minimum wins because forwarding delays are strictly
// additive noise (§3.3).
func AblationAggregator(cfg AblationConfig) ([]AggregatorResult, error) {
	cfg.setDefaults()
	w, err := NewTestbedWorld(cfg.Nodes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	prober := w.Prober(cfg.Seed + 1)

	aggs := []struct {
		name string
		f    func([]float64) float64
	}{
		{"min", func(xs []float64) float64 { v, _ := stats.Min(xs); return v }},
		{"median", func(xs []float64) float64 { v, _ := stats.Median(xs); return v }},
		{"mean", func(xs []float64) float64 { v, _ := stats.Mean(xs); return v }},
	}
	ratios := make(map[string][]float64)

	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	for p := 0; p < cfg.Pairs; p++ {
		x, y := w.randomPair(rng)
		full, err := prober.SampleCircuit(context.Background(), []string{w.W, x, y, w.Z}, cfg.Samples)
		if err != nil {
			return nil, err
		}
		cx, err := prober.SampleCircuit(context.Background(), []string{w.W, x}, cfg.Samples)
		if err != nil {
			return nil, err
		}
		cy, err := prober.SampleCircuit(context.Background(), []string{w.W, y}, cfg.Samples)
		if err != nil {
			return nil, err
		}
		truth, err := w.TrueRTT(x, y)
		if err != nil {
			return nil, err
		}
		for _, agg := range aggs {
			est := ting.Estimate(agg.f(full), agg.f(cx), agg.f(cy))
			ratios[agg.name] = append(ratios[agg.name], est/truth)
		}
	}

	var out []AggregatorResult
	for _, agg := range aggs {
		rs := ratios[agg.name]
		errs := make([]float64, len(rs))
		for i, r := range rs {
			e := (r - 1) * 100
			if e < 0 {
				e = -e
			}
			errs[i] = e
		}
		med, err := stats.Median(errs)
		if err != nil {
			return nil, err
		}
		out = append(out, AggregatorResult{
			Name:            agg.name,
			Within10:        stats.FractionWithin(rs, 0.1),
			MedianAbsErrPct: med,
		})
	}
	return out, nil
}

// StrawmanResult compares Ting against the §3.2 strawman that subtracts
// ping RTTs from the circuit RTT.
type StrawmanResult struct {
	TingWithin10     float64
	StrawmanWithin10 float64
	// BiasedStrawmanWithin10 restricts the strawman to pairs touching a
	// protocol-biased network — where mixing ping and Tor breaks down —
	// and CleanStrawmanWithin10 to pairs touching none.
	BiasedStrawmanWithin10 float64
	CleanStrawmanWithin10  float64
}

// AblationStrawman runs both estimators over the same pairs.
func AblationStrawman(cfg AblationConfig) (*StrawmanResult, error) {
	cfg.setDefaults()
	w, err := NewTestbedWorld(cfg.Nodes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	m, err := w.Measurer(cfg.Samples, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	prober := w.Prober(cfg.Seed + 2)

	var tingRatios, strawRatios, biasedStraw, cleanStraw []float64
	rng := rand.New(rand.NewSource(cfg.Seed + 3))
	for p := 0; p < cfg.Pairs; p++ {
		x, y := w.randomPair(rng)
		truth, err := w.TrueRTT(x, y)
		if err != nil {
			return nil, err
		}

		meas, err := m.MeasurePair(context.Background(), x, y)
		if err != nil {
			return nil, err
		}
		tingRatios = append(tingRatios, meas.RTT/truth)

		// Strawman (Figure 1): full circuit minus min-of-pings to each
		// endpoint from the measurement host.
		full, err := prober.SampleCircuit(context.Background(), []string{w.W, x, y, w.Z}, cfg.Samples)
		if err != nil {
			return nil, err
		}
		minFull, err := stats.Min(full)
		if err != nil {
			return nil, err
		}
		pingX, err := minPing(prober, x, 100)
		if err != nil {
			return nil, err
		}
		pingY, err := minPing(prober, y, 100)
		if err != nil {
			return nil, err
		}
		straw := minFull - pingX - pingY
		strawRatios = append(strawRatios, straw/truth)
		if w.Topo.Node(w.NodeOf[x]).Biased || w.Topo.Node(w.NodeOf[y]).Biased {
			biasedStraw = append(biasedStraw, straw/truth)
		} else {
			cleanStraw = append(cleanStraw, straw/truth)
		}
	}
	return &StrawmanResult{
		TingWithin10:           stats.FractionWithin(tingRatios, 0.1),
		StrawmanWithin10:       stats.FractionWithin(strawRatios, 0.1),
		BiasedStrawmanWithin10: stats.FractionWithin(biasedStraw, 0.1),
		CleanStrawmanWithin10:  stats.FractionWithin(cleanStraw, 0.1),
	}, nil
}

func minPing(p *ting.ModelProber, target string, n int) (float64, error) {
	best := 0.0
	for i := 0; i < n; i++ {
		v, err := p.Ping(target)
		if err != nil {
			return 0, err
		}
		if i == 0 || v < best {
			best = v
		}
	}
	return best, nil
}

// SamplesSweepPoint is accuracy at one sample count.
type SamplesSweepPoint struct {
	Samples  int
	Within10 float64
	Within5  float64
}

// AblationSamples sweeps the per-circuit sample count (the §4.4
// speed/accuracy trade-off).
func AblationSamples(cfg AblationConfig, counts []int) ([]SamplesSweepPoint, error) {
	cfg.setDefaults()
	if len(counts) == 0 {
		counts = []int{10, 50, 100, 200, 1000}
	}
	sort.Ints(counts)
	w, err := NewTestbedWorld(cfg.Nodes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	type pair struct{ x, y string }
	pairs := make([]pair, cfg.Pairs)
	for p := range pairs {
		pairs[p].x, pairs[p].y = w.randomPair(rng)
	}

	var out []SamplesSweepPoint
	for ci, n := range counts {
		m, err := w.Measurer(n, cfg.Seed+10+int64(ci))
		if err != nil {
			return nil, err
		}
		var ratios []float64
		for _, p := range pairs {
			meas, err := m.MeasurePair(context.Background(), p.x, p.y)
			if err != nil {
				return nil, err
			}
			truth, err := w.TrueRTT(p.x, p.y)
			if err != nil {
				return nil, err
			}
			ratios = append(ratios, meas.RTT/truth)
		}
		out = append(out, SamplesSweepPoint{
			Samples:  n,
			Within10: stats.FractionWithin(ratios, 0.1),
			Within5:  stats.FractionWithin(ratios, 0.05),
		})
	}
	return out, nil
}

// MuAblationResult compares Algorithm 1 with and without the µ term.
type MuAblationResult struct {
	WithMu    float64 // median fraction probed
	WithoutMu float64
}

// AblationMu runs the informed strategy with and without µ over the
// Figure 11 matrix.
func AblationMu(f11 *Fig11Result, trials int, seed int64) (*MuAblationResult, error) {
	if trials <= 0 {
		trials = 500
	}
	sim := &deanon.Simulation{
		Matrix: f11.Matrix,
		Strategies: []deanon.Strategy{
			&deanon.Informed{UseMu: true},
			&deanon.Informed{UseMu: false},
		},
		Seed: seed,
	}
	ts, err := sim.Run(trials)
	if err != nil {
		return nil, err
	}
	with, err := deanon.MedianFracTested(ts, "informed")
	if err != nil {
		return nil, err
	}
	without, err := deanon.MedianFracTested(ts, "informed-no-mu")
	if err != nil {
		return nil, err
	}
	return &MuAblationResult{WithMu: with, WithoutMu: without}, nil
}

// Headlines aggregates the paper's headline numbers from already-run
// figures, for EXPERIMENTS.md.
type Headlines struct {
	Fig3Within10    float64 // paper: 0.91
	Fig3ErrOver30   float64 // paper: < 0.02
	Spearman        float64 // paper: 0.997
	DeanonSpeedup   float64 // paper: 1.5×
	TIVFraction     float64 // paper: 0.69
	TIVMedianSaving float64 // paper: 0.075
	ResidentialFrac float64 // paper: 0.61
}

// ComputeHeadlines pulls the numbers together.
func ComputeHeadlines(f3 *Fig3Result, f12 *Fig12Result, f14 *Fig14Result, f18 *Fig18Result) (*Headlines, error) {
	sp, err := f3.Spearman()
	if err != nil {
		return nil, err
	}
	speedup, err := f12.Speedup()
	if err != nil {
		return nil, err
	}
	med, err := stats.Median(f14.Summary.Savings)
	if err != nil {
		return nil, err
	}
	h := &Headlines{
		Fig3Within10:    f3.Within(0.1),
		Fig3ErrOver30:   1 - f3.Within(0.3),
		Spearman:        sp,
		DeanonSpeedup:   speedup,
		TIVFraction:     f14.Summary.FractionWithTIV(),
		TIVMedianSaving: med,
		ResidentialFrac: f18.Classes.ResidentialFractionOfNamed(),
	}
	return h, nil
}

// String renders the headline comparison.
func (h *Headlines) String() string {
	return fmt.Sprintf(
		"within10=%.3f (paper 0.91) errOver30=%.3f (paper <0.02) spearman=%.4f (paper 0.997) "+
			"speedup=%.2fx (paper 1.5x) tivFrac=%.3f (paper 0.69) tivSaving=%.3f (paper 0.075) "+
			"residential=%.3f (paper 0.61)",
		h.Fig3Within10, h.Fig3ErrOver30, h.Spearman, h.DeanonSpeedup,
		h.TIVFraction, h.TIVMedianSaving, h.ResidentialFrac)
}
