package experiments

import (
	"context"
	"math/rand"
	"sort"

	"ting/internal/stats"
)

// Fig9Config parameterizes the stability study (§4.6): 30 pairs measured
// hourly for a week. The synthetic Internet is stationary, so the
// experiment injects the real-world dynamics the paper's week would have
// seen: occasional route changes (persistent RTT shifts) and transient
// congestion epochs.
type Fig9Config struct {
	WorldNodes int // default 120
	PairCount  int // default 30
	Hours      int // default 168 (one week)
	Samples    int // Ting samples per circuit; default 200
	Seed       int64
}

// fig9RouteShift is the per-pair per-hour probability of a route change.
const fig9RouteShift = 0.005

func (c *Fig9Config) setDefaults() {
	if c.WorldNodes == 0 {
		c.WorldNodes = 120
	}
	if c.PairCount == 0 {
		c.PairCount = 30
	}
	if c.Hours == 0 {
		c.Hours = 168
	}
	if c.Samples == 0 {
		c.Samples = 200
	}
}

// Fig9Pair is one pair's week of hourly measurements.
type Fig9Pair struct {
	X, Y string
	// RTTs holds one Ting estimate per hour, in ms.
	RTTs []float64
	// CV is the coefficient of variation over the week (Figure 9).
	CV float64
	// Box summarizes the hourly estimates (Figure 10).
	Box stats.BoxStats
}

// Fig9Result is the stability dataset; Figure 10 reuses it.
type Fig9Result struct {
	Pairs []Fig9Pair
}

// CVs returns every pair's coefficient of variation.
func (r *Fig9Result) CVs() []float64 {
	out := make([]float64, len(r.Pairs))
	for i, p := range r.Pairs {
		out[i] = p.CV
	}
	return out
}

// FractionBelow returns the share of pairs with cv below the threshold;
// the paper reports 96.7% below 0.5.
func (r *Fig9Result) FractionBelow(cv float64) float64 {
	if len(r.Pairs) == 0 {
		return 0
	}
	n := 0
	for _, p := range r.Pairs {
		if p.CV < cv {
			n++
		}
	}
	return float64(n) / float64(len(r.Pairs))
}

// Fig9 runs the week-long hourly measurement with injected route dynamics.
func Fig9(cfg Fig9Config) (*Fig9Result, error) {
	cfg.setDefaults()
	w, err := NewWorld(cfg.WorldNodes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	m, err := w.Measurer(cfg.Samples, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 2))

	// Pick pairs spanning the RTT distribution (the paper chose pairs
	// matching Figure 8's spread, including very low-RTT ones).
	type cand struct {
		x, y string
		rtt  float64
	}
	var cands []cand
	for i := 0; i < len(w.Names); i++ {
		for j := i + 1; j < len(w.Names); j++ {
			rtt, err := w.TrueRTT(w.Names[i], w.Names[j])
			if err != nil {
				return nil, err
			}
			cands = append(cands, cand{w.Names[i], w.Names[j], rtt})
		}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].rtt < cands[b].rtt })
	picked := make([]cand, 0, cfg.PairCount)
	for k := 0; k < cfg.PairCount; k++ {
		idx := k * (len(cands) - 1) / max(cfg.PairCount-1, 1)
		picked = append(picked, cands[idx])
	}

	series := make([][]float64, len(picked))
	for hour := 0; hour < cfg.Hours; hour++ {
		for pi, p := range picked {
			// Route change: a persistent multiplicative shift to the
			// pair's base RTT, as Internet paths occasionally reroute.
			if rng.Float64() < fig9RouteShift {
				xi, yi := w.NodeOf[p.x], w.NodeOf[p.y]
				cur := w.Topo.RTT(xi, yi)
				shift := 1 + (rng.Float64()*0.3 - 0.1) // -10%..+20%
				w.Topo.OverrideRTT(xi, yi, cur*shift)
			}
			meas, err := m.MeasurePair(context.Background(), p.x, p.y)
			if err != nil {
				return nil, err
			}
			series[pi] = append(series[pi], meas.RTT)
		}
	}

	res := &Fig9Result{}
	for pi, p := range picked {
		cv, err := stats.CoefficientOfVariation(series[pi])
		if err != nil {
			return nil, err
		}
		box, err := stats.Box(series[pi])
		if err != nil {
			return nil, err
		}
		res.Pairs = append(res.Pairs, Fig9Pair{X: p.x, Y: p.y, RTTs: series[pi], CV: cv, Box: box})
	}
	return res, nil
}

// Fig10 orders the Figure 9 pairs by median latency, the x-axis of the
// boxplot panel.
func Fig10(r *Fig9Result) []Fig9Pair {
	out := append([]Fig9Pair(nil), r.Pairs...)
	sort.Slice(out, func(a, b int) bool { return out[a].Box.Median < out[b].Box.Median })
	return out
}
