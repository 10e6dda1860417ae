package experiments

import (
	"context"
	"fmt"
	"math/rand"
)

// Fig6Config parameterizes the sample-size study (§4.4): how many samples
// until the running minimum reaches (or gets near) the minimum of all
// 1000 — the Jansen et al. recreation.
type Fig6Config struct {
	WorldNodes int // live-network stand-in size; default 100
	Pairs      int // random pairs measured; default 100
	Samples    int // samples per pair; default 1000
	Seed       int64
}

func (c *Fig6Config) setDefaults() {
	if c.WorldNodes == 0 {
		c.WorldNodes = 100
	}
	if c.Pairs == 0 {
		c.Pairs = 100
	}
	if c.Samples == 0 {
		c.Samples = 1000
	}
}

// Fig6Pair records, for one pair, the sample index (1-based) at which the
// running minimum first came within each threshold of the final minimum.
type Fig6Pair struct {
	X, Y string
	// ToMin is the index of the sample equal to the overall minimum.
	ToMin int
	// Within1ms / Within1pct / Within5pct / Within10pct are the indices at
	// which the running minimum first entered each band.
	Within1ms, Within1pct, Within5pct, Within10pct int
}

// Fig6Result is the per-pair dataset behind the five CDFs of Figure 6.
type Fig6Result struct {
	Samples int
	Pairs   []Fig6Pair
}

// Series extracts one CDF's values by name: "min", "1ms", "1pct",
// "5pct", or "10pct".
func (r *Fig6Result) Series(name string) ([]float64, error) {
	out := make([]float64, 0, len(r.Pairs))
	for _, p := range r.Pairs {
		switch name {
		case "min":
			out = append(out, float64(p.ToMin))
		case "1ms":
			out = append(out, float64(p.Within1ms))
		case "1pct":
			out = append(out, float64(p.Within1pct))
		case "5pct":
			out = append(out, float64(p.Within5pct))
		case "10pct":
			out = append(out, float64(p.Within10pct))
		default:
			return nil, fmt.Errorf("experiments: unknown fig6 series %q", name)
		}
	}
	return out, nil
}

// Fig6 measures random pairs and tracks convergence of the running
// minimum.
func Fig6(cfg Fig6Config) (*Fig6Result, error) {
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

	res := &Fig6Result{Samples: cfg.Samples}
	for p := 0; p < cfg.Pairs; p++ {
		x, y := w.randomPair(rng)
		series, err := m.SampleSeries(context.Background(), x, y, cfg.Samples)
		if err != nil {
			return nil, err
		}
		res.Pairs = append(res.Pairs, convergence(x, y, series))
	}
	return res, nil
}

// convergence computes the first-entry indices for one sample series.
func convergence(x, y string, series []float64) Fig6Pair {
	min := series[0]
	for _, v := range series[1:] {
		if v < min {
			min = v
		}
	}
	p := Fig6Pair{X: x, Y: y}
	running := series[0]
	set := func(field *int, idx int, ok bool) {
		if *field == 0 && ok {
			*field = idx
		}
	}
	for i, v := range series {
		if v < running {
			running = v
		}
		idx := i + 1
		set(&p.ToMin, idx, running <= min)
		set(&p.Within1ms, idx, running <= min+1)
		set(&p.Within1pct, idx, running <= min*1.01)
		set(&p.Within5pct, idx, running <= min*1.05)
		set(&p.Within10pct, idx, running <= min*1.10)
	}
	return p
}
