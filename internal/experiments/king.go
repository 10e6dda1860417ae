package experiments

import (
	"context"
	"math/rand"

	"ting/internal/geo"
	"ting/internal/stats"
)

// KingConfig parameterizes the comparison against King (Gummadi et al.,
// IMW 2002), the technique Ting is modeled on (§2, §4.2). King estimated
// the latency between two hosts as the latency between *recursive DNS
// servers near them* — servers that "may be much better connected or
// remote" (§5.3), which is why King's accuracy CDF skews left of 1 while
// Ting's is centered (§4.2 cites King's Figure 5).
type KingConfig struct {
	Nodes   int // testbed size; default 31
	Pairs   int // pairs compared; default 200
	Samples int // Ting samples per circuit; default 200
	Seed    int64
}

// kingResolverKm bounds how far each host's name server sits from it.
const kingResolverKm = 300

func (c *KingConfig) setDefaults() {
	if c.Nodes == 0 {
		c.Nodes = 31
	}
	if c.Pairs == 0 {
		c.Pairs = 200
	}
	if c.Samples == 0 {
		c.Samples = 200
	}
}

// KingResult holds both estimators' ratio-to-truth distributions.
type KingResult struct {
	TingRatios []float64
	KingRatios []float64
}

// TingWithin10 and KingWithin10 are the headline accuracies.
func (r *KingResult) TingWithin10() float64 { return stats.FractionWithin(r.TingRatios, 0.1) }

// KingWithin10 reports King's accuracy at the 10% band.
func (r *KingResult) KingWithin10() float64 { return stats.FractionWithin(r.KingRatios, 0.1) }

// KingMedianRatio exposes the skew: King's median sits below 1.
func (r *KingResult) KingMedianRatio() (float64, error) { return stats.Median(r.KingRatios) }

// KingComparison runs Ting and a King-style estimator over the same pairs
// of the testbed world and returns ratio-to-ground-truth distributions.
func KingComparison(cfg KingConfig) (*KingResult, error) {
	cfg.setDefaults()
	w, err := NewTestbedWorld(cfg.Nodes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	m, err := w.Measurer(cfg.Samples, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 2))

	// Each host's resolver: displaced up to kingResolverKm, and well connected
	// (datacenter access, little routing inflation) — the property that
	// biases King low.
	type resolver struct {
		coord    geo.Coord
		accessMs float64
		infl     float64
	}
	resolvers := make(map[string]resolver, len(w.Names))
	for _, name := range w.Names {
		c := w.Topo.Node(w.NodeOf[name]).Coord
		// ~1 degree ≈ 111 km; displace within the radius.
		degMax := kingResolverKm / 111.0
		rc := geo.Coord{
			Lat: clampLat(c.Lat + (rng.Float64()*2-1)*degMax),
			Lon: c.Lon + (rng.Float64()*2-1)*degMax,
		}
		resolvers[name] = resolver{
			coord:    rc,
			accessMs: 0.2 + rng.Float64()*0.8,
			infl:     1 + 0.15 + rng.Float64()*0.35, // well-peered paths
		}
	}

	res := &KingResult{}
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
		res.TingRatios = append(res.TingRatios, meas.RTT/truth)

		rx, ry := resolvers[x], resolvers[y]
		king := geo.MinRTTMs(rx.coord, ry.coord)*((rx.infl+ry.infl)/2) +
			rx.accessMs + ry.accessMs + rng.ExpFloat64()*0.3
		res.KingRatios = append(res.KingRatios, king/truth)
	}
	return res, nil
}

func clampLat(v float64) float64 {
	if v > 89 {
		return 89
	}
	if v < -89 {
		return -89
	}
	return v
}
