// Package experiments reproduces every figure of the paper's evaluation
// (Figures 3–18) plus its headline numbers and the ablations DESIGN.md
// calls out. Each figure is a plain function returning typed rows, so the
// CLI (cmd/experiments), the test suite, and the benchmarks share one
// implementation.
//
// All experiments run against the synthetic Internet (package inet) via
// the model-direct prober: the full onion-routing stack produces the same
// numbers (see ting's stack tests) but the paper-scale sweeps need
// millions of samples.
package experiments

import (
	"fmt"
	"math/rand"

	"ting/internal/geo"
	"ting/internal/inet"
	"ting/internal/ting"
)

// World is a measurement setup: a synthetic Internet, a measurement host,
// and the two colocated local relays w and z. Every prober Prober returns
// reads NodeOf in place, so it is not changed after the world is built.
type World struct {
	Topo   *inet.Topology
	Host   inet.NodeID
	W, Z   string
	NodeOf map[string]inet.NodeID
	// Names lists the public relay names (topology nodes only).
	Names []string
}

// NewWorld generates an n-relay world with deterministic seed, with the
// live Tor network's US/EU-concentrated geography.
func NewWorld(n int, seed int64) (*World, error) {
	return newWorld(inet.Config{N: n, Seed: seed})
}

// NewTestbedWorld generates a world shaped like the paper's PlanetLab
// testbed (§4.1): nodes spread evenly across all regions so pair RTTs
// cover ~0ms to nearly antipodal.
func NewTestbedWorld(n int, seed int64) (*World, error) {
	return newWorld(inet.Config{N: n, Seed: seed, FlatRegions: true})
}

// newWorld generates a world from a topology config.
func newWorld(cfg inet.Config) (*World, error) {
	topo, err := inet.Generate(cfg)
	if err != nil {
		return nil, err
	}
	host := topo.AddHost("ting-host", geo.Coord{Lat: 38.99, Lon: -76.94}, cfg.Seed+7)
	w := topo.AddColocated(host, "ting-w")
	z := topo.AddColocated(host, "ting-z")
	world := &World{
		Topo:   topo,
		Host:   host,
		W:      "ting-w",
		Z:      "ting-z",
		NodeOf: map[string]inet.NodeID{"ting-w": w, "ting-z": z},
	}
	for i := 0; i < cfg.N; i++ {
		name := topo.Node(inet.NodeID(i)).Name
		world.NodeOf[name] = inet.NodeID(i)
		world.Names = append(world.Names, name)
	}
	return world, nil
}

// Prober returns a fresh model prober with its own randomness.
func (w *World) Prober(seed int64) *ting.ModelProber {
	return ting.NewModelProber(w.Topo, w.Host, w.NodeOf, seed)
}

// Measurer returns a Ting measurer over a fresh prober.
func (w *World) Measurer(samples int, seed int64) (*ting.Measurer, error) {
	return ting.NewMeasurer(ting.Config{
		Prober:  w.Prober(seed),
		W:       w.W,
		Z:       w.Z,
		Samples: samples,
	})
}

// ExactMeasurer returns a measurer over a deterministic floor prober:
// samples carry no queueing noise or jitter, so a pair's measured RTT
// depends only on the topology — the property distributed campaigns need
// for their merged matrix to be bytewise equal to a single-process scan.
func (w *World) ExactMeasurer(samples int) (*ting.Measurer, error) {
	p := w.Prober(0)
	p.Exact = true
	return ting.NewMeasurer(ting.Config{
		Prober:  p,
		W:       w.W,
		Z:       w.Z,
		Samples: samples,
	})
}

// TrueRTT returns the ground-truth RTT between two named relays.
func (w *World) TrueRTT(x, y string) (float64, error) {
	xi, ok := w.NodeOf[x]
	if !ok {
		return 0, fmt.Errorf("experiments: unknown relay %q", x)
	}
	yi, ok := w.NodeOf[y]
	if !ok {
		return 0, fmt.Errorf("experiments: unknown relay %q", y)
	}
	return w.Topo.RTT(xi, yi), nil
}

// randomPair draws two distinct relay names uniformly, redrawing the second
// until it differs from the first.
func (w *World) randomPair(rng *rand.Rand) (x, y string) {
	xi := rng.Intn(len(w.Names))
	yi := xi
	for yi == xi {
		yi = rng.Intn(len(w.Names))
	}
	return w.Names[xi], w.Names[yi]
}

// PingTruth returns the paper's notion of "real" RTT for a pair: the
// minimum of n direct ping samples between the two relays (§4.2 used 100
// pings as ground truth). On protocol-biased networks this differs from
// the Tor-path RTT — exactly as on PlanetLab.
func (w *World) PingTruth(p *ting.ModelProber, x, y string, n int) (float64, error) {
	best := 0.0
	for i := 0; i < n; i++ {
		v, err := p.PingBetween(x, y)
		if err != nil {
			return 0, err
		}
		if i == 0 || v < best {
			best = v
		}
	}
	return best, nil
}
