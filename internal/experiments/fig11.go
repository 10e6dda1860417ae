package experiments

import (
	"context"
	"ting/internal/stats"
	"ting/internal/ting"
)

// Fig11Config parameterizes the all-pairs dataset behind every Section 5
// application: 50 random relays, all pairs measured with Ting.
type Fig11Config struct {
	Nodes   int // default 50
	Samples int // default 200
	Seed    int64
}

const fig11Workers = 4 // scanner parallelism

func (c *Fig11Config) setDefaults() {
	if c.Nodes == 0 {
		c.Nodes = 50
	}
	if c.Samples == 0 {
		c.Samples = 200
	}
}

// Fig11Result is the all-pairs matrix plus the world it came from (the
// later figures need ground truth and bandwidth weights).
type Fig11Result struct {
	World  *World
	Matrix *ting.Matrix
}

// RTTCDF is Figure 11 itself: the distribution of measured inter-node
// RTTs.
func (r *Fig11Result) RTTCDF() (*stats.CDF, error) {
	return stats.NewCDF(r.Matrix.PairValues())
}

// Weights returns each matrix relay's bandwidth, aligned with
// Matrix.Names.
func (r *Fig11Result) Weights() []float64 {
	out := make([]float64, len(r.Matrix.Names()))
	for i, name := range r.Matrix.Names() {
		out[i] = r.World.Topo.Node(r.World.NodeOf[name]).BandwidthKBps
	}
	return out
}

// Fig11 measures the all-pairs matrix with the parallel scanner.
func Fig11(cfg Fig11Config) (*Fig11Result, error) {
	cfg.setDefaults()
	w, err := NewWorld(cfg.Nodes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	sc := &ting.Scanner{
		NewMeasurer: func(worker int) (*ting.Measurer, error) {
			return w.Measurer(cfg.Samples, cfg.Seed+100+int64(worker))
		},
		Workers: fig11Workers,
		Shuffle: cfg.Seed + 4,
	}
	m, _, err := sc.Scan(context.Background(), w.Names)
	if err != nil {
		return nil, err
	}
	return &Fig11Result{World: w, Matrix: m}, nil
}
