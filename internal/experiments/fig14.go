package experiments

import "ting/internal/pathsel"

// Fig14Result is the TIV study over the all-pairs matrix.
type Fig14Result struct {
	Summary pathsel.TIVSummary
	TIVs    []pathsel.TIV
}

// Fig14 finds every pair's best triangle-inequality-violating detour.
func Fig14(f11 *Fig11Result) (*Fig14Result, error) {
	tivs, err := pathsel.FindTIVs(f11.Matrix)
	if err != nil {
		return nil, err
	}
	sum, err := pathsel.SummarizeTIVs(f11.Matrix)
	if err != nil {
		return nil, err
	}
	return &Fig14Result{Summary: sum, TIVs: tivs}, nil
}

// Fig15Point is one TIV as Figure 15 plots it: default-path RTT versus
// detour RTT.
type Fig15Point struct {
	DirectMs float64
	DetourMs float64
}

// Fig15 extracts the scatter from the Figure 14 TIVs.
func Fig15(f14 *Fig14Result) []Fig15Point {
	out := make([]Fig15Point, 0, len(f14.TIVs))
	for _, t := range f14.TIVs {
		out = append(out, Fig15Point{DirectMs: t.DirectMs, DetourMs: t.DetourMs})
	}
	return out
}

// Fig16Config parameterizes the longer-circuits study (§5.2.2).
type Fig16Config struct {
	Lengths []int // default 3..10
	Samples int   // circuits sampled per length; default 10000
	Seed    int64
}

func (c *Fig16Config) setDefaults() {
	if len(c.Lengths) == 0 {
		c.Lengths = []int{3, 4, 5, 6, 7, 8, 9, 10}
	}
	if c.Samples == 0 {
		c.Samples = 10000
	}
}

// Fig16Result carries per-length circuit-count histograms (Figure 16) and
// node-membership probabilities (Figure 17).
type Fig16Result struct {
	Lengths []pathsel.LengthHistogram
}

// Fig16 samples circuits of each length over the all-pairs matrix.
func Fig16(f11 *Fig11Result, cfg Fig16Config) (*Fig16Result, error) {
	cfg.setDefaults()
	lhs, err := pathsel.AnalyzeLengths(f11.Matrix, cfg.Lengths, cfg.Samples, cfg.Seed+13)
	if err != nil {
		return nil, err
	}
	return &Fig16Result{Lengths: lhs}, nil
}
