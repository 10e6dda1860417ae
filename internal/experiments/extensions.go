package experiments

import (
	"math/rand"

	"ting/internal/deanon"
	"ting/internal/pathsel"
)

// Extensions: the paper's §5.1.3 defenses and the §5.2.2/§6 future-work
// circuit-selection algorithm, evaluated over the Figure 11 matrix.

// DefenseConfig parameterizes the defense studies.
type DefenseConfig struct {
	// PaddingLevels are the maximum per-relay padding values (ms) to
	// sweep. Default {0, 25, 50, 100, 200}.
	PaddingLevels []float64
	// Trials per configuration. Default 500.
	Trials int
	Seed   int64
}

func (c *DefenseConfig) setDefaults() {
	if len(c.PaddingLevels) == 0 {
		c.PaddingLevels = []float64{0, 25, 50, 100, 200}
	}
	if c.Trials == 0 {
		c.Trials = 500
	}
}

// defenseMaxLen is the upper bound for the randomized-length defense.
const defenseMaxLen = 6

// DefenseResult aggregates both defenses.
type DefenseResult struct {
	Padding []deanon.PaddingSweepPoint
	Fixed   *deanon.LengthDefensePoint // the undefended 3-hop baseline
	Random  *deanon.LengthDefensePoint // lengths randomized in [3, defenseMaxLen]
}

// Defenses evaluates latency padding and randomized circuit length against
// the RTT-informed attacker.
func Defenses(f11 *Fig11Result, cfg DefenseConfig) (*DefenseResult, error) {
	cfg.setDefaults()
	padding, err := deanon.PaddingSweep(f11.Matrix, cfg.PaddingLevels, cfg.Trials, cfg.Seed+21)
	if err != nil {
		return nil, err
	}
	fixed, err := deanon.LengthDefense(f11.Matrix, 3, 3, cfg.Trials, cfg.Seed+22)
	if err != nil {
		return nil, err
	}
	random, err := deanon.LengthDefense(f11.Matrix, 3, defenseMaxLen, cfg.Trials, cfg.Seed+22)
	if err != nil {
		return nil, err
	}
	return &DefenseResult{Padding: padding, Fixed: fixed, Random: random}, nil
}

// SelectionConfig parameterizes the low-latency longer-circuit study.
type SelectionConfig struct {
	// Lengths of the longer circuits to select. Default {4, 5}.
	Lengths []int
	// Baseline3Hop is how many random 3-hop circuits define the latency
	// budget (their median RTT). Default 5000.
	Baseline3Hop int
	// Select is how many qualifying circuits to gather per length.
	// Default 1000.
	Select int
	Seed   int64
}

func (c *SelectionConfig) setDefaults() {
	if len(c.Lengths) == 0 {
		c.Lengths = []int{4, 5}
	}
	if c.Baseline3Hop == 0 {
		c.Baseline3Hop = 5000
	}
	if c.Select == 0 {
		c.Select = 1000
	}
}

// SelectionRow is one length's outcome.
type SelectionRow struct {
	Length int
	// MedianRTT of the selected circuits; at or below BudgetMs by
	// construction.
	MedianRTT float64
	// Entropy of relay usage across the selection (1 = uniform).
	Entropy float64
	// Selected is how many qualifying circuits were found.
	Selected int
}

// SelectionResult reports whether longer circuits can match the 3-hop
// latency budget without collapsing anonymity.
type SelectionResult struct {
	BudgetMs        float64
	Baseline3Median float64
	Rows            []SelectionRow
}

// Selection runs the future-work algorithm: pick longer circuits within
// the 3-hop median latency budget and measure the selection's entropy.
func Selection(f11 *Fig11Result, cfg SelectionConfig) (*SelectionResult, error) {
	cfg.setDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed + 31))
	base, err := pathsel.SampleCircuits(f11.Matrix, 3, cfg.Baseline3Hop, rng)
	if err != nil {
		return nil, err
	}
	budget, err := pathsel.MedianRTT(base)
	if err != nil {
		return nil, err
	}
	res := &SelectionResult{BudgetMs: budget, Baseline3Median: budget}
	for _, l := range cfg.Lengths {
		sel, err := pathsel.SelectLowLatency(f11.Matrix, l, budget, cfg.Select, cfg.Select*500, rng)
		if err != nil {
			return nil, err
		}
		med, err := pathsel.MedianRTT(sel)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, SelectionRow{
			Length:    l,
			MedianRTT: med,
			Entropy:   pathsel.SelectionEntropy(sel, f11.Matrix.N()),
			Selected:  len(sel),
		})
	}
	return res, nil
}
