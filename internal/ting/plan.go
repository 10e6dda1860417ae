package ting

import (
	"errors"
	"fmt"
	"time"
)

// Campaign planning: §4.4 and §4.6 frame the practical cost of Ting at
// scale — "Ting took an average of 2.5 minutes to measure a pair using 200
// samples … if one were willing to accept 5% error, then Ting could
// measure a pair in less than 15 seconds", and "an all-pairs matrix can be
// time-consuming to calculate". CampaignPlan turns those knobs into a
// projected duration for a scan over any relay population.

// CampaignConfig describes a planned measurement campaign.
type CampaignConfig struct {
	// Relays is the population size (all-pairs scans measure
	// Relays·(Relays−1)/2 pairs).
	Relays int
	// Pairs overrides the pair count for non-all-pairs campaigns (0 means
	// all pairs of Relays).
	Pairs int
	// Samples per circuit; three circuits per pair (C_xy, C_x, C_y).
	// Default DefaultSamples (200).
	Samples int
	// MeanRTT is the expected mean circuit RTT (one sample costs one
	// round trip). Default 300ms, a typical full-circuit figure from the
	// paper's live measurements.
	MeanRTT time.Duration
	// Parallel is how many measurements run concurrently — one per vantage
	// point or per control session. Default 1.
	Parallel int
	// Memoized models §4.6 half-circuit memoization: min R_Cx depends only
	// on x, so an all-pairs campaign samples Pairs + Relays circuit series
	// (one C_xy per pair, one C_x per relay) instead of 3·Pairs. Requires
	// Relays, since the half-circuit count is the relay population.
	Memoized bool
	// Budget, if positive, models a ScanBudget campaign: only Budget pairs
	// are measured (the coordinate embedding completes the rest for free),
	// so the effective pair count is min(Budget, Pairs). Composes with
	// Memoized — a budgeted memoized campaign samples Budget + Relays
	// series.
	Budget int
}

func (c *CampaignConfig) setDefaults() error {
	if c.Pairs == 0 {
		if c.Relays < 2 {
			return errors.New("ting: campaign needs Relays ≥ 2 or explicit Pairs")
		}
		c.Pairs = c.Relays * (c.Relays - 1) / 2
	}
	if c.Pairs <= 0 {
		return fmt.Errorf("ting: campaign pairs %d", c.Pairs)
	}
	if c.Samples == 0 {
		c.Samples = DefaultSamples
	}
	if c.Samples < 0 {
		return fmt.Errorf("ting: campaign samples %d", c.Samples)
	}
	if c.MeanRTT == 0 {
		c.MeanRTT = 300 * time.Millisecond
	}
	if c.Parallel <= 0 {
		c.Parallel = 1
	}
	if c.Budget < 0 {
		return fmt.Errorf("ting: campaign budget %d", c.Budget)
	}
	if c.Budget > 0 && c.Budget < c.Pairs {
		c.Pairs = c.Budget
	}
	return nil
}

// buildRTTs is the round trips spent building circuits per pair. Each
// handshake costs one, so the three builds of the literal procedure —
// (w,x,y,z)+(w,x)+(w,y), what a control-port session does — cost 8. It is an
// upper bound for a reusing prober (StackProber.Reuse), which reshapes one
// circuit instead: ≈2 handshake round trips a pair inside a first-endpoint
// group, 3–5 for a pair that also samples a half circuit or starts a group.
const buildRTTs = 8

// CampaignPlan is the projected cost.
type CampaignPlan struct {
	Pairs   int
	PerPair time.Duration
	Total   time.Duration
}

// PlanCampaign projects the wall-clock cost of a campaign. Echo probes are
// pipelined one-at-a-time per circuit (each costs one circuit RTT), which
// matches the paper's measured per-pair times within ~20%. With Memoized
// set, PerPair is the campaign average: pairs sharing an endpoint with an
// already-measured pair skip the shared half circuits, so early pairs cost
// more than late ones.
func PlanCampaign(cfg CampaignConfig) (*CampaignPlan, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	if cfg.Memoized {
		if cfg.Relays < 2 {
			return nil, errors.New("ting: memoized campaign needs Relays (the half-circuit count)")
		}
		series := cfg.Pairs + cfg.Relays
		total := time.Duration(int64(series*cfg.Samples+cfg.Pairs*buildRTTs) *
			int64(cfg.MeanRTT) / int64(cfg.Parallel))
		perPair := time.Duration(int64(total) * int64(cfg.Parallel) / int64(cfg.Pairs))
		return &CampaignPlan{Pairs: cfg.Pairs, PerPair: perPair, Total: total}, nil
	}
	perPair := time.Duration(3*cfg.Samples+buildRTTs) * cfg.MeanRTT
	total := time.Duration(int64(perPair) * int64(cfg.Pairs) / int64(cfg.Parallel))
	return &CampaignPlan{Pairs: cfg.Pairs, PerPair: perPair, Total: total}, nil
}
