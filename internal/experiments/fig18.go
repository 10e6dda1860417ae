package experiments

import (
	"ting/internal/coverage"
)

// Fig18Config parameterizes the coverage study (§5.3).
type Fig18Config struct {
	Days   int // default 60 (Feb 28 – Apr 28, 2015)
	Relays int // initial population; default 6400
	Seed   int64
}

// Fig18Result carries the daily series plus the rDNS classification and
// geographic coverage of the final snapshot.
type Fig18Result struct {
	Points  []coverage.HistoryPoint
	Classes coverage.ClassCounts
	// Countries is the number of countries with at least one relay
	// (paper: 77 in November 2014).
	Countries int
	// Residential is what the final snapshot offers as a measurement
	// platform for residential networks (§5.3, §6): one representative
	// relay per /24 whose reverse DNS classifies as residential.
	Residential coverage.CoverageReport
}

// Fig18 synthesizes the consensus history and classifies the relay
// population.
func Fig18(cfg Fig18Config) (*Fig18Result, error) {
	snaps := coverage.SynthesizeHistory(coverage.HistoryConfig{
		Days:          cfg.Days,
		InitialRelays: cfg.Relays,
		Seed:          cfg.Seed,
	})
	last := snaps[len(snaps)-1]
	names := make([]string, 0, len(last.Relays))
	for _, r := range last.Relays {
		names = append(names, r.RDNS)
	}
	return &Fig18Result{
		Points:    coverage.Summarize(snaps),
		Classes:   coverage.Count(names),
		Countries: last.Countries(),
		Residential: coverage.ReportTargets(
			coverage.MeasurementTargets(last, coverage.TargetOptions{ResidentialOnly: true})),
	}, nil
}
