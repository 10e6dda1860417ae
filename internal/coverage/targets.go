package coverage

import (
	"sort"
)

// Measurement-target selection for "Ting as a measurement platform"
// (§5.3): to measure latency between *networks* rather than relays, pick
// one representative relay per /24 prefix. The paper's pitch is exactly
// this — "the Tor node representing a prefix is a member of that prefix" —
// which is Ting's accuracy advantage over King's better-connected
// resolvers.

// TargetOptions filters target selection.
type TargetOptions struct {
	// ResidentialOnly keeps only relays whose reverse DNS classifies as
	// residential — the population the paper highlights as otherwise
	// unmeasurable ("unique insight into measurements within residential
	// networks", §6).
	ResidentialOnly bool
}

// MeasurementTargets returns one relay per /24 prefix from the snapshot,
// deterministically (lowest fingerprint wins), subject to opts.
func MeasurementTargets(s Snapshot, opts TargetOptions) []RelayRecord {
	best := make(map[string]RelayRecord)
	for _, r := range s.Relays {
		if opts.ResidentialOnly && Classify(r.RDNS) != ResidentialClass {
			continue
		}
		p := r.Prefix24()
		cur, ok := best[p]
		if !ok || r.Fingerprint < cur.Fingerprint {
			best[p] = r
		}
	}
	out := make([]RelayRecord, 0, len(best))
	for _, r := range best {
		out = append(out, r)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Fingerprint < out[b].Fingerprint })
	return out
}

// CoverageReport summarizes what a target set reaches.
type CoverageReport struct {
	Targets     int
	Prefixes    int
	Countries   int
	Residential int
}

// ReportTargets computes coverage statistics over a target set.
func ReportTargets(targets []RelayRecord) CoverageReport {
	prefixes := make(map[string]struct{})
	countries := make(map[string]struct{})
	rep := CoverageReport{Targets: len(targets)}
	for _, r := range targets {
		prefixes[r.Prefix24()] = struct{}{}
		if r.Country != "" {
			countries[r.Country] = struct{}{}
		}
		if Classify(r.RDNS) == ResidentialClass {
			rep.Residential++
		}
	}
	rep.Prefixes = len(prefixes)
	rep.Countries = len(countries)
	return rep
}
