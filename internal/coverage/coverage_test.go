package coverage

import (
	"math"
	"sort"
	"testing"
	"time"
)

func TestClassifyKnownNames(t *testing.T) {
	cases := map[string]HostClass{
		"":                                   Unknown,
		"vps123.linode.com":                  HostingClass,
		"ec2-52-1-2-3.amazonaws.com":         HostingClass,
		"ns3001.ovh.net":                     HostingClass,
		"srv1.your-server.de":                HostingClass,
		"host.leaseweb.com":                  HostingClass,
		"pool-96-225-12-34.comcast.net":      ResidentialClass,
		"dyn-12-34-56-78.dsl.t-ipconnect.de": ResidentialClass,
		"cable-1-2-3-4.virginm.net":          ResidentialClass,
		"12-34-56-78.cust.orange.fr":         ResidentialClass,
		"dhcp-123.someisp.example":           ResidentialClass, // keyword + digits
		"tor3.cs.uni-ka.edu":                 UniversityClass,
		"relay.mit.edu":                      UniversityClass,
		"static.example.org":                 Unknown,
		"mail.corporate.example":             Unknown,
		"pool.without.digits.example":        Unknown, // keyword but no digits
		"vps-9-9.digitalocean.com":           HostingClass,
		"PoOl-96-1-2-3.COMCAST.NET":          ResidentialClass, // case-insensitive
		"node1.cloudatcost.com":              HostingClass,
	}
	for name, want := range cases {
		if got := Classify(name); got != want {
			t.Errorf("Classify(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestHostClassString(t *testing.T) {
	if ResidentialClass.String() != "residential" || HostingClass.String() != "hosting" ||
		UniversityClass.String() != "university" || Unknown.String() != "unknown" {
		t.Error("class names wrong")
	}
}

func TestCount(t *testing.T) {
	names := []string{
		"", "",
		"pool-1-2-3-4.comcast.net",
		"vps1.linode.com",
		"tor.uni-xy.edu",
		"opaque.example",
	}
	c := Count(names)
	if c.NoRDNS != 2 || c.Residential != 1 || c.Hosting != 1 || c.University != 1 || c.Unknown != 1 {
		t.Errorf("counts = %+v", c)
	}
	if c.Total() != 6 {
		t.Errorf("Total = %d", c.Total())
	}
	if got := c.ResidentialFractionOfNamed(); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("ResidentialFractionOfNamed = %v, want 0.25", got)
	}
	if (ClassCounts{}).ResidentialFractionOfNamed() != 0 {
		t.Error("empty counts fraction should be 0")
	}
}

func TestSynthesizeHistoryShape(t *testing.T) {
	snaps := SynthesizeHistory(HistoryConfig{Seed: 1, Days: 30, InitialRelays: 3000})
	if len(snaps) != 30 {
		t.Fatalf("%d snapshots", len(snaps))
	}
	if !snaps[0].Date.Equal(time.Date(2015, 2, 28, 0, 0, 0, 0, time.UTC)) {
		t.Errorf("start date %v", snaps[0].Date)
	}
	if !snaps[1].Date.Equal(snaps[0].Date.AddDate(0, 0, 1)) {
		t.Error("snapshots not daily")
	}
	first, last := len(snaps[0].Relays), len(snaps[len(snaps)-1].Relays)
	if first != 3000 {
		t.Errorf("day-0 population %d", first)
	}
	if last <= first {
		t.Errorf("population did not grow: %d → %d", first, last)
	}
	for _, s := range snaps {
		u := s.Unique24s()
		if u <= 0 || u > len(s.Relays) {
			t.Fatalf("unique /24s %d vs %d relays", u, len(s.Relays))
		}
		// Hosting prefix sharing must pull /24s visibly below relay count.
		if float64(u) > 0.98*float64(len(s.Relays)) {
			t.Fatalf("no prefix clustering: %d /24s for %d relays", u, len(s.Relays))
		}
	}
}

func TestHistoryMatchesPaperScale(t *testing.T) {
	// Figure 18: 5426–6044 unique /24s with ~6400–7000 running relays.
	snaps := SynthesizeHistory(HistoryConfig{Seed: 2})
	pts := Summarize(snaps)
	if len(pts) != 60 {
		t.Fatalf("%d points", len(pts))
	}
	for _, p := range pts {
		if p.Relays < 6000 || p.Relays > 7500 {
			t.Errorf("%s: %d relays outside the paper's window", p.Date.Format("01-02"), p.Relays)
		}
		if p.Unique24s < 4800 || p.Unique24s > 6500 {
			t.Errorf("%s: %d /24s outside the paper's 5426–6044 regime", p.Date.Format("01-02"), p.Unique24s)
		}
		if p.Unique24s >= p.Relays {
			t.Errorf("%s: /24s ≥ relays", p.Date.Format("01-02"))
		}
	}
}

func TestHistoryChurnChangesMembership(t *testing.T) {
	snaps := SynthesizeHistory(HistoryConfig{Seed: 3, Days: 10, InitialRelays: 1000})
	first := map[string]bool{}
	for _, r := range snaps[0].Relays {
		first[r.Fingerprint] = true
	}
	lost := 0
	for _, r := range snaps[9].Relays {
		if !first[r.Fingerprint] {
			lost++
		}
	}
	if lost == 0 {
		t.Error("no churn over 10 days")
	}
}

func TestSynthesizedRDNSClassifiesBack(t *testing.T) {
	// The classifier applied to the synthetic corpus must recover the
	// paper's ~61% residential share of named relays.
	snaps := SynthesizeHistory(HistoryConfig{Seed: 4, Days: 1})
	names := make([]string, 0, len(snaps[0].Relays))
	for _, r := range snaps[0].Relays {
		names = append(names, r.RDNS)
	}
	c := Count(names)
	frac := c.ResidentialFractionOfNamed()
	t.Logf("classified residential fraction: %.3f (paper: 0.61)", frac)
	if math.Abs(frac-0.61) > 0.06 {
		t.Errorf("residential fraction %.3f, want ≈ 0.61", frac)
	}
	noRDNS := float64(c.NoRDNS) / float64(c.Total())
	if math.Abs(noRDNS-0.17) > 0.04 {
		t.Errorf("no-rDNS fraction %.3f, want ≈ 0.17", noRDNS)
	}
	if c.Hosting == 0 || c.University == 0 {
		t.Error("hosting/university classes missing from corpus")
	}
}

func TestSynthesisDeterministic(t *testing.T) {
	a := SynthesizeHistory(HistoryConfig{Seed: 5, Days: 3, InitialRelays: 200})
	b := SynthesizeHistory(HistoryConfig{Seed: 5, Days: 3, InitialRelays: 200})
	for d := range a {
		if len(a[d].Relays) != len(b[d].Relays) {
			t.Fatalf("day %d: different sizes", d)
		}
		for i := range a[d].Relays {
			if a[d].Relays[i] != b[d].Relays[i] {
				t.Fatalf("day %d relay %d differs", d, i)
			}
		}
	}
}

func TestPrefix24(t *testing.T) {
	r := RelayRecord{IP: [4]byte{10, 20, 30, 40}}
	if r.Prefix24() != "10.20.30" {
		t.Errorf("Prefix24 = %q", r.Prefix24())
	}
}

// countryCount is one country's relay count.
type countryCount struct {
	Code  string
	Count int
}

// countryCounts tallies the snapshot's relays per country, descending.
func (s Snapshot) countryCounts() []countryCount {
	m := make(map[string]int)
	for _, r := range s.Relays {
		if r.Country != "" {
			m[r.Country]++
		}
	}
	out := make([]countryCount, 0, len(m))
	for c, n := range m {
		out = append(out, countryCount{Code: c, Count: n})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Count != out[b].Count {
			return out[a].Count > out[b].Count
		}
		return out[a].Code < out[b].Code
	})
	return out
}

func TestGeographicCoverage(t *testing.T) {
	// §5.3: "Tor Metrics reported 77 countries with relays in November
	// 2014". A full-size synthetic snapshot should cover a comparable
	// spread, dominated by the usual heavy hosts.
	snaps := SynthesizeHistory(HistoryConfig{Seed: 6, Days: 1})
	s := snaps[0]
	countries := s.Countries()
	t.Logf("countries with relays: %d (paper: 77)", countries)
	if countries < 60 || countries > 85 {
		t.Errorf("country count %d outside the paper's regime", countries)
	}
	counts := s.countryCounts()
	if len(counts) != countries {
		t.Errorf("countryCounts has %d entries for %d countries", len(counts), countries)
	}
	for i := 1; i < len(counts); i++ {
		if counts[i].Count > counts[i-1].Count {
			t.Fatal("countryCounts not descending")
		}
	}
	// The familiar heavy hitters must dominate.
	top := map[string]bool{counts[0].Code: true, counts[1].Code: true, counts[2].Code: true}
	if !top["de"] && !top["us"] {
		t.Errorf("top-3 countries %v do not include de/us", counts[:3])
	}
	// And a long tail of small countries exists.
	small := 0
	for _, c := range counts {
		if c.Count <= 3 {
			small++
		}
	}
	if small < 10 {
		t.Errorf("only %d small-tail countries", small)
	}
}

func TestCountrySamplingDeterministic(t *testing.T) {
	tbl := newCountryTable()
	for _, x := range []int{0, 1, 500, 999999} {
		if tbl.pick(x) != tbl.pick(x) {
			t.Fatal("pick not deterministic")
		}
	}
	if (Snapshot{}).Countries() != 0 {
		t.Error("empty snapshot has countries")
	}
}

func TestMeasurementTargets(t *testing.T) {
	snaps := SynthesizeHistory(HistoryConfig{Seed: 7, Days: 1, InitialRelays: 3000})
	s := snaps[0]

	all := MeasurementTargets(s, TargetOptions{})
	if len(all) != s.Unique24s() {
		t.Errorf("targets %d != unique /24s %d", len(all), s.Unique24s())
	}
	seen := map[string]bool{}
	for _, r := range all {
		p := r.Prefix24()
		if seen[p] {
			t.Fatalf("prefix %s has two targets", p)
		}
		seen[p] = true
	}
	// Deterministic.
	again := MeasurementTargets(s, TargetOptions{})
	for i := range all {
		if all[i] != again[i] {
			t.Fatal("target selection not deterministic")
		}
	}

	res := MeasurementTargets(s, TargetOptions{ResidentialOnly: true})
	if len(res) == 0 {
		t.Fatal("no residential targets")
	}
	for _, r := range res {
		if Classify(r.RDNS) != ResidentialClass {
			t.Fatalf("non-residential target %q", r.RDNS)
		}
	}

	rep := ReportTargets(res)
	if rep.Targets != len(res) || rep.Residential != len(res) {
		t.Errorf("report %+v inconsistent with %d residential targets", rep, len(res))
	}
	if rep.Countries < 10 {
		t.Errorf("residential targets cover only %d countries", rep.Countries)
	}
	if rep.Prefixes != len(res) {
		t.Errorf("report prefixes %d != targets %d", rep.Prefixes, len(res))
	}
}
