package coverage

import (
	"fmt"
	"math/rand"
	"time"

	"ting/internal/inet"
)

// RelayRecord is one relay as seen in a consensus snapshot.
type RelayRecord struct {
	Fingerprint string
	IP          [4]byte
	RDNS        string // empty if the address has no reverse DNS
	Class       inet.Class
	// Country is the relay's ISO 3166-1 alpha-2 country code.
	Country string
}

// Prefix24 returns the relay's /24 prefix as "a.b.c".
func (r RelayRecord) Prefix24() string {
	return fmt.Sprintf("%d.%d.%d", r.IP[0], r.IP[1], r.IP[2])
}

// Snapshot is one day's consensus.
type Snapshot struct {
	Date   time.Time
	Relays []RelayRecord
}

// Unique24s counts distinct /24 prefixes in the snapshot.
func (s Snapshot) Unique24s() int {
	seen := make(map[string]struct{}, len(s.Relays))
	for _, r := range s.Relays {
		seen[r.Prefix24()] = struct{}{}
	}
	return len(seen)
}

// HistoryConfig parameterizes consensus-history synthesis.
type HistoryConfig struct {
	// Start is the first snapshot date; the paper's window starts
	// 2015-02-28.
	Start time.Time
	// Days is the number of daily snapshots (paper: ~60).
	Days int
	// InitialRelays is the population on day one (paper: ~6400 running
	// relays). Default 6400.
	InitialRelays int
	// Seed drives the synthesis.
	Seed int64
}

// The synthesized population's dynamics and make-up.
const (
	// dailyChurn is the fraction of relays leaving (and a slightly larger
	// fraction joining, for net growth) each day.
	dailyChurn = 0.02
	// dailyGrowth is the net daily population growth rate (≈ +9% over 60
	// days; the paper reports ~30% growth year over year).
	dailyGrowth = 0.0015
	// noRDNSFraction is the fraction of relays without reverse DNS (1150 of
	// 6634 in the paper).
	noRDNSFraction = 0.17
	// residentialFraction is the residential share of named relays.
	residentialFraction = 0.61
)

func (c *HistoryConfig) setDefaults() {
	if c.Start.IsZero() {
		c.Start = time.Date(2015, 2, 28, 0, 0, 0, 0, time.UTC)
	}
	if c.Days == 0 {
		c.Days = 60
	}
	if c.InitialRelays == 0 {
		c.InitialRelays = 6400
	}
}

// SynthesizeHistory builds a daily consensus history with churn. Relays
// get IPs whose /24 clustering matches their class: hosting providers pack
// many relays per prefix, while residential relays scatter — which is what
// makes the unique-/24 count (Figure 18) sit visibly below the relay
// count.
func SynthesizeHistory(cfg HistoryConfig) []Snapshot {
	cfg.setDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	gen := newRelayGen(rng)

	pop := make([]RelayRecord, 0, cfg.InitialRelays)
	for i := 0; i < cfg.InitialRelays; i++ {
		pop = append(pop, gen.newRelay())
	}

	snaps := make([]Snapshot, 0, cfg.Days)
	for d := 0; d < cfg.Days; d++ {
		date := cfg.Start.AddDate(0, 0, d)
		cp := make([]RelayRecord, len(pop))
		copy(cp, pop)
		snaps = append(snaps, Snapshot{Date: date, Relays: cp})

		// Churn for the next day.
		kept := pop[:0]
		for _, r := range pop {
			if rng.Float64() >= dailyChurn {
				kept = append(kept, r)
			}
		}
		pop = kept
		target := int(float64(cfg.InitialRelays) * pow(1+dailyGrowth, d+1))
		for len(pop) < target {
			pop = append(pop, gen.newRelay())
		}
	}
	return snaps
}

func pow(base float64, n int) float64 {
	out := 1.0
	for i := 0; i < n; i++ {
		out *= base
	}
	return out
}

// relayGen synthesizes relays with class-appropriate IPs and rDNS names.
type relayGen struct {
	rng       *rand.Rand
	next      int
	countries *countryTable
	// hostingPrefixes is a small pool of /24s shared by hosting relays.
	hostingPrefixes [][3]byte
}

func newRelayGen(rng *rand.Rand) *relayGen {
	g := &relayGen{rng: rng, countries: newCountryTable()}
	for i := 0; i < 600; i++ {
		g.hostingPrefixes = append(g.hostingPrefixes,
			[3]byte{byte(5 + rng.Intn(180)), byte(rng.Intn(256)), byte(rng.Intn(256))})
	}
	return g
}

func (g *relayGen) newRelay() RelayRecord {
	g.next++
	r := RelayRecord{
		Fingerprint: fmt.Sprintf("FP%08d", g.next),
		Country:     g.countries.pick(g.rng.Intn(1 << 30)),
	}
	noRDNS := g.rng.Float64() < noRDNSFraction
	residential := g.rng.Float64() < residentialFraction
	switch {
	case residential:
		r.Class = inet.Residential
		// Residential relays scatter across many prefixes.
		r.IP = [4]byte{byte(60 + g.rng.Intn(150)), byte(g.rng.Intn(256)),
			byte(g.rng.Intn(256)), byte(1 + g.rng.Intn(254))}
		if !noRDNS {
			r.RDNS = g.residentialName(r.IP)
		}
	case g.rng.Float64() < 0.8:
		r.Class = inet.Datacenter
		if g.rng.Float64() < 0.5 {
			// Half the hosted relays share provider /24s; the rest land in
			// prefixes of their own, as with smaller VPS shops.
			p := g.hostingPrefixes[g.rng.Intn(len(g.hostingPrefixes))]
			r.IP = [4]byte{p[0], p[1], p[2], byte(1 + g.rng.Intn(254))}
		} else {
			r.IP = [4]byte{byte(5 + g.rng.Intn(180)), byte(g.rng.Intn(256)),
				byte(g.rng.Intn(256)), byte(1 + g.rng.Intn(254))}
		}
		if !noRDNS {
			r.RDNS = g.hostingName(r.IP)
		}
	default:
		r.Class = inet.University
		r.IP = [4]byte{byte(128 + g.rng.Intn(60)), byte(g.rng.Intn(256)),
			byte(g.rng.Intn(256)), byte(1 + g.rng.Intn(254))}
		if !noRDNS {
			r.RDNS = fmt.Sprintf("tor%d.cs.uni-%c%c.edu", g.next%97,
				'a'+rune(g.rng.Intn(26)), 'a'+rune(g.rng.Intn(26)))
		}
	}
	return r
}

func (g *relayGen) residentialName(ip [4]byte) string {
	suffix := residentialSuffixes[g.rng.Intn(len(residentialSuffixes))]
	styles := []string{
		"pool-%d-%d-%d-%d.%s",
		"dyn-%d-%d-%d-%d.dsl.%s",
		"cable-%d-%d-%d-%d.%s",
		"%d-%d-%d-%d.cust.%s",
	}
	style := styles[g.rng.Intn(len(styles))]
	return fmt.Sprintf(style, ip[0], ip[1], ip[2], ip[3], suffix)
}

func (g *relayGen) hostingName(ip [4]byte) string {
	domain := hostingDomains[g.rng.Intn(len(hostingDomains))]
	return fmt.Sprintf("vps-%d-%d.%s", ip[2], ip[3], domain)
}

// HistoryPoint is one Figure 18 data point.
type HistoryPoint struct {
	Date      time.Time
	Relays    int
	Unique24s int
}

// Summarize turns snapshots into Figure 18's two series.
func Summarize(snaps []Snapshot) []HistoryPoint {
	out := make([]HistoryPoint, 0, len(snaps))
	for _, s := range snaps {
		out = append(out, HistoryPoint{Date: s.Date, Relays: len(s.Relays), Unique24s: s.Unique24s()})
	}
	return out
}
