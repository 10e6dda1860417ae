package coverage

import "sort"

// Geographic coverage, the first of §5.3's three dimensions: "Tor Metrics
// reported 77 countries with relays in November 2014." The synthetic
// history assigns each relay a country drawn from a Tor-like distribution:
// a few countries host most relays (DE, US, FR, NL…) with a long tail of
// single-relay countries.

// torCountryWeights approximates the 2015 relay-count-by-country shape:
// weights are relative; the long tail below gets weight 1 each.
var torCountryWeights = map[string]int{
	"de": 1200, "us": 1100, "fr": 700, "nl": 450, "ru": 300, "gb": 300,
	"se": 250, "ca": 230, "ch": 200, "at": 150, "it": 140, "fi": 120,
	"ro": 110, "cz": 100, "es": 95, "au": 90, "jp": 85, "pl": 80,
	"no": 70, "dk": 65, "ua": 60, "br": 55, "hu": 45, "be": 45,
	"lu": 40, "sg": 35, "hk": 30, "nz": 25, "ie": 25, "pt": 20,
	"gr": 20, "bg": 18, "lt": 15, "lv": 12, "ee": 12, "si": 10,
	"sk": 10, "hr": 8, "rs": 8, "md": 6, "is": 6, "tr": 6,
	"il": 6, "za": 5, "ar": 5, "cl": 4, "mx": 4, "in": 4,
	"kr": 4, "tw": 3, "th": 3, "my": 3, "id": 2, "ph": 2,
	"vn": 2, "co": 2, "pe": 2, "uy": 2, "cr": 2, "pa": 1,
	"ke": 1, "ng": 1, "eg": 1, "ma": 1, "tn": 1, "ge": 1,
	"am": 1, "kz": 1, "mn": 1, "np": 1, "lk": 1, "kh": 1,
	"bo": 1, "ec": 1, "py": 1, "do": 1, "jm": 1, "mt": 1, "cy": 1,
}

// countryTable is the cumulative-weight table used for sampling.
type countryTable struct {
	codes   []string
	cumSums []int
	total   int
}

func newCountryTable() *countryTable {
	t := &countryTable{}
	codes := make([]string, 0, len(torCountryWeights))
	for c := range torCountryWeights {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	for _, c := range codes {
		t.total += torCountryWeights[c]
		t.codes = append(t.codes, c)
		t.cumSums = append(t.cumSums, t.total)
	}
	return t
}

func (t *countryTable) pick(x int) string {
	x = x % t.total
	i := sort.SearchInts(t.cumSums, x+1)
	return t.codes[i]
}

// Countries counts the distinct relay countries in a snapshot — the
// paper's geographic-coverage metric.
func (s Snapshot) Countries() int {
	seen := make(map[string]struct{})
	for _, r := range s.Relays {
		if r.Country != "" {
			seen[r.Country] = struct{}{}
		}
	}
	return len(seen)
}
