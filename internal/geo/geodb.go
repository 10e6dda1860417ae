package geo

import (
	"fmt"
	"math/rand"
	"sort"
)

// GeoDB is a synthetic stand-in for the Neustar IP geolocation service the
// paper used (§4.5). Lookups return the true coordinate of a node, except
// for a configurable fraction of entries whose stored coordinate has been
// perturbed — these produce the impossible, below-(2/3)c points of Figure 8.
type GeoDB struct {
	entries map[string]Coord
	// erroneous records which entries carry injected error, for tests and
	// for the Figure 8 analysis of outliers.
	erroneous map[string]bool
}

// GeoDBConfig controls error injection in a synthetic GeoDB.
type GeoDBConfig struct {
	// ErrorFraction is the fraction of entries whose coordinate is replaced
	// with a far-away point (default 0.01).
	ErrorFraction float64
	// Seed drives the deterministic error injection.
	Seed int64
}

// errorShiftDeg is the magnitude (in degrees, roughly) of an injected
// displacement.
const errorShiftDeg = 60

// NewGeoDB builds a database from node names to true coordinates, injecting
// errors per cfg. The zero-value config means 1% of entries are displaced by
// about 60 degrees.
func NewGeoDB(names []string, coords []Coord, cfg GeoDBConfig) (*GeoDB, error) {
	if len(names) != len(coords) {
		return nil, fmt.Errorf("geo: %d names but %d coords", len(names), len(coords))
	}
	if cfg.ErrorFraction == 0 {
		cfg.ErrorFraction = 0.01
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	db := &GeoDB{
		entries:   make(map[string]Coord, len(names)),
		erroneous: make(map[string]bool),
	}
	// Iterate in a stable order so error injection is deterministic.
	idx := make([]int, len(names))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return names[idx[a]] < names[idx[b]] })
	for _, i := range idx {
		c := coords[i]
		if !c.Valid() {
			return nil, fmt.Errorf("geo: invalid coordinate %v for %q", c, names[i])
		}
		if rng.Float64() < cfg.ErrorFraction {
			c = displace(c, errorShiftDeg, rng)
			db.erroneous[names[i]] = true
		}
		db.entries[names[i]] = c
	}
	return db, nil
}

// displace moves c by roughly shift degrees in a random direction, clamping
// to legal ranges.
func displace(c Coord, shift float64, rng *rand.Rand) Coord {
	dLat := (rng.Float64()*2 - 1) * shift
	dLon := (rng.Float64()*2 - 1) * shift
	out := Coord{Lat: c.Lat + dLat, Lon: c.Lon + dLon}
	if out.Lat > 90 {
		out.Lat = 180 - out.Lat
	}
	if out.Lat < -90 {
		out.Lat = -180 - out.Lat
	}
	for out.Lon > 180 {
		out.Lon -= 360
	}
	for out.Lon < -180 {
		out.Lon += 360
	}
	return out
}

// Lookup returns the (possibly erroneous) stored coordinate for name.
func (db *GeoDB) Lookup(name string) (Coord, bool) {
	c, ok := db.entries[name]
	return c, ok
}

// Erroneous reports whether name's stored coordinate carries injected error.
func (db *GeoDB) Erroneous(name string) bool { return db.erroneous[name] }
