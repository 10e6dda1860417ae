package experiments

import (
	"context"
	"math/rand"

	"ting/internal/geo"
	"ting/internal/stats"
)

// Fig8Config parameterizes the latency-vs-distance study (§4.5): 10,000
// random live-network pairs measured with Ting, against great-circle
// distances from a geolocation database that (like Neustar's) contains
// some errors.
type Fig8Config struct {
	WorldNodes int // live-network stand-in size; default 400
	Pairs      int // default 10000
	Samples    int // Ting samples per circuit; default 200
	Seed       int64
}

// fig8GeoErrFrac is the share of erroneous geolocation entries.
const fig8GeoErrFrac = 0.01

func (c *Fig8Config) setDefaults() {
	if c.WorldNodes == 0 {
		c.WorldNodes = 400
	}
	if c.Pairs == 0 {
		c.Pairs = 10000
	}
	if c.Samples == 0 {
		c.Samples = 200
	}
}

// Fig8Point is one measured pair.
type Fig8Point struct {
	X, Y string
	// DistanceKm is computed from the geolocation DB (possibly erroneous).
	DistanceKm float64
	// RTTms is Ting's estimate.
	RTTms float64
	// GeoError marks pairs whose DB coordinates carry injected error.
	GeoError bool
}

// BelowLightSpeed reports whether the point sits under the (2/3)c line —
// impossible for honest data, diagnostic of geolocation error.
func (p Fig8Point) BelowLightSpeed() bool {
	return p.RTTms < geo.MinRTTMsForDistance(p.DistanceKm)
}

// HtraeFit approximates the fit line from the Htrae study of Halo gamers
// that Figure 8 plots for comparison. Htrae measured median latencies, so
// its line sits above Ting's minimum-latency fit.
var HtraeFit = stats.LinearFit{Slope: 0.021, Intercept: 45}

// Fig8Result is the scatter plus the linear fit to our own data.
type Fig8Result struct {
	Points []Fig8Point
	Fit    stats.LinearFit
}

// BelowLightSpeedStats counts impossible points and how many of them are
// explained by injected geolocation error (the paper: "almost all likely
// errors in the underlying geolocation database").
func (r *Fig8Result) BelowLightSpeedStats() (below, explained int) {
	for _, p := range r.Points {
		if p.BelowLightSpeed() {
			below++
			if p.GeoError {
				explained++
			}
		}
	}
	return below, explained
}

// Fig8 measures random pairs and relates RTT to great-circle distance.
func Fig8(cfg Fig8Config) (*Fig8Result, error) {
	cfg.setDefaults()
	w, err := NewWorld(cfg.WorldNodes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	// Geolocation DB over the public relays, with injected error.
	coords := make([]geo.Coord, len(w.Names))
	for i, name := range w.Names {
		coords[i] = w.Topo.Node(w.NodeOf[name]).Coord
	}
	db, err := geo.NewGeoDB(w.Names, coords, geo.GeoDBConfig{
		ErrorFraction: fig8GeoErrFrac,
		Seed:          cfg.Seed + 5,
	})
	if err != nil {
		return nil, err
	}

	m, err := w.Measurer(cfg.Samples, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 2))

	res := &Fig8Result{Points: make([]Fig8Point, 0, cfg.Pairs)}
	seen := make(map[[2]int]bool, cfg.Pairs)
	for len(res.Points) < cfg.Pairs {
		xi := rng.Intn(len(w.Names))
		yi := rng.Intn(len(w.Names))
		if xi == yi {
			continue
		}
		key := [2]int{min(xi, yi), max(xi, yi)}
		if seen[key] && len(w.Names)*(len(w.Names)-1)/2 > cfg.Pairs {
			continue
		}
		seen[key] = true
		x, y := w.Names[xi], w.Names[yi]
		meas, err := m.MeasurePair(context.Background(), x, y)
		if err != nil {
			return nil, err
		}
		cx, _ := db.Lookup(x)
		cy, _ := db.Lookup(y)
		res.Points = append(res.Points, Fig8Point{
			X: x, Y: y,
			DistanceKm: geo.DistanceKm(cx, cy),
			RTTms:      meas.RTT,
			GeoError:   db.Erroneous(x) || db.Erroneous(y),
		})
	}

	dists := make([]float64, len(res.Points))
	rtts := make([]float64, len(res.Points))
	for i, p := range res.Points {
		dists[i] = p.DistanceKm
		rtts[i] = p.RTTms
	}
	fit, err := stats.FitLine(dists, rtts)
	if err != nil {
		return nil, err
	}
	res.Fit = fit
	return res, nil
}

// Fig8 marginals: the paper plots CDFs of both axes in the margins.

// DistanceCDF returns the sorted distances.
func (r *Fig8Result) DistanceCDF() (*stats.CDF, error) {
	xs := make([]float64, len(r.Points))
	for i, p := range r.Points {
		xs[i] = p.DistanceKm
	}
	return stats.NewCDF(xs)
}

// RTTCDF returns the sorted RTTs.
func (r *Fig8Result) RTTCDF() (*stats.CDF, error) {
	xs := make([]float64, len(r.Points))
	for i, p := range r.Points {
		xs[i] = p.RTTms
	}
	return stats.NewCDF(xs)
}
