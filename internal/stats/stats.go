// Package stats provides the statistical machinery shared by the Ting
// reproduction: empirical CDFs, quantiles, boxplot summaries, rank and
// linear correlation, least-squares fits, coefficients of variation,
// histograms, and log-domain binomial coefficients for the circuit-count
// scaling of Figure 16.
//
// Everything here is deterministic and stdlib-only.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that need at least one sample.
var ErrEmpty = errors.New("stats: empty input")

// Min returns the minimum of xs, or an error if xs is empty.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the maximum of xs, or an error if xs is empty.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Mean returns the arithmetic mean of xs, or an error if xs is empty.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs)), nil
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) (float64, error) {
	m, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs))), nil
}

// CoefficientOfVariation returns the population standard deviation divided
// by the mean (the c_v of Figure 9). The mean must be nonzero.
func CoefficientOfVariation(xs []float64) (float64, error) {
	m, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	if m == 0 {
		return 0, errors.New("stats: coefficient of variation undefined for zero mean")
	}
	sd, err := StdDev(xs)
	if err != nil {
		return 0, err
	}
	return sd / m, nil
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. xs need not be sorted.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, errors.New("stats: quantile out of range")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q), nil
}

// quantileSorted computes a quantile assuming s is sorted ascending.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) (float64, error) { return Quantile(xs, 0.5) }

// BoxStats is the five-number summary used by the paper's boxplots
// (Figures 5 and 10): median, interquartile range, and the minimum and
// maximum values lying within the interquartile fences.
type BoxStats struct {
	Median       float64
	Q1, Q3       float64
	WhiskerLow   float64 // smallest value ≥ Q1 - 1.5*IQR
	WhiskerHigh  float64 // largest value ≤ Q3 + 1.5*IQR
	OutlierCount int
	N            int
}

// Box computes a BoxStats over xs.
func Box(xs []float64) (BoxStats, error) {
	if len(xs) == 0 {
		return BoxStats{}, ErrEmpty
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	b := BoxStats{
		Median: quantileSorted(s, 0.5),
		Q1:     quantileSorted(s, 0.25),
		Q3:     quantileSorted(s, 0.75),
		N:      len(s),
	}
	iqr := b.Q3 - b.Q1
	loFence := b.Q1 - 1.5*iqr
	hiFence := b.Q3 + 1.5*iqr
	b.WhiskerLow = b.Q3
	b.WhiskerHigh = b.Q1
	first := true
	for _, v := range s {
		if v < loFence || v > hiFence {
			b.OutlierCount++
			continue
		}
		if first {
			b.WhiskerLow, b.WhiskerHigh = v, v
			first = false
			continue
		}
		if v < b.WhiskerLow {
			b.WhiskerLow = v
		}
		if v > b.WhiskerHigh {
			b.WhiskerHigh = v
		}
	}
	// Interpolated quartiles can lie beyond every in-fence sample for tiny
	// inputs; clamp so WhiskerLow ≤ Q1 ≤ Q3 ≤ WhiskerHigh always holds.
	b.WhiskerLow = math.Min(b.WhiskerLow, b.Q1)
	b.WhiskerHigh = math.Max(b.WhiskerHigh, b.Q3)
	return b, nil
}

// CDF is an empirical cumulative distribution function.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF over xs. It copies the input.
func NewCDF(xs []float64) (*CDF, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &CDF{sorted: s}, nil
}

// Points returns (x, P(X ≤ x)) pairs suitable for plotting: one point per
// sample, in ascending x order.
func (c *CDF) Points() (xs, ps []float64) {
	xs = append([]float64(nil), c.sorted...)
	ps = make([]float64, len(xs))
	for i := range xs {
		ps[i] = float64(i+1) / float64(len(xs))
	}
	return xs, ps
}

// FractionWithin returns the fraction of ratio samples lying within frac of
// 1.0, i.e. |x-1| ≤ frac. Used for headline accuracy numbers such as "91% of
// estimates are within 10% of the true value" (§4.2).
func FractionWithin(ratios []float64, frac float64) float64 {
	if len(ratios) == 0 {
		return 0
	}
	n := 0
	for _, r := range ratios {
		if math.Abs(r-1) <= frac {
			n++
		}
	}
	return float64(n) / float64(len(ratios))
}
