package stats

import (
	"errors"
	"math"
	"sort"
)

// Pearson returns the Pearson product-moment correlation coefficient
// between xs and ys, which must be the same nonzero length.
func Pearson(xs, ys []float64) (float64, error) {
	if err := checkPaired(xs, ys); err != nil {
		return 0, err
	}
	mx, _ := Mean(xs)
	my, _ := Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: zero variance")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Spearman returns Spearman's rank-order correlation between xs and ys.
// Ties receive average (fractional) ranks. The paper reports 0.997 between
// Ting's estimates and the PlanetLab ground truth (§4.2).
func Spearman(xs, ys []float64) (float64, error) {
	if err := checkPaired(xs, ys); err != nil {
		return 0, err
	}
	rx := ranks(xs)
	ry := ranks(ys)
	return Pearson(rx, ry)
}

// ranks assigns average ranks (1-based) with ties sharing their mean rank.
func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	r := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Average rank for the tie group [i..j].
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			r[idx[k]] = avg
		}
		i = j + 1
	}
	return r
}

// LinearFit is a least-squares line y = Slope*x + Intercept.
type LinearFit struct {
	Slope, Intercept float64
	// R2 is the coefficient of determination of the fit.
	R2 float64
}

// FitLine computes the ordinary least-squares line through (xs, ys). The
// paper fits latency-vs-distance for Figure 8 and compares its slope to the
// Htrae fit.
func FitLine(xs, ys []float64) (LinearFit, error) {
	if err := checkPaired(xs, ys); err != nil {
		return LinearFit{}, err
	}
	mx, _ := Mean(xs)
	my, _ := Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, errors.New("stats: zero x variance")
	}
	slope := sxy / sxx
	fit := LinearFit{Slope: slope, Intercept: my - slope*mx}
	if syy > 0 {
		var ssRes float64
		for i := range xs {
			r := ys[i] - fit.Eval(xs[i])
			ssRes += r * r
		}
		fit.R2 = 1 - ssRes/syy
	}
	return fit, nil
}

// Eval returns the fitted y for x.
func (f LinearFit) Eval(x float64) float64 { return f.Slope*x + f.Intercept }

func checkPaired(xs, ys []float64) error {
	if len(xs) == 0 {
		return ErrEmpty
	}
	if len(xs) != len(ys) {
		return errors.New("stats: length mismatch")
	}
	return nil
}
