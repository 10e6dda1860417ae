package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestMinMaxMean(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	if m, _ := Min(xs); m != 1 {
		t.Errorf("Min = %v, want 1", m)
	}
	if m, _ := Max(xs); m != 9 {
		t.Errorf("Max = %v, want 9", m)
	}
	if m, _ := Mean(xs); math.Abs(m-3.875) > 1e-12 {
		t.Errorf("Mean = %v, want 3.875", m)
	}
	for _, f := range []func([]float64) (float64, error){Min, Max, Mean, StdDev, Median} {
		if _, err := f(nil); err == nil {
			t.Error("expected ErrEmpty for nil input")
		}
	}
}

func TestStdDevKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	sd, err := StdDev(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sd-2) > 1e-12 {
		t.Errorf("StdDev = %v, want 2", sd)
	}
}

func TestCoefficientOfVariation(t *testing.T) {
	// Constant series: cv = 0.
	cv, err := CoefficientOfVariation([]float64{5, 5, 5, 5})
	if err != nil || cv != 0 {
		t.Errorf("cv of constant = %v, %v; want 0, nil", cv, err)
	}
	// Known: mean 4, sd 2 → cv 0.5.
	cv, err = CoefficientOfVariation([]float64{2, 6, 2, 6})
	if err != nil || math.Abs(cv-0.5) > 1e-12 {
		t.Errorf("cv = %v, %v; want 0.5", cv, err)
	}
	if _, err := CoefficientOfVariation([]float64{-1, 1}); err == nil {
		t.Error("expected error for zero mean")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	}
	for _, c := range cases {
		got, err := Quantile(xs, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if _, err := Quantile(xs, -0.1); err == nil {
		t.Error("expected error for q<0")
	}
	if _, err := Quantile(xs, 1.1); err == nil {
		t.Error("expected error for q>1")
	}
	if got, _ := Quantile([]float64{7}, 0.3); got != 7 {
		t.Errorf("single-element quantile = %v, want 7", got)
	}
}

func TestQuantileMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v, err := Quantile(xs, q)
			if err != nil || v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBoxStats(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100}
	b, err := Box(xs)
	if err != nil {
		t.Fatal(err)
	}
	if b.N != 10 {
		t.Errorf("N = %d", b.N)
	}
	if b.Median != 5.5 {
		t.Errorf("Median = %v, want 5.5", b.Median)
	}
	if b.OutlierCount != 1 {
		t.Errorf("OutlierCount = %d, want 1 (the 100)", b.OutlierCount)
	}
	if b.WhiskerHigh != 9 {
		t.Errorf("WhiskerHigh = %v, want 9", b.WhiskerHigh)
	}
	if b.WhiskerLow != 1 {
		t.Errorf("WhiskerLow = %v, want 1", b.WhiskerLow)
	}
	if b.Q1 > b.Median || b.Median > b.Q3 {
		t.Errorf("quartiles out of order: %+v", b)
	}
}

func TestBoxOrderingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		b, err := Box(xs)
		if err != nil {
			t.Fatal(err)
		}
		if !(b.WhiskerLow <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 && b.Q3 <= b.WhiskerHigh) {
			t.Fatalf("box ordering violated: %+v", b)
		}
	}
}

func TestCDF(t *testing.T) {
	c, err := NewCDF([]float64{1, 2, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	xs, ps := c.Points()
	if !slices.Equal(xs, []float64{1, 2, 2, 3}) || !slices.Equal(ps, []float64{0.25, 0.5, 0.75, 1}) {
		t.Fatalf("Points = %v, %v", xs, ps)
	}
	if !sort.Float64sAreSorted(xs) || !sort.Float64sAreSorted(ps) {
		t.Error("Points not sorted")
	}
	if ps[3] != 1 {
		t.Errorf("last p = %v, want 1", ps[3])
	}
	if _, err := NewCDF(nil); err == nil {
		t.Error("expected error for empty CDF")
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		c, err := NewCDF(xs)
		if err != nil {
			return false
		}
		vals, ps := c.Points()
		if len(vals) != len(xs) || !sort.Float64sAreSorted(vals) || ps[len(ps)-1] != 1 {
			return false
		}
		prev := 0.0
		for _, p := range ps {
			if p <= prev || p > 1 {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFractionWithin(t *testing.T) {
	ratios := []float64{1.0, 1.05, 0.95, 1.2, 0.5}
	if got := FractionWithin(ratios, 0.1); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("FractionWithin(0.1) = %v, want 0.6", got)
	}
	if got := FractionWithin(nil, 0.1); got != 0 {
		t.Errorf("FractionWithin(nil) = %v, want 0", got)
	}
}

func TestPearsonKnown(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(xs, ys)
	if err != nil || math.Abs(r-1) > 1e-12 {
		t.Errorf("Pearson = %v, %v; want 1", r, err)
	}
	ysNeg := []float64{10, 8, 6, 4, 2}
	r, _ = Pearson(xs, ysNeg)
	if math.Abs(r+1) > 1e-12 {
		t.Errorf("Pearson = %v, want -1", r)
	}
	if _, err := Pearson(xs, xs[:2]); err == nil {
		t.Error("expected length-mismatch error")
	}
	if _, err := Pearson([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("expected zero-variance error")
	}
}

func TestSpearmanMonotone(t *testing.T) {
	// Any strictly monotone transform has rank correlation exactly 1.
	xs := []float64{1, 5, 3, 9, 7, 2}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Exp(x) // nonlinear but monotone
	}
	r, err := Spearman(xs, ys)
	if err != nil || math.Abs(r-1) > 1e-12 {
		t.Errorf("Spearman = %v, %v; want 1", r, err)
	}
}

func TestSpearmanTies(t *testing.T) {
	xs := []float64{1, 2, 2, 3}
	ys := []float64{10, 20, 20, 30}
	r, err := Spearman(xs, ys)
	if err != nil || math.Abs(r-1) > 1e-12 {
		t.Errorf("Spearman with ties = %v, %v; want 1", r, err)
	}
}

func TestSpearmanBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(100)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 100
			ys[i] = rng.Float64() * 100
		}
		r, err := Spearman(xs, ys)
		if err != nil {
			continue
		}
		if r < -1-1e-9 || r > 1+1e-9 {
			t.Fatalf("Spearman out of bounds: %v", r)
		}
	}
}

func TestRanksAverageTies(t *testing.T) {
	r := ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Errorf("ranks[%d] = %v, want %v", i, r[i], want[i])
		}
	}
}

func TestFitLine(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{1, 3, 5, 7, 9} // y = 2x + 1
	f, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Slope-2) > 1e-12 || math.Abs(f.Intercept-1) > 1e-12 {
		t.Errorf("fit = %+v, want slope 2 intercept 1", f)
	}
	if math.Abs(f.R2-1) > 1e-12 {
		t.Errorf("R2 = %v, want 1", f.R2)
	}
	if got := f.Eval(10); math.Abs(got-21) > 1e-12 {
		t.Errorf("Eval(10) = %v, want 21", got)
	}
	if _, err := FitLine([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("expected zero-x-variance error")
	}
}

func TestFitLineNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 500)
	ys := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.Float64() * 100
		ys[i] = 0.05*xs[i] + 20 + rng.NormFloat64()*0.5
	}
	f, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Slope-0.05) > 0.005 {
		t.Errorf("slope = %v, want ~0.05", f.Slope)
	}
	if math.Abs(f.Intercept-20) > 0.5 {
		t.Errorf("intercept = %v, want ~20", f.Intercept)
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram(0, 50)
	if err != nil {
		t.Fatal(err)
	}
	h.Add(10, 1)
	h.Add(49.99, 2)
	h.Add(50, 1)
	h.Add(225, 5)
	h.Add(-1, 100) // below origin: dropped
	if len(h.Counts) != 5 {
		t.Fatalf("bins = %d, want 5", len(h.Counts))
	}
	if h.Counts[0] != 3 || h.Counts[1] != 1 || h.Counts[4] != 5 {
		t.Errorf("counts = %v", h.Counts)
	}
	if h.Total() != 9 {
		t.Errorf("Total = %v, want 9", h.Total())
	}
	if c := h.BinCenter(0); c != 25 {
		t.Errorf("BinCenter(0) = %v, want 25", c)
	}
	if _, err := NewHistogram(0, 0); err == nil {
		t.Error("expected error for zero width")
	}
}

func TestChoose(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {10, 3, 120}, {50, 3, 19600},
	}
	for _, c := range cases {
		if got := Choose(c.n, c.k); math.Abs(got-c.want)/c.want > 1e-9 {
			t.Errorf("Choose(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
	// C(50,10) ≈ 1.0272e10 — the Figure 16 scaling factor.
	if got := Choose(50, 10); math.Abs(got-1.0272278170e10)/1.0272278170e10 > 1e-6 {
		t.Errorf("Choose(50,10) = %v", got)
	}
	if got := Choose(5, 6); got != 0 {
		t.Errorf("Choose(5,6) = %v, want 0", got)
	}
	if got := Choose(5, -1); got != 0 {
		t.Errorf("Choose(5,-1) = %v, want 0", got)
	}
}

func TestChooseSymmetryProperty(t *testing.T) {
	for n := 0; n <= 60; n++ {
		for k := 0; k <= n; k++ {
			a := LogChoose(n, k)
			b := LogChoose(n, n-k)
			if math.Abs(a-b) > 1e-9*(1+math.Abs(a)) {
				t.Fatalf("LogChoose(%d,%d)=%v != LogChoose(%d,%d)=%v", n, k, a, n, n-k, b)
			}
		}
	}
}
