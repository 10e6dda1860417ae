package coords

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"ting/internal/inet"
)

// predict is the RTT half of PredictWithConfidence.
func predict(m *Model, i, j int) float64 {
	rtt, _ := m.PredictWithConfidence(i, j)
	return rtt
}

// A latencies is a symmetric RTT matrix in milliseconds.
type latencies [][]float64

// metricWorld places n nodes at random points of a plane 300 ms across and
// gives each pair the distance between its points plus both nodes' access
// delays: a metric space the model's Euclidean-plus-height embedding fits.
func metricWorld(t *testing.T, n int, seed int64) latencies {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x, y, access := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range x {
		x[i], y[i], access[i] = rng.Float64()*300, rng.Float64()*300, 0.1+rng.Float64()*10
	}
	rtt := make(latencies, n)
	for i := range rtt {
		rtt[i] = make([]float64, n)
		for j := range rtt[i] {
			if i != j {
				rtt[i][j] = math.Hypot(x[i]-x[j], y[i]-y[j]) + access[i] + access[j]
			}
		}
	}
	return rtt
}

// tivWorld is inet's default world, whose routing inflation violates the
// triangle inequality on most pairs.
func tivWorld(t *testing.T, n int, seed int64) latencies {
	t.Helper()
	topo, err := inet.Generate(inet.Config{N: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	rtt := make(latencies, n)
	for i := range rtt {
		rtt[i] = make([]float64, n)
		for j := range rtt[i] {
			rtt[i][j] = topo.RTT(inet.NodeID(i), inet.NodeID(j))
		}
	}
	return rtt
}

// sampleObs draws m distinct random pairs with ground-truth RTTs.
func sampleObs(topo latencies, m int, seed int64) []Observation {
	rng := rand.New(rand.NewSource(seed))
	n := len(topo)
	seen := make(map[[2]int]bool, m)
	obs := make([]Observation, 0, m)
	for len(obs) < m {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		if i > j {
			i, j = j, i
		}
		if seen[[2]int{i, j}] {
			continue
		}
		seen[[2]int{i, j}] = true
		obs = append(obs, Observation{I: i, J: j, RTTMs: topo[i][j]})
	}
	return obs
}

// medianRelErr scores predictions on every pair NOT in obs.
func medianRelErr(m *Model, topo latencies, obs []Observation) float64 {
	used := make(map[[2]int]bool, len(obs))
	for _, o := range obs {
		used[[2]int{o.I, o.J}] = true
	}
	var errs []float64
	n := len(topo)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if used[[2]int{i, j}] {
				continue
			}
			truth := topo[i][j]
			errs = append(errs, math.Abs(predict(m, i, j)-truth)/truth)
		}
	}
	if len(errs) == 0 {
		return 0
	}
	// nearest-rank median
	for a := range errs {
		for b := a + 1; b < len(errs); b++ {
			if errs[b] < errs[a] {
				errs[a], errs[b] = errs[b], errs[a]
			}
		}
	}
	return errs[len(errs)/2]
}

// TestConvergesOnMetricTopology: on an embeddable world, fitting from ~15%
// of pairs must predict the rest tightly. This is the package's core
// promise; the threshold is loose against the observed ~7% so small
// changes to the fit do not flap it.
func TestConvergesOnMetricTopology(t *testing.T) {
	topo := metricWorld(t, 80, 2)
	all := 80 * 79 / 2
	obs := sampleObs(topo, all*15/100, 3)
	m, err := New(80, Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	m.Fit(obs, 40)
	if got := medianRelErr(m, topo, obs); got > 0.10 {
		t.Errorf("median relative error %.3f on metric world, want ≤ 0.10", got)
	}
	if me := m.MedianError(); me > 0.5 {
		t.Errorf("median node error estimate %.3f after convergence", me)
	}
}

// TestDegradesGracefullyOnTIVWorld: the default world violates the
// triangle inequality on most pairs (§5.2.1 finds 69%), which no metric
// embedding can represent. The model must still land in a useful range —
// and must know it is worse (higher error estimates than the metric fit).
func TestDegradesGracefullyOnTIVWorld(t *testing.T) {
	topo := tivWorld(t, 80, 2)
	all := 80 * 79 / 2
	obs := sampleObs(topo, all*15/100, 3)
	m, err := New(80, Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	m.Fit(obs, 40)
	if got := medianRelErr(m, topo, obs); got > 0.35 {
		t.Errorf("median relative error %.3f on TIV world, want ≤ 0.35", got)
	}

	metric := metricWorld(t, 80, 2)
	mobs := sampleObs(metric, all*15/100, 3)
	mm, _ := New(80, Config{Seed: 4})
	mm.Fit(mobs, 40)
	if m.MedianError() <= mm.MedianError() {
		t.Errorf("TIV-world error estimate %.3f not above metric-world %.3f — confidence would overstate",
			m.MedianError(), mm.MedianError())
	}
}

// TestFitDeterministic: equal seeds and observation sequences must give
// bitwise-equal models, which is what makes budgeted campaigns
// reproducible.
func TestFitDeterministic(t *testing.T) {
	topo := metricWorld(t, 40, 5)
	obs := sampleObs(topo, 150, 6)
	a, _ := New(40, Config{Seed: 7})
	b, _ := New(40, Config{Seed: 7})
	a.Fit(obs, 10)
	b.Fit(obs, 10)
	for i := 0; i < 40; i++ {
		for j := i + 1; j < 40; j++ {
			pa, ca := a.PredictWithConfidence(i, j)
			pb, cb := b.PredictWithConfidence(i, j)
			if pa != pb || ca != cb {
				t.Fatalf("pair (%d,%d): (%v,%v) vs (%v,%v) under equal seeds", i, j, pa, ca, pb, cb)
			}
		}
	}
	c, _ := New(40, Config{Seed: 8})
	c.Fit(obs, 10)
	diff := false
	for j := 1; j < 40 && !diff; j++ {
		if predict(c, 0, j) != predict(a, 0, j) {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds produced identical models — seeding is dead")
	}
}

// TestObserveIgnoresGarbage: self-pairs and non-finite or non-positive
// RTTs must not move the model.
func TestObserveIgnoresGarbage(t *testing.T) {
	m, _ := New(4, Config{Seed: 1})
	before := predict(m, 0, 1)
	m.Fit([]Observation{{2, 2, 10}, {0, 1, 0}, {0, 1, -5}, {0, 1, math.NaN()}, {0, 1, math.Inf(1)}}, 1)
	if got := predict(m, 0, 1); got != before {
		t.Errorf("garbage observations moved prediction %v → %v", before, got)
	}
	if m.nobs[0] != 0 || m.nobs[2] != 0 {
		t.Error("garbage observations counted")
	}
}

// TestConfidenceLifecycle: unobserved pairs score 0; after a convergent
// fit, confidence rises; diagonal predicts (0, 1).
func TestConfidenceLifecycle(t *testing.T) {
	m, _ := New(10, Config{Seed: 1})
	if _, c := m.PredictWithConfidence(0, 1); c != 0 {
		t.Errorf("fresh model confidence %v, want 0 (errors at init ceiling)", c)
	}
	if rtt, conf := m.PredictWithConfidence(3, 3); rtt != 0 || conf != 1 {
		t.Errorf("diagonal = (%v, %v), want (0, 1)", rtt, conf)
	}
	topo := metricWorld(t, 10, 3)
	var obs []Observation
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			obs = append(obs, Observation{I: i, J: j, RTTMs: topo[i][j]})
		}
	}
	m.Fit(obs, 40)
	if _, c := m.PredictWithConfidence(0, 1); c < 0.5 {
		t.Errorf("confidence %v after full-information fit, want ≥ 0.5", c)
	}
	if predict(m, 0, 1) < 0.2 {
		t.Error("prediction below the LAN floor")
	}
}

// TestConcurrentFitAndRead is the -race test: Fit races against every
// reader; nothing may tear or deadlock.
func TestConcurrentFitAndRead(t *testing.T) {
	topo := metricWorld(t, 20, 9)
	obs := sampleObs(topo, 120, 10)
	m, _ := New(20, Config{Seed: 11})
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for k := 0; k < 50; k++ {
				m.Fit(obs, 2)
				m.Fit([]Observation{{rng.Intn(20), rng.Intn(20), 1 + rng.Float64()*100}}, 1)
			}
		}(int64(w))
	}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i, j := rng.Intn(20), rng.Intn(20)
				if v, c := m.PredictWithConfidence(i, j); i != j && (v < 0 || c < 0 || c > 1) {
					t.Errorf("torn read: rtt %v conf %v", v, c)
					return
				}
				m.MedianError()
				_ = m.String()
			}
		}(int64(r))
	}
	writers.Wait()
	close(stop)
	readers.Wait()
}

// TestNewRejectsTinyModels pins the constructor's contract.
func TestNewRejectsTinyModels(t *testing.T) {
	if _, err := New(1, Config{}); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := New(0, Config{}); err == nil {
		t.Error("n=0 accepted")
	}
}

// BenchmarkEmbedFit times one full coordinate fit: 200 nodes, 15% of pairs
// observed, 10 passes — the per-batch refit cost inside a budgeted campaign.
func BenchmarkEmbedFit(b *testing.B) {
	const n = 200
	topo, err := inet.Generate(inet.Config{N: n, Seed: 31})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(32))
	all := n * (n - 1) / 2
	obs := make([]Observation, 0, all*15/100)
	seen := make(map[[2]int]bool)
	for len(obs) < all*15/100 {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		if i > j {
			i, j = j, i
		}
		if seen[[2]int{i, j}] {
			continue
		}
		seen[[2]int{i, j}] = true
		obs = append(obs, Observation{I: i, J: j, RTTMs: topo.RTT(inet.NodeID(i), inet.NodeID(j))})
	}
	for b.Loop() {
		m, err := New(n, Config{Seed: 33})
		if err != nil {
			b.Fatal(err)
		}
		m.Fit(obs, 10)
	}
}
