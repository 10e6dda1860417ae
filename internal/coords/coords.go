// Package coords implements a Vivaldi-style network coordinate system:
// a decentralized spring-relaxation embedding (Dabek et al., SIGCOMM 2004)
// fitted from a sparse sample of measured pair RTTs, which then predicts
// every unmeasured pair. This is what breaks the N² wall (ROADMAP item 3):
// an all-pairs campaign over N relays costs N·(N−1)/2 measured pairs, but
// an embedding fitted from O(N·k) pairs completes the rest — "On the Use
// of Latency Graphs for the Construction of Tor Circuits" and "The
// Evaluation of Circuit Selection Methods on Tor" both build circuits from
// exactly this kind of incomplete latency knowledge.
//
// The model is the height-vector variant: each node carries a position in
// R^dim plus a non-negative height. Distance is
//
//	d(i,j) = ‖x_i − x_j‖ + h_i + h_j
//
// The Euclidean part captures propagation geography; the heights capture
// access-link delay, which every path in and out of a node pays regardless
// of direction (the inet model adds AccessMs to both endpoints of every
// pair, and real residential relays do the same).
//
// On top of the embedding sits a per-node multiplicative residual scale:
// after the springs settle, each node's scale is nudged by the median
// ratio of its measured RTTs to its embedded distances, and predictions
// are d(i,j)·√(s_i·s_j). This soaks up node-level systematic error the
// metric embedding cannot express — well-connected hub networks whose
// paths see little routing inflation (the very nodes that create triangle
// inequality violations) predict systematically low without it.
//
// Every node also tracks a local relative error estimate e_i (the EWMA of
// |prediction − measurement|/measurement on its own samples, the classic
// Vivaldi confidence weight). These drive three things: the adaptive
// timestep of the spring update, the per-cell confidence attached to
// predictions, and the active-learning scan scheduler (measure the pairs
// whose endpoints the embedding is least sure about first).
package coords

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
)

// Config parameterizes a Model.
type Config struct {
	// Seed drives initial placement and fit-order shuffling. Equal seeds
	// and equal observation sequences give bitwise-equal models.
	Seed int64
}

// Observation is one measured pair RTT, by node index.
type Observation struct {
	I, J  int
	RTTMs float64
}

const (
	// dim is the Euclidean dimension of the embedding (heights live on an
	// extra implicit axis): past ~5 dimensions the marginal accuracy gain
	// on Internet latency spaces is negligible (Dabek et al. §5.4), and
	// every dimension costs fit time.
	dim = 5
	// cc is the timestep constant (δ = cc·w): how far a node moves toward
	// satisfying one measurement.
	cc = 0.25
	// ce is the error-EWMA constant: how fast the local error estimate
	// tracks new samples.
	ce = 0.25
	// initError is a fresh node's relative error estimate: deliberately
	// above 1 so the confidence clamps to 0 until the node has been observed.
	initError = 1.5
	// maxError caps the error estimate so one pathological sample cannot
	// take a node's weight to the point of numeric trouble.
	maxError = 2.0
	// minRTTMs floors predictions: nothing is faster than a LAN hop, and
	// a spring overshoot must not predict a negative RTT.
	minRTTMs = 0.2
	// scaleLo/scaleHi clamp the per-node residual scales; the correction
	// layer fixes node-level bias, it must not be able to fight the
	// embedding wholesale.
	scaleLo = 0.25
	scaleHi = 4.0
)

// Model is a fitted (or fitting) coordinate system over n nodes, indexed
// 0..n−1 — the same indices as the Matrix the scanner is filling.
//
// All methods are safe for concurrent use: reads (PredictWithConfidence,
// MedianError) take a read lock, Fit a write lock, so a scanner can keep
// fitting while readers complete cells.
type Model struct {
	mu sync.RWMutex

	pos    []float64 // n×dim, flat
	height []float64 // n, ≥ 0
	errEst []float64 // n, relative error estimates
	scale  []float64 // n, multiplicative residual corrections
	nobs   []int     // n, observations seen per node

	rng *rand.Rand

	// scratch for the spring update.
	dir [dim]float64
}

// New creates an unfitted model over n nodes. Initial positions are tiny
// seeded random offsets from the origin (identical positions give the
// springs no gradient to descend), heights zero, scales one, errors at
// their "know nothing" maximum.
func New(n int, cfg Config) (*Model, error) {
	if n < 2 {
		return nil, errors.New("coords: model needs at least two nodes")
	}
	m := &Model{
		pos:    make([]float64, n*dim),
		height: make([]float64, n),
		errEst: make([]float64, n),
		scale:  make([]float64, n),
		nobs:   make([]int, n),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
	for i := range m.pos {
		m.pos[i] = m.rng.Float64() - 0.5
	}
	for i := 0; i < n; i++ {
		m.errEst[i] = initError
		m.scale[i] = 1
	}
	return m, nil
}

// N is the number of nodes.
func (m *Model) N() int { return len(m.height) }

// rawDist is the height-vector distance without residual scales. Callers
// hold at least a read lock.
func (m *Model) rawDist(i, j int) float64 {
	var sq float64
	pi, pj := m.pos[i*dim:(i+1)*dim], m.pos[j*dim:(j+1)*dim]
	for k := 0; k < dim; k++ {
		d := pi[k] - pj[k]
		sq += d * d
	}
	return math.Sqrt(sq) + m.height[i] + m.height[j]
}

// observeLocked feeds one measured pair into the model and runs one
// symmetric spring update: both endpoints move toward satisfying the
// measurement, each weighted by its own confidence against the other's.
func (m *Model) observeLocked(i, j int, rttMs float64) {
	// The springs fit the residual-corrected target: predictions are
	// d·√(s_i·s_j), so the embedding itself should converge to
	// rtt/√(s_i·s_j). On the first fit rounds every scale is 1 and this
	// is the raw RTT.
	target := rttMs / math.Sqrt(m.scale[i]*m.scale[j])
	m.springLocked(i, j, target)
	m.springLocked(j, i, target)
	m.nobs[i]++
	m.nobs[j]++
}

// springLocked moves node a toward satisfying d(a,b) = target.
func (m *Model) springLocked(a, b int, target float64) {
	d := m.rawDist(a, b)
	// Confidence weight: how much a trusts this sample relative to its
	// own current estimate (Vivaldi eq. w = e_a/(e_a+e_b)).
	w := m.errEst[a] / (m.errEst[a] + m.errEst[b])

	// Update a's error estimate from the relative sample error.
	es := math.Abs(d-target) / target
	m.errEst[a] = es*ce*w + m.errEst[a]*(1-ce*w)
	if m.errEst[a] > maxError {
		m.errEst[a] = maxError
	}

	// Force along the height-vector unit direction: the spatial part and
	// the height share the displacement in proportion to their share of
	// the distance (Dabek et al. §5.4: the unit vector of a height
	// vector has height (h_a+h_b)/‖·‖).
	force := (target - d) * cc * w
	pa, pb := m.pos[a*dim:(a+1)*dim], m.pos[b*dim:(b+1)*dim]
	var spatial float64
	for k := 0; k < dim; k++ {
		m.dir[k] = pa[k] - pb[k]
		spatial += m.dir[k] * m.dir[k]
	}
	spatial = math.Sqrt(spatial)
	norm := spatial + m.height[a] + m.height[b]
	if norm <= 0 {
		// Coincident with zero heights: pick a seeded random direction so
		// the pair can separate.
		var sq float64
		for k := 0; k < dim; k++ {
			m.dir[k] = m.rng.NormFloat64()
			sq += m.dir[k] * m.dir[k]
		}
		spatial = math.Sqrt(sq)
		norm = spatial
		if norm == 0 {
			return
		}
	}
	if spatial > 0 {
		for k := 0; k < dim; k++ {
			pa[k] += force * m.dir[k] / norm
		}
	}
	m.height[a] += force * (m.height[a] + m.height[b]) / norm
	if m.height[a] < 0 {
		m.height[a] = 0
	}
}

// Fit runs `passes` spring-relaxation passes over obs (each pass visits
// every observation once, in a seeded shuffled order) and then refreshes
// the per-node residual scales from the settled embedding. Call it after
// each measurement batch; it is incremental — coordinates continue from
// where the last fit left them, so refitting after new observations is
// cheap and stable.
func (m *Model) Fit(obs []Observation, passes int) {
	if len(obs) == 0 || passes <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	order := make([]int, len(obs))
	for i := range order {
		order[i] = i
	}
	for p := 0; p < passes; p++ {
		m.rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for _, k := range order {
			o := obs[k]
			if o.I == o.J || o.RTTMs <= 0 || math.IsNaN(o.RTTMs) || math.IsInf(o.RTTMs, 0) {
				continue
			}
			m.observeLocked(o.I, o.J, o.RTTMs)
		}
	}
	m.updateScalesLocked(obs)
}

// updateScalesLocked nudges each node's residual scale by the median ratio
// of measured RTT to current prediction over the node's observations.
// Medians (not means) keep one TIV-heavy outlier pair from dragging a
// node's whole correction.
func (m *Model) updateScalesLocked(obs []Observation) {
	ratios := make([][]float64, m.N())
	for _, o := range obs {
		if o.I == o.J || o.RTTMs <= 0 || math.IsNaN(o.RTTMs) || math.IsInf(o.RTTMs, 0) {
			continue
		}
		pred := m.rawDist(o.I, o.J) * math.Sqrt(m.scale[o.I]*m.scale[o.J])
		if pred < minRTTMs {
			pred = minRTTMs
		}
		r := o.RTTMs / pred
		ratios[o.I] = append(ratios[o.I], r)
		ratios[o.J] = append(ratios[o.J], r)
	}
	for i, rs := range ratios {
		if len(rs) == 0 {
			continue
		}
		sort.Float64s(rs)
		med := rs[len(rs)/2]
		if len(rs)%2 == 0 {
			med = (rs[len(rs)/2-1] + rs[len(rs)/2]) / 2
		}
		s := m.scale[i] * med
		if s < scaleLo {
			s = scaleLo
		}
		if s > scaleHi {
			s = scaleHi
		}
		m.scale[i] = s
	}
}

// predictLocked is the model's RTT estimate for a pair in milliseconds,
// floored at a LAN hop.
func (m *Model) predictLocked(i, j int) float64 {
	d := m.rawDist(i, j) * math.Sqrt(m.scale[i]*m.scale[j])
	if d < minRTTMs {
		d = minRTTMs
	}
	return d
}

// confidenceLocked scores a prediction in [0, 1]: 1 − the mean of the two
// endpoints' relative error estimates, clamped. A pair touching a node the
// model has never observed scores 0 (its error estimate still sits at the
// "know nothing" initial value); a pair between two well-settled nodes
// with ~10% local error scores ~0.9. This is the value stored per cell as
// the completed matrix's confidence.
func (m *Model) confidenceLocked(i, j int) float64 {
	c := 1 - (m.errEst[i]+m.errEst[j])/2
	if c < 0 {
		c = 0
	}
	if c > 1 {
		c = 1
	}
	return c
}

// PredictWithConfidence returns the RTT estimate for a pair and its
// confidence under one lock — the completion loop's accessor. It panics on
// out-of-range indices.
func (m *Model) PredictWithConfidence(i, j int) (rttMs, conf float64) {
	if i == j {
		return 0, 1
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.predictLocked(i, j), m.confidenceLocked(i, j)
}

// MedianError returns the median of all nodes' error estimates — a fit
// quality summary for logs and telemetry.
func (m *Model) MedianError() float64 {
	m.mu.RLock()
	es := append([]float64(nil), m.errEst...)
	m.mu.RUnlock()
	sort.Float64s(es)
	if len(es)%2 == 1 {
		return es[len(es)/2]
	}
	return (es[len(es)/2-1] + es[len(es)/2]) / 2
}

// String summarizes the model for logs.
func (m *Model) String() string {
	return fmt.Sprintf("coords.Model(n=%d dim=%d medianErr=%.3f)", m.N(), dim, m.MedianError())
}
