package ting

import (
	"sync"
	"time"
)

// DeadlineEstimator replaces the scanner's one-size-fits-all attempt
// deadline with an RTT-aware one. "Performance analysis of a Tor-like
// onion routing implementation" (PAPERS.md) observes that fixed deadlines
// make tail timeouts dominate campaign cost: one wedged pair holds a
// worker for the full PairTimeout even when every healthy pair completes
// in milliseconds. The estimator tracks an EWMA of observed successful
// attempt durations plus an EWMA of their absolute deviation (a robust
// MAD-style spread proxy) — globally and per relay — and bounds each
// attempt at
//
//	deadline = clamp(mean + deadlineK·dev, Min, Max)
//
// using the slower of the pair's two relay estimates (falling back to the
// global one until a relay has warmed up). Until deadlineWarmup
// observations exist, Deadline reports not-ready and the caller keeps its
// fixed deadline. All methods are safe for concurrent use by scanner workers.
type DeadlineEstimator struct {
	// Min and Max clamp every emitted deadline: Min keeps a lucky streak
	// of fast pairs from strangling a legitimately slow one, Max is the
	// campaign's fixed PairTimeout ceiling (0 = unbounded).
	Min, Max time.Duration
	// Observer, if non-nil, receives DeadlineSet for every adaptive
	// deadline handed out.
	Observer *Observer

	mu     sync.Mutex
	global ewmaStat
	relays map[string]*ewmaStat
}

const (
	// deadlineK is the spread multiplier.
	deadlineK = 4
	// deadlineAlpha is the EWMA weight of each new observation.
	deadlineAlpha = 0.25
	// deadlineWarmup is how many observations a statistic needs before it
	// is trusted.
	deadlineWarmup = 3
)

// ewmaStat is one EWMA mean + EWMA absolute-deviation pair, in
// milliseconds.
type ewmaStat struct {
	n    int
	mean float64
	dev  float64
}

func (s *ewmaStat) observe(ms float64) {
	if s.n == 0 {
		s.mean = ms
	} else {
		d := ms - s.mean
		if d < 0 {
			d = -d
		}
		s.dev = (1-deadlineAlpha)*s.dev + deadlineAlpha*d
		s.mean = (1-deadlineAlpha)*s.mean + deadlineAlpha*ms
	}
	s.n++
}

// NewDeadlineEstimator creates an estimator clamped to [min, max].
func NewDeadlineEstimator(min, max time.Duration, obs *Observer) *DeadlineEstimator {
	return &DeadlineEstimator{
		Min:      min,
		Max:      max,
		Observer: obs,
		relays:   make(map[string]*ewmaStat),
	}
}

// Observe feeds one successful attempt's wall-clock duration into the
// pair's relay statistics and the global one. Failures are never fed in:
// a timeout's duration is the old deadline, not the pair's RTT.
func (e *DeadlineEstimator) Observe(x, y string, elapsed time.Duration) {
	ms := float64(elapsed) / float64(time.Millisecond)
	e.mu.Lock()
	e.global.observe(ms)
	for _, name := range []string{x, y} {
		s := e.relays[name]
		if s == nil {
			s = &ewmaStat{}
			e.relays[name] = s
		}
		s.observe(ms)
	}
	e.mu.Unlock()
}

// Forget drops one relay's statistics — churn invalidation: a rotated or
// re-joined relay's history does not describe its new incarnation.
func (e *DeadlineEstimator) Forget(name string) {
	e.mu.Lock()
	delete(e.relays, name)
	e.mu.Unlock()
}

// Deadline returns the adaptive attempt deadline for a pair, or ok=false
// while the estimator is still warming up (the caller falls back to its
// fixed deadline). The pair is bounded by the slower of its two relays'
// estimates so an asymmetric pair is not strangled by its fast end.
func (e *DeadlineEstimator) Deadline(x, y string) (time.Duration, bool) {
	e.mu.Lock()
	best := ewmaStat{}
	ready := false
	for _, name := range []string{x, y} {
		if s := e.relays[name]; s != nil && s.n >= deadlineWarmup {
			ready = true
			if s.bound() > best.bound() {
				best = *s
			}
		}
	}
	if !ready && e.global.n >= deadlineWarmup {
		ready = true
		best = e.global
	}
	e.mu.Unlock()
	if !ready {
		return 0, false
	}
	d := time.Duration(best.bound() * float64(time.Millisecond))
	if e.Min > 0 && d < e.Min {
		d = e.Min
	}
	if e.Max > 0 && d > e.Max {
		d = e.Max
	}
	e.Observer.deadlineSet(x, y, d)
	return d, true
}

// bound is the μ + deadlineK·dev envelope of one statistic, in
// milliseconds.
func (s *ewmaStat) bound() float64 { return s.mean + deadlineK*s.dev }
