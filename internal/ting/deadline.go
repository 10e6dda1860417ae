package ting

import "time"

// Adaptive deadlines replace the scanner's one-size-fits-all attempt
// deadline with an RTT-aware one. "Performance analysis of a Tor-like
// onion routing implementation" (PAPERS.md) observes that fixed deadlines
// make tail timeouts dominate campaign cost: one wedged pair holds a
// worker for the full PairTimeout even when every healthy pair completes
// in milliseconds. A scan with AdaptiveDeadline tracks an EWMA of observed
// successful attempt durations plus an EWMA of their absolute deviation (a
// robust MAD-style spread proxy) — globally and per relay, in its
// per-relay state — and bounds each attempt at
//
//	deadline = clamp(mean + deadlineK·dev, lo, hi)
//
// using the slower of the pair's two relay estimates (falling back to the
// global one until a relay has warmed up). Until deadlineWarmup
// observations exist there is no adaptive deadline and the attempt keeps
// the fixed one.
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

// observe feeds one successful attempt's wall-clock duration in. Failures
// are never fed in: a timeout's duration is the old deadline, not the
// pair's RTT.
func (s *ewmaStat) observe(elapsed time.Duration) {
	ms := float64(elapsed) / float64(time.Millisecond)
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

// bound is the μ + deadlineK·dev envelope of one statistic, in
// milliseconds.
func (s *ewmaStat) bound() float64 { return s.mean + deadlineK*s.dev }

// adaptiveDeadline bounds one attempt of a pair whose relays' statistics
// are x and y, or reports ok=false while neither they nor global has warmed
// up. The pair is bounded by the slower of its two relays' estimates, so an
// asymmetric pair is not strangled by its fast end. lo and hi clamp the
// result (0 = unclamped): lo keeps a lucky streak of fast pairs from
// strangling a legitimately slow one, hi is the fixed PairTimeout ceiling.
func adaptiveDeadline(x, y, global ewmaStat, lo, hi time.Duration) (time.Duration, bool) {
	best := ewmaStat{}
	ready := false
	for _, s := range [2]ewmaStat{x, y} {
		if s.n >= deadlineWarmup {
			ready = true
			if s.bound() > best.bound() {
				best = s
			}
		}
	}
	if !ready && global.n >= deadlineWarmup {
		ready = true
		best = global
	}
	if !ready {
		return 0, false
	}
	d := time.Duration(best.bound() * float64(time.Millisecond))
	if lo > 0 && d < lo {
		d = lo
	}
	if hi > 0 && d > hi {
		d = hi
	}
	return d, true
}
