package stats

import (
	"math/rand"
	"time"
)

// Backoff computes jittered exponential retry delays. It is the seeded-RNG
// counterpart of the usual wall-clock backoff: callers supply the RNG, so a
// retry schedule is reproducible under a fixed seed — the property the
// fault-injection tests rely on to replay a failing campaign exactly.
type Backoff struct {
	// Base is the delay before the first retry. Zero disables waiting.
	Base time.Duration
	// Max caps the grown delay. Zero means no cap.
	Max time.Duration
}

const (
	// backoffFactor is the per-attempt growth.
	backoffFactor = 2
	// backoffJitter is the fraction of a delay that is randomized: d becomes
	// uniform in [d·(1−backoffJitter), d·(1+backoffJitter)].
	backoffJitter = 0.5
)

// Delay returns the wait before retry number attempt (1 = first retry).
// rng may be nil, in which case the delay is unjittered.
func (b Backoff) Delay(attempt int, rng *rand.Rand) time.Duration {
	if b.Base <= 0 || attempt <= 0 {
		return 0
	}
	d := float64(b.Base)
	for i := 1; i < attempt; i++ {
		d *= backoffFactor
		if b.Max > 0 && d >= float64(b.Max) {
			d = float64(b.Max)
			break
		}
	}
	if b.Max > 0 && d > float64(b.Max) {
		d = float64(b.Max)
	}
	if rng != nil {
		d *= 1 - backoffJitter + 2*backoffJitter*rng.Float64()
	}
	if d < 0 {
		return 0
	}
	return time.Duration(d)
}
