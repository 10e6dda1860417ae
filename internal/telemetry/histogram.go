package telemetry

import (
	"math"
	"sync/atomic"
)

// DefaultBuckets are the default histogram upper bounds, in milliseconds:
// powers of two from 0.5 ms to ~65 s, the span of circuit RTTs the stack
// sees between loopback pipes and heavily stalled transcontinental paths.
var DefaultBuckets = []float64{
	0.5, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
	1024, 2048, 4096, 8192, 16384, 32768, 65536,
}

// Histogram accumulates float64 observations into fixed buckets with
// atomic counters — safe for concurrent Observe from every layer of the
// stack. A nil Histogram ignores observations.
type Histogram struct {
	bounds []float64      // ascending upper bounds; final +Inf bucket implied
	counts []atomic.Int64 // len(bounds)+1
	count  atomic.Int64
	sum    atomicFloat
	min    atomicFloat // valid only when count > 0
	max    atomicFloat
}

// NewHistogram creates a histogram with the given ascending upper bounds
// (nil means DefaultBuckets).
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultBuckets
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	h.min.store(math.Inf(1))
	h.max.store(math.Inf(-1))
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
	h.min.storeMin(v)
	h.max.storeMax(v)
}

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) by linear interpolation
// inside the bucket where the cumulative count crosses q. Values beyond
// the last bound clamp to the largest observed value. Returns 0 when empty
// or nil.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.max.load()
			if i < len(h.bounds) {
				hi = h.bounds[i]
			}
			if hi < lo { // max below bucket floor cannot happen, but be safe
				hi = lo
			}
			frac := 0.0
			if n > 0 {
				frac = (rank - cum) / n
			}
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	return h.max.load()
}

// snapshot captures the histogram for exposition.
func (h *Histogram) snapshot() HistogramSnapshot {
	count := h.count.Load()
	s := HistogramSnapshot{
		Count: count,
		Sum:   round6(h.sum.load()),
	}
	if count > 0 {
		s.Min = round6(h.min.load())
		s.Max = round6(h.max.load())
		s.P50 = round6(h.Quantile(0.5))
		s.P90 = round6(h.Quantile(0.9))
		s.P99 = round6(h.Quantile(0.99))
	}
	return s
}

// round6 trims float noise so snapshots encode stably.
func round6(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 0
	}
	return math.Round(v*1e6) / 1e6
}

// atomicFloat is a float64 with atomic add/min/max via CAS on bits.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) load() float64   { return math.Float64frombits(f.bits.Load()) }
func (f *atomicFloat) store(v float64) { f.bits.Store(math.Float64bits(v)) }

func (f *atomicFloat) add(delta float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) storeMin(v float64) {
	for {
		old := f.bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func (f *atomicFloat) storeMax(v float64) {
	for {
		old := f.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}
