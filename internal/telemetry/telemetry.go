// Package telemetry is the stdlib-only observability subsystem for the
// whole measurement stack. The paper's credibility rests on knowing what
// the pipeline actually did — how many circuits were built, how many
// samples each minimum came from, where retries and cache hits happened
// (§4.2, §4.5–4.6) — so every layer (relay, client, ting, tornet, faults)
// reports into a shared Registry of named counters, gauges, and
// histograms, plus a bounded trace of measurement-lifecycle events.
//
// Design constraints, in order:
//
//   - The disabled path must be near-free. A nil *Registry hands out nil
//     metrics, and every metric method is a nil-safe no-op, so
//     instrumented hot paths (cell forwarding, per-sample probes) cost one
//     predictable branch when telemetry is off. Hot paths resolve their
//     metrics once, up front, never per event.
//   - The enabled path must be safe under full concurrency: all metric
//     updates are atomic; registration is guarded by a lock but happens
//     once per name.
//   - Exposition is pull-based: Snapshot() captures a consistent-enough
//     view that encodes to JSON (stable key order) and OpenMetrics text;
//     see expose.go for the HTTP surface with net/http/pprof wired in.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; a nil Counter ignores updates.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; zero for a nil Counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down (worker occupancy, open
// circuits). A nil Gauge ignores updates.
type Gauge struct {
	v atomic.Int64
}

// Set stores an absolute value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value; zero for a nil Gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry holds named metrics. The zero value is not usable; create one
// with New. A nil *Registry is the disabled mode: every lookup returns a
// nil metric whose methods are no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	trace    *Trace // measurement-lifecycle events, DefaultTraceCap of them
}

// New creates an empty registry with a default trace buffer.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		trace:    NewTrace(DefaultTraceCap),
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// (a no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil on
// a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram with DefaultBuckets, creating it
// on first use. Returns nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	return r.HistogramBuckets(name, nil)
}

// HistogramBuckets returns the named histogram, creating it with the given
// upper bounds on first use (nil bounds means DefaultBuckets). Bounds are
// fixed at creation; later calls ignore the argument.
func (r *Registry) HistogramBuckets(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Trace returns the registry's trace buffer (nil on a nil registry).
// Record through it directly: reg.Trace().Record(...).
func (r *Registry) Trace() *Trace {
	if r == nil {
		return nil
	}
	return r.trace
}

// names returns the sorted names of one metric family.
func sortedKeys[M any](m map[string]M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
