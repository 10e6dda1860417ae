package main

import (
	"context"
	"sync/atomic"
	"time"

	"ting/internal/ting"
)

// workerTrace ties the spans of one scanner worker together: every series
// the worker's prober samples belongs to the pair its measurer is on, whose
// span is only recorded when Observer.PairDone fires, so the pair's id is
// reserved ahead.
type workerTrace struct {
	rec    *recorder
	parent int32 // the scan or campaign span
	pair   int32 // id reserved for the pair in progress
	series kind
}

func newWorkerTrace(tr *tracer, parent int32, series kind) *workerTrace {
	return &workerTrace{rec: tr.recorder(), parent: parent, pair: tr.reserve(), series: series}
}

// observer returns the Measurer observer that closes each pair's span.
func (wt *workerTrace) observer() *ting.Observer {
	return &ting.Observer{PairDone: func(_, _ string, m *ting.Measurement, _ error) {
		end := time.Now()
		start := end
		if m != nil {
			start = end.Add(-m.Elapsed)
		}
		wt.rec.add(wt.pair, wt.parent, kindPair, start, end)
		wt.pair = wt.rec.t.reserve()
	}}
}

// countingProber is the bench's stand-in between Measurer and a real
// prober. It counts SampleCircuit calls (series_per_pair) and, in a traced
// run, records one span per series. A prober belongs to one worker, so the
// count is a plain int, added to total when the scan closes the measurer.
type countingProber struct {
	inner ting.CircuitProber
	total *atomic.Int64
	wt    *workerTrace // nil when tracing is off
	calls int64
}

func (p *countingProber) SampleCircuit(ctx context.Context, path []string, n int) ([]float64, error) {
	p.calls++
	if p.wt == nil {
		return p.inner.SampleCircuit(ctx, path, n)
	}
	start := time.Now()
	out, err := p.inner.SampleCircuit(ctx, path, n)
	p.wt.rec.add(0, p.wt.pair, p.wt.series, start, time.Now())
	return out, err
}

// Close is what Measurer.Close reaches: it releases the inner prober's
// circuits and hands in the count.
func (p *countingProber) Close() {
	p.total.Add(p.calls)
	p.calls = 0
	if c, ok := p.inner.(interface{ Close() }); ok {
		c.Close()
	}
}

// countingSampler adds the SamplerInto fast path, so wrapping a model
// prober does not put the per-series allocation back.
type countingSampler struct {
	countingProber
	into ting.SamplerInto
}

func (p *countingSampler) SampleCircuitInto(ctx context.Context, path []string, out []float64) error {
	p.calls++
	if p.wt == nil {
		return p.into.SampleCircuitInto(ctx, path, out)
	}
	start := time.Now()
	err := p.into.SampleCircuitInto(ctx, path, out)
	p.wt.rec.add(0, p.wt.pair, p.wt.series, start, time.Now())
	return err
}

// wrapProber puts the counting wrapper round inner, keeping SamplerInto
// when inner has it.
func wrapProber(inner ting.CircuitProber, total *atomic.Int64, wt *workerTrace) ting.CircuitProber {
	cp := countingProber{inner: inner, total: total, wt: wt}
	if into, ok := inner.(ting.SamplerInto); ok {
		return &countingSampler{countingProber: cp, into: into}
	}
	return &cp
}
