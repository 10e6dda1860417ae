package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"ting/internal/experiments"
	"ting/internal/geo"
	"ting/internal/inet"
	"ting/internal/stats"
	"ting/internal/ting"
	"ting/internal/tornet"
)

// config is what one run of one workload is given. The seed reaches only
// input generation; the program under test sees the generated inputs.
type config struct {
	seed    int64
	seconds float64 // length of the timed part
	trace   string  // spans file; when set, half the timed part runs untraced, half under spans
	relays  int     // 0 = the workload's full size; tests pass a toy size
	quick   bool    // tests: cut the layer probes to a few calls each
	tmp     string  // where the run may make files
}

func (c config) timed() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// probeBudget is how long a looped layer probe runs.
func (c config) probeBudget() time.Duration {
	if c.quick {
		return time.Millisecond
	}
	return 200 * time.Millisecond
}

// reps is how often a fixed-count layer probe repeats.
func (c config) reps(full int) int {
	if c.quick {
		return 3
	}
	return full
}

func (c config) size(full int) int {
	if c.relays > 0 {
		return c.relays
	}
	return full
}

// scanWorkers is fixed by the 2 cores the benchmark is sized for.
const scanWorkers = 2

// totals sums the units — scans or campaigns — of one phase.
type totals struct {
	units         int
	pairs, series int64
	failed        int64
	wall          time.Duration
	rates         []float64 // pairs/s of each unit
	allocBytes    uint64
	problems      []string
}

// add counts one finished unit.
func (t *totals) add(m meter, end time.Time, pairs, series int64) {
	t.units++
	t.pairs += pairs
	t.series += series
	t.wall += end.Sub(m.start)
	t.rates = append(t.rates, float64(pairs)/m.ran(end).Seconds())
}

// problemf records a failed correctness check; the first few say enough.
func (t *totals) problemf(format string, args ...any) {
	if len(t.problems) < 4 {
		t.problems = append(t.problems, fmt.Sprintf("unit %d: ", t.units)+fmt.Sprintf(format, args...))
	}
}

func (t totals) pairsPerSec() float64 { return steadyRate(t.rates) }

// check counts a phase's pairs and failures into res.
func (t totals) check(res *result) {
	res.attempted += t.pairs
	res.failed += t.failed
	res.problems = append(res.problems, t.problems...)
}

// timed is what the three scanning workloads share once the fixture is
// warm: units of pairs (scans, campaigns) repeated for the timed part.
type timed struct {
	unit    string // what once runs, for printing
	workers int
	series  kind
	// seriesMetric is the per-layer row the series median goes to, if any.
	seriesMetric string
	// once runs one unit and adds it to t.
	once func(ctx context.Context, tr *tracer, t *totals) error
	// layers runs the workload's own layer probes while its fixture is up.
	layers func(layers map[string]value) error
}

// phase repeats the unit for at least dur (and at least once).
func (w timed) phase(ctx context.Context, dur time.Duration, tr *tracer) (totals, error) {
	var t totals
	before := totalAlloc()
	for t.units == 0 || (t.wall < dur && (tr == nil || !tr.full())) {
		if err := w.once(ctx, tr, &t); err != nil {
			return t, err
		}
	}
	t.allocBytes = totalAlloc() - before
	return t, nil
}

// warmUp runs n untimed units.
func (w timed) warmUp(ctx context.Context, n int) error {
	for i := 0; i < n; i++ {
		if err := w.once(ctx, nil, new(totals)); err != nil {
			return err
		}
	}
	return nil
}

// run times the units with tracing off and records the end-to-end metrics;
// a traced run gives that half the timed part and the other half to the
// same units under spans, then takes the per-layer metrics.
func (w timed) run(ctx context.Context, cfg config, res *result) error {
	dur := cfg.timed()
	if cfg.trace != "" {
		dur /= 2
	}
	plain, err := w.phase(ctx, dur, nil)
	if err != nil {
		return err
	}
	fmt.Printf("  per-%s pairs/s: %.0f\n  pairs ÷ wall over the timed part: %.0f pairs/s\n",
		w.unit, plain.rates, float64(plain.pairs)/plain.wall.Seconds())
	res.endToEnd["pairs_per_s"] = value{plain.pairsPerSec(), plain.units}
	res.endToEnd["series_per_pair"] = value{float64(plain.series) / float64(plain.pairs), plain.units}
	res.endToEnd["alloc_kb_per_pair"] = value{float64(plain.allocBytes) / 1024 / float64(plain.pairs), plain.units}
	plain.check(res)
	if cfg.trace == "" {
		return nil
	}
	tr := newTracer()
	since := readUsage()
	traced, err := w.phase(ctx, dur, tr)
	if err != nil {
		return err
	}
	res.layers = map[string]value{}
	procMetrics(res.layers, since)
	traced.check(res)
	res.layers["trace.overhead_share"] = value{1 - traced.pairsPerSec()/plain.pairsPerSec(), traced.units}
	spans := tr.spans()
	scanSpanMetrics(res.layers, spans, w.series, w.seriesMetric, traced.wall*time.Duration(w.workers), traced.pairs)
	if err := w.layers(res.layers); err != nil {
		return err
	}
	return finishTrace(cfg, res, spans)
}

// scanBench is an all-pairs scan that can be repeated: stack-scan and
// model-scan differ only in the prober and the sample count.
type scanBench struct {
	names     []string
	w, z      string
	samples   int
	series    kind
	newProber func(worker int) ting.CircuitProber
	last      *ting.Matrix // what the latest scan measured
}

// scan runs one all-pairs scan and adds it to t.
func (b *scanBench) scan(ctx context.Context, tr *tracer, t *totals) error {
	var series atomic.Int64
	var scanID int32
	if tr != nil {
		scanID = tr.reserve()
	}
	sc := &ting.Scanner{
		Workers: scanWorkers,
		NewMeasurer: func(worker int) (*ting.Measurer, error) {
			cfg := ting.Config{W: b.w, Z: b.z, Samples: b.samples}
			var wt *workerTrace
			if tr != nil {
				wt = newWorkerTrace(tr, scanID, b.series)
				cfg.Observer = wt.observer()
			}
			cfg.Prober = wrapProber(b.newProber(worker), &series, wt)
			return ting.NewMeasurer(cfg)
		},
	}
	meter := startMeter()
	m, failures, err := sc.Scan(ctx, b.names)
	end := time.Now()
	if err != nil {
		return fmt.Errorf("scan: %w", err)
	}
	if tr != nil {
		tr.recorder().add(scanID, 0, kindScan, meter.start, end)
	}
	n := len(b.names)
	pairs := int64(n * (n - 1) / 2)
	t.add(meter, end, pairs, series.Load())
	t.failed += int64(len(failures))
	if len(failures) > 0 {
		t.problemf("%v", failures[0])
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			// Provenance, not a non-zero value, says a pair was measured:
			// with every delay zeroed an honest estimate can be exactly 0.
			if m.ProvAt(i, j) != ting.ProvFresh {
				t.failed++
				t.problemf("pair (%s,%s) is %v in the matrix", b.names[i], b.names[j], m.ProvAt(i, j))
			}
		}
	}
	// The half-circuit cache's whole effect: N half circuits plus one full
	// circuit per pair, never the 3 per pair of the literal procedure.
	if got, want := series.Load(), int64(n)+pairs; got != want {
		t.problemf("%d series, want N+pairs = %d", got, want)
	}
	b.last = m
	return nil
}

// setupReps is how often a run sets its fixture up. setup_s is the median:
// one set-up of a fraction of a second to a few seconds, taken once, spread
// by a third from run to run on the shared host this was built on.
const setupReps = 3

// medianSetup sets the fixture up setupReps times — setUp builds it, warms
// it up and returns how to tear it down — keeps the last one, and records
// the median duration as setup_s.
func medianSetup(res *result, setUp func() (tearDown func(), err error)) (tearDown func(), err error) {
	var took []time.Duration
	for i := 0; i < setupReps; i++ {
		if tearDown != nil {
			tearDown()
		}
		meter := startMeter()
		if tearDown, err = setUp(); err != nil {
			return nil, err
		}
		took = append(took, meter.ran(time.Now()))
	}
	res.endToEnd["setup_s"] = value{median(took).Seconds(), setupReps}
	return tearDown, nil
}

// scanSpanMetrics derives the scan engine's rows from the spans: the
// series and pair medians, and the engine's self time per pair — the worker
// time the scan had (busy) less the time its probers were sampling.
func scanSpanMetrics(layers map[string]value, spans []span, series kind, seriesMetric string, busy time.Duration, pairs int64) {
	sd := durations(spans, series)
	var sampling time.Duration
	for _, d := range sd {
		sampling += d
	}
	if seriesMetric != "" && len(sd) > 0 {
		layers[seriesMetric] = value{micros(percentile(sd, 0.5)), len(sd)}
	}
	pd := durations(spans, kindPair)
	if len(pd) > 0 {
		layers["ting.pair_p50_us"] = value{micros(percentile(pd, 0.5)), len(pd)}
		if v, ok := p99(pd); ok {
			layers["ting.pair_p99_us"] = value{micros(v), len(pd)}
		}
	}
	layers["ting.sched_ns_per_pair"] = value{float64(busy-sampling) / float64(pairs), int(pairs)}
}

// finishTrace prints the self-time report and writes the spans out.
func finishTrace(cfg config, res *result, spans []span) error {
	fmt.Printf("  spans: %s\n", cfg.trace)
	fmt.Printf("  -- self time by span kind (%d spans) --\n", len(spans))
	self := selfTimes(spans)
	for k := range kindNames {
		if kt, ok := self[kind(k)]; ok {
			fmt.Printf("  %-16s %-12s count=%-9d total=%-14v self=%v\n",
				kindNames[k].layer, kindNames[k].name, kt.count, kt.total, kt.self)
		}
	}
	return writeJSONL(cfg.trace, res.workload, spans)
}

func runStackScan(ctx context.Context, cfg config) (*result, error) {
	res := newResult(stackScan)
	n := cfg.size(32)
	var overlay *tornet.Net
	var b *scanBench
	var w timed
	stackProber := func() *ting.StackProber {
		return &ting.StackProber{
			Client:   overlay.Client,
			Registry: overlay.Registry,
			Target:   tornet.EchoTarget,
			ToMs:     overlay.VirtualMs,
			Reuse:    true,
		}
	}
	tearDown, err := medianSetup(res, func() (func(), error) {
		topo, err := inet.Generate(inet.Config{N: n, Seed: cfg.seed, FlatRegions: true})
		if err != nil {
			return nil, err
		}
		host := topo.AddHost("bench-host", geo.Coord{Lat: 38.99, Lon: -76.94}, cfg.seed+7)
		// Every injected delay rounds to zero: with any real TimeScale the
		// figure is the sleeps and the kernel's timer slack, not the stack.
		overlay, err = tornet.Build(tornet.Config{Topology: topo, Host: host, TimeScale: 1e-9})
		if err != nil {
			return nil, err
		}
		b = &scanBench{
			names: make([]string, n), w: tornet.WName, z: tornet.ZName,
			samples: 50, series: kindSeriesStack,
			newProber: func(int) ting.CircuitProber { return stackProber() },
		}
		for i := range b.names {
			b.names[i], _ = overlay.NodeName(inet.NodeID(i))
		}
		w = timed{
			unit: "scan", workers: scanWorkers, once: b.scan,
			series: kindSeriesStack, seriesMetric: "ting.series_us.stack",
			layers: func(layers map[string]value) error {
				return stackLayers(ctx, cfg, layers, overlay, b.names, stackProber)
			},
		}
		if err := w.warmUp(ctx, 3); err != nil {
			overlay.Close()
			return nil, err
		}
		return overlay.Close, nil
	})
	if err != nil {
		return nil, err
	}
	defer tearDown()
	if err := w.run(ctx, cfg, res); err != nil {
		return nil, err
	}
	res.finish()
	return res, nil
}

func runModelScan(ctx context.Context, cfg config) (*result, error) {
	res := newResult(modelScan)
	var world *experiments.World
	var b *scanBench
	var w timed
	_, err := medianSetup(res, func() (func(), error) {
		var err error
		if world, err = experiments.NewWorld(cfg.size(1000), cfg.seed); err != nil {
			return nil, err
		}
		b = &scanBench{
			names: world.Names, w: world.W, z: world.Z,
			samples: 8, series: kindSeriesModel,
			// The model's sampling noise is part of the generated world.
			newProber: func(worker int) ting.CircuitProber { return world.Prober(cfg.seed + 100 + int64(worker)) },
		}
		w = timed{
			unit: "scan", workers: scanWorkers, once: b.scan,
			series: kindSeriesModel, seriesMetric: "ting.series_us.model",
			layers: func(layers map[string]value) error { return modelLayers(ctx, cfg, layers, world) },
		}
		return func() {}, w.warmUp(ctx, 2)
	})
	if err != nil {
		return nil, err
	}
	if err := w.run(ctx, cfg, res); err != nil {
		return nil, err
	}
	// The estimator must still rank pairs as the ground truth does.
	var est, truth []float64
	for i, x := range world.Names {
		for j := i + 1; j < len(world.Names); j++ {
			est = append(est, b.last.At(i, j))
			truth = append(truth, world.Topo.RTT(world.NodeOf[x], world.NodeOf[world.Names[j]]))
		}
	}
	sp, err := stats.Spearman(est, truth)
	if err != nil {
		return nil, err
	}
	fmt.Printf("  spearman vs ground truth: %.4f over %d pairs\n", sp, len(est))
	if sp < 0.99 {
		res.failf("spearman %.4f vs World.TrueRTT, want >= 0.99", sp)
	}
	res.finish()
	return res, nil
}
