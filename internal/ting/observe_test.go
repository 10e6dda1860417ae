package ting

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ting/internal/telemetry"
)

// TestObserverNilSafe: a nil Observer, an Observer with nil fields, and a
// telemetry observer over a nil registry must all absorb every callback.
func TestObserverNilSafe(t *testing.T) {
	for _, o := range []*Observer{nil, {}, NewTelemetryObserver(nil)} {
		o.samples([]string{"w", "x"}, []float64{1, 2})
		o.pairDone("x", "y", &Measurement{RTT: 73}, nil)
		o.retry("x", "y", 1, time.Millisecond, nil)
		o.workerActive(1)
		o.sweepDone(MonitorStats{})
		o.halfCircuit([]string{"w", "x"}, HalfCircuitHit)
		o.halfCircuit([]string{"w", "x"}, HalfCircuitMiss)
		o.halfCircuit([]string{"w", "x"}, HalfCircuitWait)
		o.checkpointAppend(&CheckpointRecord{Kind: RecordPair, J: 1, RTT: 73})
		o.checkpointReplay(3, 4)
		o.breakerChange("x", BreakerClosed, BreakerOpen)
		o.quarantine("x", "y", "x", true)
		o.quarantine("x", "y", "x", false)
	}
}

// TestTelemetryOffAllocParity: telemetry that is off is free. A scan whose
// measurers hold NewTelemetryObserver(nil) allocates what one with no
// Observer does — not a Measurement a pair, nor a joined path a circuit
// and a half-circuit hit, all for a trace ring that is not there.
func TestTelemetryOffAllocParity(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const n = 100
	names, _ := nullScan(n)
	perPair := func(obs *Observer) float64 {
		sc := &Scanner{
			NewMeasurer: func(int) (*Measurer, error) {
				return NewMeasurer(Config{Prober: nullProber{}, W: "w", Z: "z", Samples: 8, Observer: obs})
			},
			Workers:  1,
			Observer: obs,
		}
		return testing.AllocsPerRun(5, func() {
			if _, _, err := sc.Scan(context.Background(), names); err != nil {
				t.Fatal(err)
			}
		}) / (n * (n - 1) / 2)
	}
	none, off := perPair(nil), perPair(NewTelemetryObserver(nil))
	t.Logf("%.3f allocations a pair with no Observer, %.3f with telemetry off", none, off)
	if off > none+0.01 {
		t.Errorf("telemetry off allocates %.3f times a pair, want what no Observer does (%.3f)", off, none)
	}
}

// TestDurabilityTelemetry drives a checkpointed, breaker-guarded scan and a
// resume through a telemetry observer and checks the four durability
// metrics: checkpoint appends/replays, the open-breaker gauge, and the
// quarantined-pair counter.
func TestDurabilityTelemetry(t *testing.T) {
	reg := telemetry.New()
	obs := NewTelemetryObserver(reg)
	f := bigFakeWorld()
	f.errs["x"] = fmt.Errorf("x is down")
	cp := &MemCheckpoint{}
	h := NewHealth(HealthConfig{FailureThreshold: 2, Cooldown: time.Hour, Observer: obs})
	sc := &Scanner{
		NewMeasurer: func(worker int) (*Measurer, error) {
			return NewMeasurer(Config{Prober: f, W: "w", Z: "z", Samples: 1})
		},
		Workers:      1,
		SkipFailures: true,
		Health:       h,
		Checkpoint:   cp,
		Observer:     obs,
	}
	if _, _, err := sc.Scan(context.Background(), []string{"x", "y", "u", "v"}); err != nil {
		t.Fatal(err)
	}
	// Header + 3 successful pairs + their half circuits all hit the log.
	if got := reg.Counter("ting.checkpoint.appended").Value(); got < 4 {
		t.Errorf("checkpoint.appended = %d, want ≥ 4", got)
	}
	if got := reg.Gauge("ting.health.breaker_open").Value(); got != 1 {
		t.Errorf("breaker_open gauge = %d, want 1 (x is quarantined)", got)
	}
	if got := reg.Counter("ting.quarantined_pairs").Value(); got != 1 {
		t.Errorf("quarantined_pairs = %d, want 1", got)
	}
	if got := reg.Counter("ting.checkpoint.replayed").Value(); got != 0 {
		t.Errorf("checkpoint.replayed = %d before any resume", got)
	}

	// A resume of the same log replays the three finished pairs (plus the
	// memoized half circuits) through the replay counter.
	f.errs = map[string]error{} // x recovered; fresh health, no quarantine
	sc2 := &Scanner{
		NewMeasurer: sc.NewMeasurer,
		Workers:     1,
		Observer:    obs,
	}
	if _, _, err := sc2.Resume(context.Background(), cp); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("ting.checkpoint.replayed").Value(); got < 3 {
		t.Errorf("checkpoint.replayed = %d after resume, want ≥ 3", got)
	}
}

// TestScanTelemetryCounts drives a scan with transient failures through a
// telemetry-backed observer, then checks the registry recorded the full
// measurement lifecycle: circuits, samples, pairs, and retries.
func TestScanTelemetryCounts(t *testing.T) {
	reg := telemetry.New()
	obs := NewTelemetryObserver(reg)
	p := &flakyProber{fakeProber: newFakeWorld(), left: 2}
	sc := &Scanner{
		NewMeasurer: func(worker int) (*Measurer, error) {
			return NewMeasurer(Config{Prober: p, W: "w", Z: "z", Samples: 1, Observer: obs})
		},
		Observer: obs,
		Retry:    2,
		Backoff:  time.Millisecond,
	}
	m, failures, err := sc.Scan(context.Background(), []string{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 0 {
		t.Fatalf("failures = %v", failures)
	}
	if v, _ := m.RTT("x", "y"); v != 73 {
		t.Fatalf("RTT = %v, want 73", v)
	}

	count := func(name string) int64 { return reg.Counter(name).Value() }
	// The two injected transient failures each cost one failed circuit,
	// one failed pair attempt, and one scheduled retry; the third attempt
	// measures the pair with three clean circuits of one sample each.
	if got := count("ting.circuits_sampled"); got != 3 {
		t.Errorf("circuits_sampled = %d, want 3", got)
	}
	if got := count("ting.circuit_failures"); got != 2 {
		t.Errorf("circuit_failures = %d, want 2", got)
	}
	if got := count("ting.samples"); got != 3 {
		t.Errorf("samples = %d, want 3", got)
	}
	if got := count("ting.pairs_measured"); got != 1 {
		t.Errorf("pairs_measured = %d, want 1", got)
	}
	if got := count("ting.pair_failures"); got != 2 {
		t.Errorf("pair_failures = %d, want 2", got)
	}
	if got := count("ting.retries"); got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
	if got := reg.Gauge("ting.scanner_active_workers").Value(); got != 0 {
		t.Errorf("active workers = %d after scan, want 0", got)
	}
	if got := reg.Snapshot().Histograms["ting.pair_rtt_ms"].Count; got != 1 {
		t.Errorf("pair_rtt_ms count = %d, want 1", got)
	}
	if len(reg.Trace().Events()) == 0 {
		t.Error("no lifecycle events traced")
	}
}

// TestDebugEndpointDuringScan is the acceptance check for the tentpole:
// the HTTP debug surface, queried after a scan with failures and retries,
// serves a JSON snapshot whose circuit, sample, and retry counters are all
// nonzero.
func TestDebugEndpointDuringScan(t *testing.T) {
	reg := telemetry.New()
	obs := NewTelemetryObserver(reg)
	p := &flakyProber{fakeProber: newFakeWorld(), left: 1}
	sc := &Scanner{
		NewMeasurer: func(worker int) (*Measurer, error) {
			return NewMeasurer(Config{Prober: p, W: "w", Z: "z", Samples: 2, Observer: obs})
		},
		Observer: obs,
		Retry:    1,
		Backoff:  time.Millisecond,
	}
	if _, _, err := sc.Scan(context.Background(), []string{"x", "y"}); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap telemetry.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"ting.circuits_sampled", "ting.samples", "ting.retries",
	} {
		if snap.Counters[name] == 0 {
			t.Errorf("%s = 0 in served snapshot, want nonzero", name)
		}
	}
	if h, ok := snap.Histograms["ting.pair_rtt_ms"]; !ok || h.Count == 0 {
		t.Errorf("pair_rtt_ms missing from served snapshot: %+v", snap.Histograms)
	}
}

// TestMonitorSweepTelemetry: monitor sweeps report through the same
// observer, including empty sweeps (an idle monitor is observable too).
func TestMonitorSweepTelemetry(t *testing.T) {
	reg := telemetry.New()
	obs := NewTelemetryObserver(reg)
	f := newFakeWorld()
	cfg := monitorConfig(t, f, []string{"x", "y"})
	cfg.Observer = obs
	cfg.MaxAge = time.Hour
	mon, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mon.Sweep(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Second sweep finds everything fresh — still a sweep.
	if _, err := mon.Sweep(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("ting.sweeps").Value(); got != 2 {
		t.Errorf("sweeps = %d, want 2 (empty sweeps count)", got)
	}
}
