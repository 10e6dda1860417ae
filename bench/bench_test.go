package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestTailRank(t *testing.T) {
	for _, c := range []struct {
		n     int
		ok    bool
		index int
	}{
		{0, false, 0},
		{10, false, 0},
		{11, true, 0},     // ten samples lie beyond the first
		{1000, true, 989}, // exactly the 99th percentile
		{5000, true, 4989},
	} {
		index, p, ok := tailRank(c.n)
		if ok != c.ok || index != c.index {
			t.Errorf("tailRank(%d) = index %d ok %v, want index %d ok %v", c.n, index, ok, c.index, c.ok)
		}
		if ok {
			if beyond := c.n - 1 - index; beyond != 10 {
				t.Errorf("tailRank(%d): %d samples beyond, want 10", c.n, beyond)
			}
			if want := float64(index+1) / float64(c.n); p != want {
				t.Errorf("tailRank(%d): percentile %v, want %v", c.n, p, want)
			}
		}
	}

	sorted := make([]time.Duration, 500)
	for i := range sorted {
		sorted[i] = time.Duration(i + 1)
	}
	// 500 samples cannot support p99 (5 beyond): the rule falls back to the
	// highest percentile that has 10 beyond it.
	if v, ok := p99(sorted); !ok || v != 490 {
		t.Errorf("p99 of 500 samples = %v %v, want 490 (the 98th percentile)", v, ok)
	}
	sorted = append(sorted, make([]time.Duration, 1500)...)
	for i := range sorted {
		sorted[i] = time.Duration(i + 1)
	}
	if v, ok := p99(sorted); !ok || v != 1980 {
		t.Errorf("p99 of 2000 samples = %v %v, want 1980", v, ok)
	}
	if got := percentile(sorted, 0.5); got != 1000 {
		t.Errorf("median of 1..2000 = %v, want 1000", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{id: 1, parent: 0, kind: kindScan, start: 0, end: 100},
		// Children overlap each other and one sticks out past the parent:
		// the union [10,50] + [70,100] covers 70 of the parent's 100.
		{id: 2, parent: 1, kind: kindPair, start: 10, end: 30},
		{id: 3, parent: 1, kind: kindPair, start: 20, end: 50},
		{id: 4, parent: 1, kind: kindPair, start: 70, end: 120},
		{id: 5, parent: 3, kind: kindSeriesModel, start: 25, end: 45},
	}
	self := selfTimes(spans)
	if got := self[kindScan]; got.count != 1 || got.total != 100 || got.self != 30 {
		t.Errorf("scan = %+v, want total 100 self 30", got)
	}
	if got := self[kindPair]; got.count != 3 || got.total != 100 || got.self != 80 {
		t.Errorf("pair = %+v, want total 100 self 80", got)
	}
	if got := self[kindSeriesModel]; got.self != 20 {
		t.Errorf("series = %+v, want self 20", got)
	}
}

func TestWithinBound(t *testing.T) {
	for _, c := range []struct {
		a, b, bound float64
		want        bool
	}{
		{100, 109, 0.10, true},
		{100, 91, 0.10, true},
		{100, 111, 0.10, false},
		{100, 89, 0.10, false},
		{1.0645, 1.0645, exact, true},
		{1.0645, 1.0646, exact, false},
		{0, 0, exact, true},
		{0, 1, exact, false},
	} {
		if got := withinBound(c.a, c.b, c.bound); got != c.want {
			t.Errorf("withinBound(%v, %v, %v) = %v, want %v", c.a, c.b, c.bound, got, c.want)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in metrics.go from
// drifting apart: the driver reads one, the program prints from the other.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	if len(spec.EndToEnd) != len(driverEndToEnd) {
		t.Fatalf("%d end-to-end metrics, want %d", len(spec.EndToEnd), len(driverEndToEnd))
	}
	for i, got := range spec.EndToEnd {
		want := endToEndByName(driverEndToEnd[i])
		// One bound per metric there, one per workload here: the file
		// carries the widest. An exact metric gets the smallest bound that
		// still catches one series too many in a stack-scan run.
		bound := 1e-5
		for _, b := range want.bounds {
			bound = math.Max(bound, b)
		}
		if got.Name != want.name || got.Unit != want.unit || got.Better != better(want.higher) || got.Bound == nil || *got.Bound != bound {
			t.Errorf("end_to_end[%d] = %+v, want %s %s %s bound %v", i, got, want.name, want.unit, better(want.higher), bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, want %d", len(spec.PerLayer), len(perLayer))
	}
	for i, got := range spec.PerLayer {
		want := perLayer[i]
		if got.Name != want.name || got.Unit != want.unit || got.Better != better(want.higher) || got.Bound != nil {
			t.Errorf("per_layer[%d] = %+v, want %s %s %s", i, got, want.name, want.unit, better(want.higher))
		}
	}
}

func TestDriverLine(t *testing.T) {
	res := newResult(serveW)
	res.endToEnd["setup_s"] = value{2.5, 1}
	res.endToEnd["batch_lookups_per_s"] = value{9e6, 100}
	res.attempted = 100
	res.finish()
	line := res.line()
	if !line.Correct || line.Attempted != 100 || line.Failed != 0 {
		t.Errorf("line = %+v", line)
	}
	if len(line.Metrics) != len(driverEndToEnd) {
		t.Errorf("%d metrics, want every one of %v", len(line.Metrics), driverEndToEnd)
	}
	if got := line.Metrics["pairs_per_s"]; got.Value != notApplicable || got.Unit != "pairs/s" {
		t.Errorf("a metric serve does not produce = %+v, want the placeholder", got)
	}
	res.layers = map[string]value{"serve.publish_ms": {0.9, 20}}
	line = res.line()
	if len(line.Metrics) != len(perLayer) || line.Metrics["serve.publish_ms"].Value != 0.9 {
		t.Errorf("traced line has %d metrics, want every per-layer one", len(line.Metrics))
	}
}

// The toy passes run each workload end to end at a size that takes well
// under a second, traced, so both halves of the timed part, every
// correctness check and every layer probe are exercised: a refactor of
// internal/* that breaks the driver fails here, not in the next claim.
func toy(t *testing.T, workload string, relays int, seconds float64) *result {
	t.Helper()
	tmp := t.TempDir()
	res, err := workloads[workload](context.Background(), config{
		seed: 1, seconds: seconds, relays: relays, quick: true,
		tmp: tmp, trace: filepath.Join(tmp, "spans.jsonl"),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.problems {
		t.Errorf("check failed: %s", p)
	}
	for _, m := range endToEnd {
		if _, applies := m.bounds[workload]; !applies {
			continue
		}
		if v, ok := res.endToEnd[m.name]; !ok || (v.v == 0 && m.name != "failed_share") {
			t.Errorf("%s: end-to-end metric %s = %v (present %v)", workload, m.name, v.v, ok)
		}
	}
	for _, m := range perLayer {
		if m.workload != workload {
			continue
		}
		if _, ok := res.layers[m.name]; !ok {
			t.Errorf("%s: per-layer metric %s missing", workload, m.name)
		}
	}
	if fi, err := os.Stat(filepath.Join(tmp, "spans.jsonl")); err != nil || fi.Size() == 0 {
		t.Errorf("no spans written: %v", err)
	}
	return res
}

func TestToyStackScan(t *testing.T) {
	res := toy(t, stackScan, 6, 0.2)
	if r := res.layers["ting.pair_breakdown_residual_share"].v; r > 0.5 {
		t.Errorf("hand-driven pair is %.2f away from MeasurePair", r)
	}
}

func TestToyModelScan(t *testing.T) { toy(t, modelScan, 20, 0.2) }
func TestToyCampaign(t *testing.T)  { toy(t, campaignW, 20, 0.2) }
func TestToyServe(t *testing.T)     { toy(t, serveW, 50, 0.7) }
