package ting

import (
	"context"
	"math"
	"testing"

	"ting/internal/faults"
	"ting/internal/geo"
	"ting/internal/inet"
	"ting/internal/telemetry"
	"ting/internal/tornet"
)

// Circuit reshaping seen from the measurement layer: a reusing StackProber
// keeps one circuit (and one link to w) per worker for a whole scan,
// cutting it back to the prefix it shares with the next path and extending
// from there.

// reshapeScan runs one all-pairs scan over reusing probers on the bench's
// stack-scan fixture shape — flat-region topology, every delay rounded to
// zero, Shuffle 0, per-scan half-circuit cache — and returns the overlay's
// counters for that scan alone plus the series count.
func reshapeScan(t *testing.T, relays, workers int) (count func(string) int64, series int) {
	t.Helper()
	reg := telemetry.New()
	topo, err := inet.Generate(inet.Config{N: relays, Seed: 1, FlatRegions: true})
	if err != nil {
		t.Fatal(err)
	}
	host := topo.AddHost("host", geo.Coord{Lat: 38.99, Lon: -76.94}, 8)
	n, err := tornet.Build(tornet.Config{Topology: topo, Host: host, TimeScale: 1e-9, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	names := make([]string, relays)
	for i := range names {
		names[i], _ = n.NodeName(inet.NodeID(i))
	}
	sc := newSeriesCounter()
	obs := sc.observer(nil)
	scanner := &Scanner{
		Workers: workers,
		NewMeasurer: func(int) (*Measurer, error) {
			p := &StackProber{
				Client: n.Client, Registry: n.Registry, Target: tornet.EchoTarget,
				ToMs: n.VirtualMs, Reuse: true,
			}
			return NewMeasurer(Config{Prober: p, W: tornet.WName, Z: tornet.ZName, Samples: 2, Observer: obs})
		},
	}
	m, failures, err := scanner.Scan(context.Background(), names)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 0 {
		t.Fatalf("failures = %v", failures)
	}
	if pc := m.ProvCounts(); pc.Fresh != relays*(relays-1)/2 {
		t.Fatalf("fresh pairs = %d of %d", pc.Fresh, relays*(relays-1)/2)
	}
	halves, fulls, _ := sc.counts()
	return func(name string) int64 { return reg.Counter(name).Value() }, halves + fulls
}

// TestReshapingScanExactCounts pins what prefix reuse buys on the bench's
// stack-scan shape (32 relays, 496 pairs). Rebuilding on every change of
// path, a scan dialed w 526 times and shook hands 2044 times.
func TestReshapingScanExactCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("two 32-relay full-stack scans; skipped in -short")
	}
	const relays, pairs = 32, 496

	// One worker walks the first-endpoint groups in order, so the counts
	// are exact. Group x0 (31 pairs) also samples every half circuit: its
	// first pair builds (w,x0) [2 handshakes], extends to (w,x0,x1,z) [2],
	// and reshapes to (w,x1) [1]; each later pair goes (w,y') → (w,x0,y,z)
	// [3] → (w,y) [1]. Every later group finds all halves cached: its first
	// pair shares only w with the previous circuit [3], the rest share
	// (w,x) [2 each]. 5 + 30·4 + Σ_{g=1..30} (3 + 2·(30−g)) = 1085.
	// Every change of path but the first build and the first extension is
	// one TRUNCATE: 2·31 − 1 in group x0, one per pair after it = 526.
	count, series := reshapeScan(t, relays, 1)
	if series != relays+pairs {
		t.Errorf("1 worker: %d series, want N+pairs = %d", series, relays+pairs)
	}
	for name, want := range map[string]int64{
		"client.circuits_built":    1,
		"client.handshakes":        1085,
		"client.truncates":         526,
		"client.truncate_failures": 0,
		"relay.truncates":          526,
	} {
		if got := count(name); got != want {
			t.Errorf("1 worker: %s = %d, want %d", name, got, want)
		}
	}

	// Two workers split the groups; who samples which half circuit first
	// depends on timing, which moves a few single-handshake reshapes
	// between them. Dials do not move: one per worker.
	count, series = reshapeScan(t, relays, 2)
	if series != relays+pairs {
		t.Errorf("2 workers: %d series, want N+pairs = %d", series, relays+pairs)
	}
	if got := count("client.circuits_built"); got != 2 {
		t.Errorf("2 workers: client.circuits_built = %d, want one per worker", got)
	}
	if got := count("client.handshakes"); got < 1050 || got > 1150 {
		t.Errorf("2 workers: client.handshakes = %d, want ≈1084 (2044 without prefix reuse)", got)
	}
	if got := count("client.truncate_failures"); got != 0 {
		t.Errorf("2 workers: client.truncate_failures = %d", got)
	}
	t.Logf("2 workers: %d handshakes, %d truncates", count("client.handshakes"), count("client.truncates"))
}

// TestReshapingScanMatchesNonReusing checks that reshaping changes how
// circuits come to be, not what they measure: at a real TimeScale a
// reusing scan and the literal build-per-circuit scan agree pair by pair.
func TestReshapingScanMatchesNonReusing(t *testing.T) {
	if testing.Short() {
		t.Skip("two timed full-stack scans; skipped in -short")
	}
	const relays = 4
	topo, err := inet.Generate(inet.Config{N: relays, Seed: 41, FlatRegions: true})
	if err != nil {
		t.Fatal(err)
	}
	host := topo.AddHost("host", geo.Coord{Lat: 48, Lon: 2}, 42)
	// Short, distinct legs keep a series to a few tens of milliseconds.
	for i := 0; i < relays; i++ {
		topo.OverrideRTT(host, inet.NodeID(i), float64(10+4*i))
		for j := i + 1; j < relays; j++ {
			topo.OverrideRTT(inet.NodeID(i), inet.NodeID(j), float64(20+6*i+3*j))
		}
	}
	// Unscaled time: the host's CPU cost under load lands in a series as
	// real milliseconds, and a compressed clock would read it doubled.
	n, err := tornet.Build(tornet.Config{Topology: topo, Host: host, TimeScale: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	names := make([]string, relays)
	for i := range names {
		names[i], _ = n.NodeName(inet.NodeID(i))
	}
	var reshapedPairs, literalPairs pairLog
	scan := func(reuse bool) *Matrix {
		pairs := &literalPairs
		if reuse {
			pairs = &reshapedPairs
		}
		obs := pairs.observer()
		sc := &Scanner{
			Workers: 2,
			NewMeasurer: func(int) (*Measurer, error) {
				p := &StackProber{
					Client: n.Client, Registry: n.Registry, Target: tornet.EchoTarget,
					ToMs: n.VirtualMs, Reuse: reuse,
				}
				return NewMeasurer(Config{Prober: p, W: tornet.WName, Z: tornet.ZName, Samples: 4, Observer: obs})
			},
		}
		m, failures, err := sc.Scan(context.Background(), names)
		if err != nil || len(failures) != 0 {
			t.Fatalf("scan(reuse=%v): %v, failures %v", reuse, err, failures)
		}
		return m
	}
	reshaped, literal := scan(true), scan(false)
	for i := 0; i < relays; i++ {
		for j := i + 1; j < relays; j++ {
			a, b := reshaped.At(i, j), literal.At(i, j)
			truth := topo.RTT(inet.NodeID(i), inet.NodeID(j))
			if math.Abs(a-b) > 12 || math.Abs(a-truth) > 12 {
				t.Errorf("pair (%s,%s): reshaped %.2f ms, literal %.2f ms, truth %.2f ms",
					names[i], names[j], a, b, truth)
				reshapedPairs.log(t, "reshaped", names[i], names[j])
				literalPairs.log(t, "literal", names[i], names[j])
			}
		}
	}
}

// TestReshapeFailureFallsBackToRebuild injects a link reset exactly at the
// TRUNCATE step and checks the pair still completes: the prober closes the
// broken circuit, builds the next one afresh, and nothing above it sees an
// error.
func TestReshapeFailureFallsBackToRebuild(t *testing.T) {
	const samples = 2
	reg := telemetry.New()
	topo, err := inet.Generate(inet.Config{N: 2, Seed: 71, FlatRegions: true})
	if err != nil {
		t.Fatal(err)
	}
	host := topo.AddHost("host", geo.Coord{Lat: 40, Lon: -74}, 72)
	plan := faults.NewPlan(73)
	// What the client sends on its link to w for one pair: C_x is CREATE,
	// EXTEND, BEGIN, the probes, END; growing it into C_xy is two EXTENDs,
	// BEGIN, the probes, END; the next cell is the TRUNCATE toward C_y.
	truncateSend := (3 + samples + 1) + (3 + samples + 1) + 1
	plan.SetLink("host", tornet.WName, faults.LinkFaults{ResetAfter: truncateSend})
	n, err := tornet.Build(tornet.Config{
		Topology: topo, Host: host, TimeScale: 1e-9,
		Faults: plan, Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	x, _ := n.NodeName(0)
	y, _ := n.NodeName(1)

	prober := &StackProber{
		Client: n.Client, Registry: n.Registry, Target: tornet.EchoTarget,
		ToMs: n.VirtualMs, Reuse: true,
	}
	defer prober.Close()
	m, err := NewMeasurer(Config{Prober: prober, W: tornet.WName, Z: tornet.ZName, Samples: samples})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.MeasurePair(context.Background(), x, y); err != nil {
		t.Fatalf("pair failed although a rebuild was possible: %v", err)
	}
	count := func(name string) int64 { return reg.Counter(name).Value() }
	if got := count("client.truncate_failures"); got != 1 {
		t.Errorf("client.truncate_failures = %d, want 1 (the injected reset must land on the TRUNCATE; recount truncateSend if the client's cell sequence changed)", got)
	}
	if count("faults.resets") == 0 {
		t.Error("faults.resets = 0: the plan never fired")
	}
	if got := count("client.circuits_built"); got != 2 {
		t.Errorf("client.circuits_built = %d, want 2 (C_x grown into C_xy, then C_y rebuilt)", got)
	}
	if got := count("client.circuit_build_failures"); got != 0 {
		t.Errorf("client.circuit_build_failures = %d, want 0", got)
	}
}
