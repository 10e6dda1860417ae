package ting

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ting/internal/geo"
	"ting/internal/inet"
)

// fakeProber returns deterministic RTTs computed from a fixed link map, no
// noise — Eq. (4) must then be exact.
type fakeProber struct {
	rtt  map[[2]string]float64 // symmetric link RTTs
	fwd  map[string]float64    // per-relay per-traversal forwarding delay
	host string
	errs map[string]error // relay → error to fail with
}

func (f *fakeProber) link(a, b string) float64 {
	if a == b {
		return 0
	}
	if v, ok := f.rtt[[2]string{a, b}]; ok {
		return v
	}
	return f.rtt[[2]string{b, a}]
}

func (f *fakeProber) SampleCircuit(ctx context.Context, path []string, n int) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var total float64
	prev := f.host
	for _, r := range path {
		if err := f.errs[r]; err != nil {
			return nil, err
		}
		total += f.link(prev, r)
		total += 2 * f.fwd[r]
		prev = r
	}
	total += f.link(prev, f.host)
	out := make([]float64, n)
	for i := range out {
		out[i] = total
	}
	return out, nil
}

func newFakeWorld() *fakeProber {
	// w and z are colocated with the host; x and y are remote.
	f := &fakeProber{
		rtt:  map[[2]string]float64{},
		fwd:  map[string]float64{"w": 0, "z": 0, "x": 1, "y": 2},
		host: "h",
		errs: map[string]error{},
	}
	set := func(a, b string, v float64) { f.rtt[[2]string{a, b}] = v }
	set("h", "w", 0)
	set("h", "z", 0)
	set("w", "z", 0)
	set("h", "x", 40)
	set("w", "x", 40)
	set("z", "x", 40)
	set("h", "y", 50)
	set("w", "y", 50)
	set("z", "y", 50)
	set("x", "y", 70)
	return f
}

func TestMeasurePairExactEq4(t *testing.T) {
	f := newFakeWorld()
	m, err := NewMeasurer(Config{Prober: f, W: "w", Z: "z", Samples: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.MeasurePair(context.Background(), "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	// Full circuit: h→w(0) →x(40) →y(70) →z(50) →h(0) + 2(Fx+Fy) = 166.
	if math.Abs(res.MinFull-166) > 1e-9 {
		t.Errorf("MinFull = %v, want 166", res.MinFull)
	}
	// C_x: h→w→x→h = 80 + 2Fx = 82; C_y: 100 + 2Fy = 104.
	if math.Abs(res.MinX-82) > 1e-9 || math.Abs(res.MinY-104) > 1e-9 {
		t.Errorf("MinX=%v MinY=%v, want 82, 104", res.MinX, res.MinY)
	}
	// Eq. (4): 166 − 41 − 52 = 73 = R(x,y) + Fx + Fy = 70 + 1 + 2. The
	// estimate's error is exactly the two floor forwarding delays.
	if math.Abs(res.RTT-73) > 1e-9 {
		t.Errorf("RTT = %v, want 73", res.RTT)
	}
	if res.SamplesPerCircuit != 3 {
		t.Errorf("SamplesPerCircuit = %d", res.SamplesPerCircuit)
	}
}

func TestEstimateFunction(t *testing.T) {
	if got := Estimate(100, 40, 60); got != 50 {
		t.Errorf("Estimate = %v, want 50", got)
	}
}

func TestMeasurerValidation(t *testing.T) {
	f := newFakeWorld()
	if _, err := NewMeasurer(Config{W: "w", Z: "z"}); err == nil {
		t.Error("missing prober accepted")
	}
	if _, err := NewMeasurer(Config{Prober: f, W: "w"}); err == nil {
		t.Error("missing Z accepted")
	}
	if _, err := NewMeasurer(Config{Prober: f, W: "w", Z: "w"}); err == nil {
		t.Error("W == Z accepted")
	}
	if _, err := NewMeasurer(Config{Prober: f, W: "w", Z: "z", Samples: -1}); err == nil {
		t.Error("negative samples accepted")
	}
	m, err := NewMeasurer(Config{Prober: f, W: "w", Z: "z"})
	if err != nil {
		t.Fatal(err)
	}
	if m.cfg.Samples != DefaultSamples {
		t.Errorf("default samples = %d, want %d", m.cfg.Samples, DefaultSamples)
	}
	for _, bad := range [][2]string{{"", "x"}, {"x", ""}, {"x", "x"}, {"w", "x"}, {"x", "z"}} {
		if _, err := m.MeasurePair(context.Background(), bad[0], bad[1]); err == nil {
			t.Errorf("MeasurePair(%q, %q) accepted", bad[0], bad[1])
		}
	}
}

func TestMeasurePairPropagatesProberErrors(t *testing.T) {
	f := newFakeWorld()
	f.errs["y"] = fmt.Errorf("relay y went away")
	m, err := NewMeasurer(Config{Prober: f, W: "w", Z: "z", Samples: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.MeasurePair(context.Background(), "x", "y"); err == nil || !strings.Contains(err.Error(), "went away") {
		t.Errorf("error not propagated: %v", err)
	}
}

func TestSampleSeries(t *testing.T) {
	f := newFakeWorld()
	m, _ := NewMeasurer(Config{Prober: f, W: "w", Z: "z", Samples: 5})
	series, err := m.SampleSeries(context.Background(), "x", "y", 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 17 {
		t.Errorf("series length %d", len(series))
	}
	if _, err := m.SampleSeries(context.Background(), "x", "x", 5); err == nil {
		t.Error("self pair accepted")
	}
}

// modelWorld builds a synthetic topology plus host and colocated w, z, and
// the name→node map a ModelProber needs.
func modelWorld(t *testing.T, n int, seed int64) (*inet.Topology, inet.NodeID, map[string]inet.NodeID) {
	t.Helper()
	topo, err := inet.Generate(inet.Config{N: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	host := topo.AddHost("host", geo.Coord{Lat: 40, Lon: -75}, seed+1)
	w := topo.AddColocated(host, "w")
	z := topo.AddColocated(host, "z")
	nodeOf := map[string]inet.NodeID{"w": w, "z": z}
	for i := 0; i < n; i++ {
		nodeOf[topo.Node(inet.NodeID(i)).Name] = inet.NodeID(i)
	}
	return topo, host, nodeOf
}

func TestModelProberAccuracy(t *testing.T) {
	topo, host, nodeOf := modelWorld(t, 12, 100)
	p := NewModelProber(topo, host, nodeOf, 7)
	m, err := NewMeasurer(Config{Prober: p, W: "w", Z: "z", Samples: 200})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		x := topo.Node(inet.NodeID(i)).Name
		y := topo.Node(inet.NodeID(i + 5)).Name
		res, err := m.MeasurePair(context.Background(), x, y)
		if err != nil {
			t.Fatal(err)
		}
		truth := topo.RTT(inet.NodeID(i), inet.NodeID(i+5))
		// The estimate overshoots by about Fx+Fy (floors ≤ ~1.5ms) plus
		// residual queueing; it must never be wildly off.
		ratio := res.RTT / truth
		if ratio < 0.9 || ratio > 1.25 {
			t.Errorf("pair %d: estimate %.2f vs truth %.2f (ratio %.3f)", i, res.RTT, truth, ratio)
		}
	}
}

func TestModelProberUnknownRelay(t *testing.T) {
	topo, host, nodeOf := modelWorld(t, 5, 101)
	p := NewModelProber(topo, host, nodeOf, 8)
	if _, err := p.SampleCircuit(context.Background(), []string{"w", "ghost"}, 3); err == nil {
		t.Error("unknown relay accepted")
	}
	if _, err := p.SampleCircuit(context.Background(), []string{"w"}, 0); err == nil {
		t.Error("zero samples accepted")
	}
	if _, err := p.Ping("ghost"); err == nil {
		t.Error("ping to ghost accepted")
	}
	if _, err := p.TCPPing("ghost"); err == nil {
		t.Error("tcpping to ghost accepted")
	}
}

// TestModelProberChunksMatchPerSample: SampleCircuitInto takes its series in
// stackProbeBatch chunks; at counts that are and are not multiples of the
// chunk, the samples are bitwise the model prober's one-sample calls from
// the same seed, and a following series continues the same stream.
func TestModelProberChunksMatchPerSample(t *testing.T) {
	topo, host, nodeOf := modelWorld(t, 6, 103)
	path := []string{"w", topo.Node(1).Name, topo.Node(4).Name, "z"}
	ids := make([]inet.NodeID, len(path))
	for i, name := range path {
		ids[i] = nodeOf[name]
	}
	for _, n := range []int{1, 7, 8, 9, 13, 16, 199, 200, 201} {
		p := NewModelProber(topo, host, nodeOf, int64(n))
		ref := inet.NewProber(topo, int64(n))
		for series := 0; series < 2; series++ {
			got := make([]float64, n)
			if err := p.SampleCircuitInto(context.Background(), path, got); err != nil {
				t.Fatal(err)
			}
			for i := range got {
				var want [1]float64
				if err := ref.TorPathRTT(host, ids, want[:]); err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got[i]) != math.Float64bits(want[0]) {
					t.Fatalf("n = %d, series %d: sample %d = %v, one-sample call %v", n, series, i, got[i], want[0])
				}
			}
		}
	}
}

// TestModelProberRemembersHops: a prober that skips the name lookup of
// every hop named as at the previous call draws exactly what a plain
// model prober draws over the resolved path, call after call, as paths of
// 2 to 4 hops share and change hops at random and an unknown name turns
// up at any position — refused, whatever the prober remembers there.
func TestModelProberRemembersHops(t *testing.T) {
	topo, host, nodeOf := modelWorld(t, 6, 104)
	names := []string{"w", "z"}
	for i := 0; i < 6; i++ {
		names = append(names, topo.Node(inet.NodeID(i)).Name)
	}
	rng := rand.New(rand.NewSource(5))
	p := NewModelProber(topo, host, nodeOf, 11)
	ref := inet.NewProber(topo, 11)
	path := []string{"w", names[2], names[3], "z"}
	for call := 0; call < 2000; call++ {
		hops := 2 + rng.Intn(3)
		for len(path) < hops {
			path = append(path, names[rng.Intn(len(names))])
		}
		path = path[:hops]
		path[rng.Intn(hops)] = names[rng.Intn(len(names))]
		if rng.Intn(50) == 0 {
			k := rng.Intn(len(path))
			bad := path[k]
			path[k] = "nobody"
			if err := p.SampleCircuitInto(context.Background(), path, make([]float64, 1)); err == nil {
				t.Fatalf("call %d: unknown relay at hop %d of %v accepted", call, k, path)
			}
			path[k] = bad
		}
		ids := make([]inet.NodeID, len(path))
		for k, name := range path {
			ids[k] = nodeOf[name]
		}
		got, want := make([]float64, 3), make([]float64, 3)
		if err := p.SampleCircuitInto(context.Background(), path, got); err != nil {
			t.Fatal(err)
		}
		if err := ref.TorPathRTT(host, ids, want); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("call %d over %v: sample %d = %v, want %v", call, path, i, got[i], want[i])
			}
		}
	}
}

func TestEstimateForwardingUnbiasedNode(t *testing.T) {
	topo, host, nodeOf := modelWorld(t, 10, 102)
	// Make node 0 unbiased with a known floor.
	n0 := topo.Node(0)
	n0.Biased, n0.ICMPBiasMs, n0.TCPBiasMs = false, 0, 0
	n0.Fwd = inet.ForwardingModel{BaseMs: 1.0, QueueMeanMs: 0.3}

	p := NewModelProber(topo, host, nodeOf, 9)
	m, _ := NewMeasurer(Config{Prober: p, W: "w", Z: "z", Samples: 300})
	est, err := m.EstimateForwarding(context.Background(), n0.Name, p, 100)
	if err != nil {
		t.Fatal(err)
	}
	// True total forwarding floor is 2×1.0 ms; estimates carry residual
	// queueing and jitter.
	for _, v := range []float64{est.ICMPMs, est.TCPMs} {
		if v < 0.5 || v > 6 {
			t.Errorf("forwarding estimate %v, want ≈ 2ms (unbiased node): %+v", v, est)
		}
	}
	if est.LocalMs < 0 || est.LocalMs > 2 {
		t.Errorf("local forwarding estimate %v", est.LocalMs)
	}
}

func TestEstimateForwardingBiasedNodeDeviates(t *testing.T) {
	topo, host, nodeOf := modelWorld(t, 10, 103)
	n0 := topo.Node(0)
	n0.Biased = true
	n0.ICMPBiasMs = 15 // ping reads 15ms high → F estimate ~30ms negative
	n0.TCPBiasMs = -10
	n0.Fwd = inet.ForwardingModel{BaseMs: 0.5, QueueMeanMs: 0.3}

	p := NewModelProber(topo, host, nodeOf, 10)
	m, _ := NewMeasurer(Config{Prober: p, W: "w", Z: "z", Samples: 300})
	est, err := m.EstimateForwarding(context.Background(), n0.Name, p, 100)
	if err != nil {
		t.Fatal(err)
	}
	if est.ICMPMs > -20 {
		t.Errorf("ICMP estimate %v, want strongly negative for +15ms ping bias", est.ICMPMs)
	}
	if est.TCPMs < 15 {
		t.Errorf("TCP estimate %v, want strongly positive for −10ms TCP bias", est.TCPMs)
	}
	if math.Abs(est.ICMPMs-est.TCPMs) < 10 {
		t.Error("biased node's ICMP and TCP estimates should visibly disagree")
	}
}

func TestEstimateForwardingValidation(t *testing.T) {
	f := newFakeWorld()
	m, _ := NewMeasurer(Config{Prober: f, W: "w", Z: "z", Samples: 1})
	if _, err := m.EstimateForwarding(context.Background(), "w", nil, 10); err == nil {
		t.Error("forwarding estimate for local relay accepted")
	}
	topo, host, nodeOf := modelWorld(t, 5, 104)
	p := NewModelProber(topo, host, nodeOf, 11)
	m2, _ := NewMeasurer(Config{Prober: p, W: "w", Z: "z", Samples: 5})
	if _, err := m2.EstimateForwarding(context.Background(), topo.Node(0).Name, p, 0); err == nil {
		t.Error("zero ping samples accepted")
	}
}

func TestMatrixBasics(t *testing.T) {
	m, err := NewMatrix([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Set("a", "b", 10); err != nil {
		t.Fatal(err)
	}
	if err := m.Set("b", "c", 20); err != nil {
		t.Fatal(err)
	}
	if err := m.Set("a", "c", 30); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.RTT("b", "a"); v != 10 {
		t.Errorf("RTT(b,a) = %v", v)
	}
	if m.Mean() != 20 {
		t.Errorf("Mean = %v, want 20", m.Mean())
	}
	if m.N() != 3 {
		t.Errorf("N = %d", m.N())
	}
	pv := m.PairValues()
	if len(pv) != 3 {
		t.Errorf("PairValues = %v", pv)
	}
	if _, err := m.RTT("a", "ghost"); err == nil {
		t.Error("ghost lookup accepted")
	}
	if err := m.Set("ghost", "a", 1); err == nil {
		t.Error("ghost set accepted")
	}
	if _, err := NewMatrix([]string{"solo"}); err == nil {
		t.Error("1-relay matrix accepted")
	}
	if _, err := NewMatrix([]string{"dup", "dup"}); err == nil {
		t.Error("duplicate names accepted")
	}
	if _, err := NewMatrix([]string{"", "b"}); err == nil {
		t.Error("empty name accepted")
	}
}

func TestMatrixEncodeDecode(t *testing.T) {
	m, _ := NewMatrix([]string{"r1", "r2", "r3", "r4"})
	m.Set("r1", "r2", 10.5)
	m.Set("r1", "r3", 20.25)
	m.Set("r1", "r4", 30)
	m.Set("r2", "r3", 40)
	m.Set("r2", "r4", 50)
	m.Set("r3", "r4", 60.125)

	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMatrix(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.N(); i++ {
		for j := 0; j < m.N(); j++ {
			if got.At(i, j) != m.At(i, j) {
				t.Fatalf("cell (%d,%d): %v vs %v", i, j, got.At(i, j), m.At(i, j))
			}
		}
	}
}

func TestMatrixEncodeDecodeProperty(t *testing.T) {
	f := func(vals []float64) bool {
		m, _ := NewMatrix([]string{"a", "b", "c"})
		idx := 0
		pick := func() float64 {
			if idx < len(vals) && !math.IsNaN(vals[idx]) && !math.IsInf(vals[idx], 0) {
				v := math.Abs(vals[idx])
				idx++
				return v
			}
			idx++
			return 1
		}
		m.Set("a", "b", pick())
		m.Set("a", "c", pick())
		m.Set("b", "c", pick())
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			return false
		}
		got, err := DecodeMatrix(&buf)
		if err != nil {
			return false
		}
		for i := 0; i < m.N(); i++ {
			for j := 0; j < m.N(); j++ {
				if got.At(i, j) != m.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeMatrixErrors(t *testing.T) {
	bad := []string{
		"",
		"nonsense\n",
		"tingmatrix n=2\na\n",             // wrong name count
		"tingmatrix n=2\na b\n1 2\n",      // truncated rows
		"tingmatrix n=2\na b\n1 2\n3\n",   // short row
		"tingmatrix n=2\na b\n1 x\n3 4\n", // bad float
		"tingmatrix n=1\na\n0\n",          // too few relays
		"tingmatrix n=2\na b\n0 1\n1 0\n", // the text form, though valid
	}
	for _, in := range bad {
		if _, err := DecodeMatrix(strings.NewReader(in)); err == nil {
			t.Errorf("DecodeMatrix(%q) accepted", in)
		}
	}
}

func TestScannerScan(t *testing.T) {
	f := newFakeWorld()
	sc := &Scanner{
		NewMeasurer: func(worker int) (*Measurer, error) {
			return NewMeasurer(Config{Prober: f, W: "w", Z: "z", Samples: 2})
		},
		Workers: 2,
		Shuffle: 1,
	}
	var calls int
	sc.Progress = func(done, total int) { calls++ }
	m, _, err := sc.Scan(context.Background(), []string{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := m.RTT("x", "y")
	if math.Abs(v-73) > 1e-9 {
		t.Errorf("scanned RTT = %v, want 73", v)
	}
	if calls != 1 {
		t.Errorf("progress calls = %d", calls)
	}
}

func TestScannerErrors(t *testing.T) {
	sc := &Scanner{}
	if _, _, err := sc.Scan(context.Background(), []string{"a", "b"}); err == nil {
		t.Error("missing NewMeasurer accepted")
	}
	f := newFakeWorld()
	f.errs["x"] = fmt.Errorf("x is down")
	sc2 := &Scanner{
		NewMeasurer: func(worker int) (*Measurer, error) {
			return NewMeasurer(Config{Prober: f, W: "w", Z: "z", Samples: 1})
		},
	}
	if _, _, err := sc2.Scan(context.Background(), []string{"x", "y"}); err == nil || !strings.Contains(err.Error(), "x is down") {
		t.Errorf("scanner error = %v", err)
	}
}
