package inet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"ting/internal/geo"
)

func mustGenerate(t *testing.T, cfg Config) *Topology {
	t.Helper()
	topo, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestGenerateBasicInvariants(t *testing.T) {
	topo := mustGenerate(t, Config{N: 60, Seed: 1})
	if topo.N() != 60 {
		t.Fatalf("N = %d, want 60", topo.N())
	}
	for i := 0; i < topo.N(); i++ {
		n := topo.Node(NodeID(i))
		if n == nil || n.ID != NodeID(i) {
			t.Fatalf("node %d malformed", i)
		}
		if !n.Coord.Valid() {
			t.Errorf("node %d has invalid coord %v", i, n.Coord)
		}
		if n.AccessMs <= 0 {
			t.Errorf("node %d has non-positive access delay", i)
		}
		if n.BandwidthKBps <= 0 {
			t.Errorf("node %d has non-positive bandwidth", i)
		}
		if n.Fwd.BaseMs <= 0 || n.Fwd.QueueMeanMs <= 0 {
			t.Errorf("node %d forwarding model degenerate: %+v", i, n.Fwd)
		}
		if !n.Biased && (n.ICMPBiasMs != 0 || n.TCPBiasMs != 0) {
			t.Errorf("unbiased node %d has nonzero bias", i)
		}
		for j := 0; j < topo.N(); j++ {
			r := topo.RTT(NodeID(i), NodeID(j))
			if i == j {
				if r != 0 {
					t.Errorf("self-RTT(%d) = %v, want 0", i, r)
				}
				continue
			}
			if r <= 0 {
				t.Errorf("RTT(%d,%d) = %v, want > 0", i, j, r)
			}
			if r != topo.RTT(NodeID(j), NodeID(i)) {
				t.Errorf("RTT not symmetric for (%d,%d)", i, j)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := mustGenerate(t, Config{N: 30, Seed: 42})
	b := mustGenerate(t, Config{N: 30, Seed: 42})
	for i := 0; i < 30; i++ {
		for j := 0; j < 30; j++ {
			if a.RTT(NodeID(i), NodeID(j)) != b.RTT(NodeID(i), NodeID(j)) {
				t.Fatalf("same seed, different RTT at (%d,%d)", i, j)
			}
		}
		if a.Nodes[i].Coord != b.Nodes[i].Coord {
			t.Fatalf("same seed, different coords at %d", i)
		}
	}
	c := mustGenerate(t, Config{N: 30, Seed: 43})
	same := true
	for i := 0; i < 30 && same; i++ {
		for j := 0; j < 30; j++ {
			if a.RTT(NodeID(i), NodeID(j)) != c.RTT(NodeID(i), NodeID(j)) {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical matrices")
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	if _, err := Generate(Config{N: 1}); err == nil {
		t.Error("want error for N=1")
	}
}

func TestRTTAboveSpeedOfLight(t *testing.T) {
	// Every true RTT must be at or above the (2/3)c floor for the pair's
	// true coordinates (Figure 8's sanity line); only geolocation *errors*
	// may appear below it, and those live in geo.GeoDB, not here.
	topo := mustGenerate(t, Config{N: 80, Seed: 2})
	for i := 0; i < topo.N(); i++ {
		for j := i + 1; j < topo.N(); j++ {
			floor := geo.MinRTTMs(topo.Nodes[i].Coord, topo.Nodes[j].Coord)
			if topo.RTT(NodeID(i), NodeID(j)) < floor-1e-9 {
				t.Fatalf("RTT(%d,%d)=%v below light floor %v",
					i, j, topo.RTT(NodeID(i), NodeID(j)), floor)
			}
		}
	}
}

func TestClassAndBiasFractions(t *testing.T) {
	topo := mustGenerate(t, Config{N: 2000, Seed: 3})
	var res, biased int
	for _, n := range topo.Nodes {
		if n.Class == Residential {
			res++
		}
		if n.Biased {
			biased++
		}
	}
	resFrac := float64(res) / 2000
	biasFrac := float64(biased) / 2000
	if math.Abs(resFrac-0.61) > 0.05 {
		t.Errorf("residential fraction = %v, want ≈ 0.61", resFrac)
	}
	if math.Abs(biasFrac-0.35) > 0.05 {
		t.Errorf("biased fraction = %v, want ≈ 0.35", biasFrac)
	}
}

func TestRTTRangeResemblesPaper(t *testing.T) {
	// §4.1: pairs range from very close (~0ms) to nearly antipodal (~500ms).
	topo := mustGenerate(t, Config{N: 150, Seed: 4})
	minR, maxR := math.Inf(1), 0.0
	for i := 0; i < topo.N(); i++ {
		for j := i + 1; j < topo.N(); j++ {
			r := topo.RTT(NodeID(i), NodeID(j))
			if r < minR {
				minR = r
			}
			if r > maxR {
				maxR = r
			}
		}
	}
	if minR > 20 {
		t.Errorf("closest pair %v ms, want some pairs < 20ms", minR)
	}
	if maxR < 250 || maxR > 900 {
		t.Errorf("farthest pair %v ms, want a few hundred ms", maxR)
	}
}

func TestTIVsExist(t *testing.T) {
	// Independent per-pair inflation must create triangle inequality
	// violations for a majority of pairs (§5.2.1 reports 69%).
	topo := mustGenerate(t, Config{N: 50, Seed: 5})
	n := topo.N()
	tiv := 0
	total := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			total++
			direct := topo.RTT(NodeID(i), NodeID(j))
			for k := 0; k < n; k++ {
				if k == i || k == j {
					continue
				}
				if topo.RTT(NodeID(i), NodeID(k))+topo.RTT(NodeID(k), NodeID(j)) < direct {
					tiv++
					break
				}
			}
		}
	}
	frac := float64(tiv) / float64(total)
	if frac < 0.4 || frac > 0.95 {
		t.Errorf("TIV fraction = %v, want majority of pairs (paper: 0.69)", frac)
	}
}

func TestForwardingModelSample(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := ForwardingModel{BaseMs: 0.5, QueueMeanMs: 2, SpikeProb: 0.05, SpikeMeanMs: 20}
	var minSeen, sum float64
	minSeen = math.Inf(1)
	const n = 20000
	for i := 0; i < n; i++ {
		d := m.Sample(rng)
		if d < m.Floor() {
			t.Fatalf("sample %v below floor %v", d, m.Floor())
		}
		if d < minSeen {
			minSeen = d
		}
		sum += d
	}
	if minSeen > m.Floor()+0.1 {
		t.Errorf("min of %d samples = %v, want to approach floor %v", n, minSeen, m.Floor())
	}
	mean := sum / n
	want := m.BaseMs + m.QueueMeanMs + m.SpikeProb*m.SpikeMeanMs
	if math.Abs(mean-want) > 0.3 {
		t.Errorf("mean = %v, want ≈ %v", mean, want)
	}
}

func TestLocalForwardingModelTiny(t *testing.T) {
	m := LocalForwardingModel()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		if d := m.Sample(rng); d > 5 {
			t.Fatalf("local relay forwarding sample %v ms too large", d)
		}
	}
}

func TestProberPingBias(t *testing.T) {
	topo := mustGenerate(t, Config{N: 20, Seed: 8})
	// Force exact values for one pair.
	topo.OverrideRTT(0, 1, 100)
	a, b := topo.Node(0), topo.Node(1)
	a.ICMPBiasMs, a.TCPBiasMs, a.Biased = 10, -5, true
	b.ICMPBiasMs, b.TCPBiasMs, b.Biased = 0, 0, false

	// Each ping adds one link-jitter draw from the prober's stream, which is
	// math/rand's at the same seed.
	p := NewProber(topo, 9)
	ref := rand.New(rand.NewSource(9))
	if got, want := p.Ping(0, 1), 110+ref.ExpFloat64()*linkJitterMs; got != want {
		t.Errorf("Ping = %v, want %v", got, want)
	}
	if got, want := p.TCPPing(0, 1), 95+ref.ExpFloat64()*linkJitterMs; got != want {
		t.Errorf("TCPPing = %v, want %v", got, want)
	}
}

func TestProberPingNonNegative(t *testing.T) {
	topo := mustGenerate(t, Config{N: 10, Seed: 10})
	topo.OverrideRTT(2, 3, 1)
	topo.Node(2).ICMPBiasMs = -50
	p := NewProber(topo, 11)
	for i := 0; i < 100; i++ {
		if got := p.Ping(2, 3); got < 0.05 {
			t.Fatalf("Ping returned %v < clamp", got)
		}
	}
}

func TestTorPathRTTComposition(t *testing.T) {
	topo := mustGenerate(t, Config{N: 10, Seed: 12})
	host := topo.AddHost("host", geo.Coord{Lat: 39, Lon: -77}, 13)
	w := topo.AddColocated(host, "w")
	z := topo.AddColocated(host, "z")
	x, y := NodeID(0), NodeID(1)

	// Zero out stochastic parts to check exact path composition.
	for _, id := range []NodeID{w, x, y, z} {
		topo.Node(id).Fwd = ForwardingModel{BaseMs: 1, QueueMeanMs: 1e-12}
	}
	p := NewProber(topo, 14)
	ref := rand.New(rand.NewSource(14))

	got := make([]float64, 3)
	if err := p.TorPathRTT(host, []NodeID{w, x, y, z}, got); err != nil {
		t.Fatal(err)
	}
	legs := topo.RTT(host, w) + topo.RTT(w, x) + topo.RTT(x, y) +
		topo.RTT(y, z) + topo.RTT(z, host) + 8 // 2 fwd × 4 relays × 1ms
	for i, v := range got {
		// Only the link jitter is left: at most a few ms above the legs.
		if v < legs-0.01 || v > legs+3 {
			t.Errorf("TorPathRTT sample %d = %v, want legs %v plus jitter", i, v, legs)
		}
		if want := torPathSample(topo, ref, linkJitterMs, host, []NodeID{w, x, y, z}); v != want {
			t.Errorf("TorPathRTT sample %d = %v, reference %v", i, v, want)
		}
	}

	if err := p.TorPathRTT(host, nil, got); err == nil {
		t.Error("want error for empty circuit")
	}
	if err := p.TorPathRTT(host, []NodeID{9999}, got); err == nil {
		t.Error("want error for unknown relay")
	}
}

// torPathSample is the one-sample reference TorPathRTT's series must match
// bit for bit: the path's legs summed afresh for every sample, then each
// relay's two forwarding draws in path order, then the link jitter.
func torPathSample(topo *Topology, rng *rand.Rand, jitterMs float64, host NodeID, relays []NodeID) float64 {
	var sum float64
	prev := host
	for _, r := range relays {
		sum += topo.RTT(prev, r)
		prev = r
	}
	sum += topo.RTT(prev, host)
	for _, r := range relays {
		fwd := topo.Node(r).Fwd
		sum += fwd.Sample(rng) + fwd.Sample(rng)
	}
	if jitterMs > 0 {
		sum += rng.ExpFloat64() * jitterMs
	}
	return sum
}

// TestTorPathRTTSeriesMatchesPerSample: a series of random length over a
// random 1–4 hop path is, bit for bit, the reference's samples from the
// same seed — and consecutive series continue one RNG stream, so the
// experiments' numbers do not move when a prober samples in series.
func TestTorPathRTTSeriesMatchesPerSample(t *testing.T) {
	topo := mustGenerate(t, Config{N: 40, Seed: 21})
	host := topo.AddHost("host", geo.Coord{Lat: 39, Lon: -77}, 22)
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := NewProber(topo, seed)
		ref := rand.New(rand.NewSource(seed))
		for call := 0; call < 8; call++ {
			relays := make([]NodeID, 1+rng.Intn(4))
			for i := range relays {
				relays[i] = NodeID(rng.Intn(topo.N()))
			}
			out := make([]float64, 1+rng.Intn(200))
			if err := p.TorPathRTT(host, relays, out); err != nil {
				t.Fatal(err)
			}
			for i, got := range out {
				want := torPathSample(topo, ref, linkJitterMs, host, relays)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d call %d path %v: sample %d of %d = %v, reference %v",
						seed, call, relays, i, len(out), got, want)
				}
			}
		}
	}
}

func TestAddHostAndColocated(t *testing.T) {
	topo := mustGenerate(t, Config{N: 12, Seed: 15})
	host := topo.AddHost("h", geo.Coord{Lat: 50, Lon: 8}, 16)
	if topo.N() != 13 {
		t.Fatalf("N after AddHost = %d", topo.N())
	}
	w := topo.AddColocated(host, "w")
	z := topo.AddColocated(host, "z")
	if topo.N() != 15 {
		t.Fatalf("N after AddColocated twice = %d", topo.N())
	}
	local := map[NodeID]bool{host: true, w: true, z: true}
	for i := NodeID(0); int(i) < topo.N(); i++ {
		for j := NodeID(0); int(j) < topo.N(); j++ {
			if topo.RTT(i, j) != topo.RTT(j, i) {
				t.Errorf("RTT(%d,%d) = %v but RTT(%d,%d) = %v", i, j, topo.RTT(i, j), j, i, topo.RTT(j, i))
			}
		}
		want := 0.0
		if i == host {
			want = 0.05 // loopback
		}
		if got := topo.RTT(i, i); got != want {
			t.Errorf("self-RTT(%d) = %v, want %v", i, got, want)
		}
		if local[i] {
			continue
		}
		for _, c := range []NodeID{w, z} {
			if topo.RTT(i, c) != topo.RTT(i, host) {
				t.Errorf("RTT(%d,%d) = %v, want the host's %v", i, c, topo.RTT(i, c), topo.RTT(i, host))
			}
		}
	}
	for _, p := range [][2]NodeID{{host, w}, {host, z}, {w, z}} {
		if got := topo.RTT(p[0], p[1]); got != 0.05 {
			t.Errorf("RTT(%d,%d) = %v, want 0.05", p[0], p[1], got)
		}
	}
	// Colocated with a relay, a node is one loopback hop from it, too.
	v := topo.AddColocated(5, "v")
	if topo.RTT(5, v) != 0.05 || topo.RTT(v, v) != 0 || topo.RTT(v, 7) != topo.RTT(5, 7) {
		t.Errorf("colocated with relay 5: RTT(5,v) = %v, RTT(v,v) = %v, RTT(v,7) = %v vs %v",
			topo.RTT(5, v), topo.RTT(v, v), topo.RTT(v, 7), topo.RTT(5, 7))
	}
	topo.OverrideRTT(3, 9, 123)
	topo.OverrideRTT(z, 4, 7)
	if topo.RTT(3, 9) != 123 || topo.RTT(9, 3) != 123 || topo.RTT(4, z) != 7 || topo.RTT(z, 4) != 7 {
		t.Errorf("override not seen from both orders: %v %v %v %v",
			topo.RTT(3, 9), topo.RTT(9, 3), topo.RTT(4, z), topo.RTT(z, 4))
	}
}

// TestWorldRTTsUnchanged pins every ground-truth RTT of a small world — a
// generated topology plus a host and two relays colocated with it, the
// shape experiments build — to a hash of its values, so a change to how
// the matrix is stored or grown cannot move one.
func TestWorldRTTsUnchanged(t *testing.T) {
	topo := mustGenerate(t, Config{N: 64, Seed: 1})
	host := topo.AddHost("h", geo.Coord{Lat: 38.99, Lon: -76.94}, 1)
	topo.AddColocated(host, "w")
	topo.AddColocated(host, "z")
	h := sha256.New()
	var buf [8]byte
	for i := NodeID(0); int(i) < topo.N(); i++ {
		for j := i; int(j) < topo.N(); j++ {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(topo.RTT(i, j)))
			h.Write(buf[:])
		}
	}
	const want = "cb6ae9eb90cdedebcbd167ecf19ce60d80eec3a119d271b872a996caf9dac7d0"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("RTT hash = %s, want %s", got, want)
	}
}

// TestWorldBuildAllocs holds a world's build to one triangle of RTTs: a
// 2000-relay Generate plus a host and two colocated relays stores about two
// million distinct values, 16 MB, and may allocate 20 MB in all. Both
// triangles would take 32 MB, and regrowing every row to append one more.
func TestWorldBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	topo := mustGenerate(t, Config{N: 2000, Seed: 1})
	host := topo.AddHost("h", geo.Coord{Lat: 38.99, Lon: -76.94}, 1)
	topo.AddColocated(host, "w")
	topo.AddColocated(host, "z")
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	t.Logf("%.1f MB to build a 2000-relay world", mb)
	if mb >= 20 {
		t.Errorf("%.1f MB to build a 2000-relay world, want < 20", mb)
	}
}

func TestForwardingSamplePositiveProperty(t *testing.T) {
	f := func(base, queue float64, seed int64) bool {
		m := ForwardingModel{
			BaseMs:      math.Abs(math.Mod(base, 5)) + 0.01,
			QueueMeanMs: math.Abs(math.Mod(queue, 10)) + 0.01,
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			if m.Sample(rng) < m.Floor() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClassString(t *testing.T) {
	if Residential.String() != "residential" || Datacenter.String() != "datacenter" ||
		University.String() != "university" {
		t.Error("class names wrong")
	}
	if Class(99).String() != "class(99)" {
		t.Error("unknown class formatting wrong")
	}
}
