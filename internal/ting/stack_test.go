package ting

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"ting/internal/control"
	"ting/internal/faults"
	"ting/internal/geo"
	"ting/internal/inet"
	"ting/internal/stats"
	"ting/internal/telemetry"
	"ting/internal/tornet"
)

// buildOverlay builds an in-process overlay with exact, overridden RTTs
// for one (x, y) pair.
func buildOverlay(t *testing.T, scale float64) (*tornet.Net, string, string, float64) {
	t.Helper()
	topo, err := inet.Generate(inet.Config{N: 4, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	host := topo.AddHost("host", geo.Coord{Lat: 48, Lon: 2}, 22)
	x, y := inet.NodeID(0), inet.NodeID(1)
	topo.OverrideRTT(host, x, 30)
	topo.OverrideRTT(host, y, 44)
	topo.OverrideRTT(x, y, 58)

	n, err := tornet.Build(tornet.Config{Topology: topo, Host: host, TimeScale: scale})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	xName, _ := n.NodeName(x)
	yName, _ := n.NodeName(y)
	return n, xName, yName, 58
}

// TestFullStackTingMeasurement runs the complete technique over the real
// onion-routing stack: circuits built hop by hop with real handshakes,
// layered encryption, echo probes through the exit, Eq. (4) applied to
// minimums — and checks the estimate against the exact ground truth.
func TestFullStackTingMeasurement(t *testing.T) {
	n, xName, yName, truth := buildOverlay(t, 1.0)
	prober := &StackProber{
		Client:   n.Client,
		Registry: n.Registry,
		Target:   tornet.EchoTarget,
		ToMs:     n.VirtualMs,
	}
	m, err := NewMeasurer(Config{
		Prober:  prober,
		W:       tornet.WName,
		Z:       tornet.ZName,
		Samples: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.MeasurePair(context.Background(), xName, yName)
	if err != nil {
		t.Fatal(err)
	}
	// Scheduling overhead inflates real-time measurements slightly; the
	// estimate must land within a few ms of the 58ms truth.
	if math.Abs(res.RTT-truth) > 12 {
		t.Errorf("full-stack Ting estimate %.2f ms, ground truth %.2f ms", res.RTT, truth)
	}
	if res.MinFull <= res.MinX/2+res.MinY/2 {
		t.Error("full-circuit RTT should exceed half-sums of isolation circuits")
	}
}

// TestControlProberTing drives the identical measurement through the
// control port — the deployment mode the paper used with Stem.
func TestControlProberTing(t *testing.T) {
	n, xName, yName, truth := buildOverlay(t, 1.0)
	m, err := NewMeasurer(Config{
		Prober:  controlSession(t, n),
		W:       tornet.WName,
		Z:       tornet.ZName,
		Samples: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := m.MeasurePair(context.Background(), xName, yName)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.RTT-truth) > 12 {
		t.Errorf("control-port Ting estimate %.2f ms, truth %.2f ms", res.RTT, truth)
	}
	if res.Elapsed <= 0 || time.Since(start) < res.Elapsed {
		t.Errorf("Elapsed bookkeeping wrong: %v", res.Elapsed)
	}
}

// controlSession serves n's onion proxy on loopback control and data
// ports and returns a prober over one authenticated control connection.
func controlSession(t *testing.T, n *tornet.Net) *ControlProber {
	t.Helper()
	srv, err := control.NewServer(control.ServerConfig{
		Client:   n.Client,
		Registry: n.Registry,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ctrlLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dataLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeControl(ctrlLn)
	go srv.ServeData(dataLn)

	conn, err := control.Dial(ctrlLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := conn.Authenticate(""); err != nil {
		t.Fatal(err)
	}
	return &ControlProber{
		Conn:     conn,
		DataAddr: dataLn.Addr().String(),
		Target:   tornet.EchoTarget,
		ToMs:     n.VirtualMs,
	}
}

// TestControlProberParallelScan: a scan whose workers build their circuits
// over one shared control connection, as ting -all -parallel and tingd
// -control do, measures every pair fresh with no failure. Accuracy is
// TestControlProberTing's to check.
func TestControlProberParallelScan(t *testing.T) {
	n, _, _, _ := buildOverlay(t, 1.0)
	shared := controlSession(t, n)
	names := make([]string, 3)
	for i := range names {
		names[i], _ = n.NodeName(inet.NodeID(i))
	}
	sc := &Scanner{
		NewMeasurer: func(worker int) (*Measurer, error) {
			p := *shared
			return NewMeasurer(Config{Prober: &p, W: tornet.WName, Z: tornet.ZName, Samples: 2})
		},
		Workers: 3,
	}
	m, failures, err := sc.Scan(t.Context(), names)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range failures {
		t.Errorf("pair %s-%s failed after %d attempts: %v", f.X, f.Y, f.Attempts, f.Err)
	}
	if pc, pairs := m.ProvCounts(), len(names)*(len(names)-1)/2; pc.Fresh != pairs {
		t.Errorf("%d of %d pairs fresh: %+v", pc.Fresh, pairs, pc)
	}
}

func TestControlProberValidation(t *testing.T) {
	p := &ControlProber{}
	if _, err := p.SampleCircuit(context.Background(), []string{"a", "b"}, 1); err == nil {
		t.Error("misconfigured control prober accepted")
	}
}

// TestControlProberStalledStream: a data port that attaches the stream and
// then swallows every probe holds SampleCircuit only until the pair's
// context ends, and the error is that context's, as the adaptive
// deadline's retry expects. The port gives up after 3 s on its own.
func TestControlProberStalledStream(t *testing.T) {
	ctrl, peer := net.Pipe()
	go func() {
		br := bufio.NewReader(peer)
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			reply := "250 OK"
			if strings.HasPrefix(line, "EXTENDCIRCUIT") {
				reply = "250 EXTENDED 1"
			}
			fmt.Fprintf(peer, "%s\r\n", reply)
		}
	}()
	conn := control.NewConn(ctrl)
	defer conn.Close()
	dataLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dataLn.Close()
	go func() {
		c, err := dataLn.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		bufio.NewReader(c).ReadString('\n') // CONNECT
		fmt.Fprint(c, "250 OK\r\n")
		c.SetReadDeadline(time.Now().Add(3 * time.Second))
		io.Copy(io.Discard, c)
	}()

	p := &ControlProber{Conn: conn, DataAddr: dataLn.Addr().String(), Target: "echo"}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = p.SampleCircuit(ctx, []string{"w", "x"}, 50)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("stalled stream held SampleCircuit %v under a 200 ms context", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("stalled stream: %v, want context.DeadlineExceeded", err)
	}
}

func TestReusingStackProber(t *testing.T) {
	n, xName, yName, truth := buildOverlay(t, 1.0)
	prober := &StackProber{
		Client:   n.Client,
		Registry: n.Registry,
		Target:   tornet.EchoTarget,
		ToMs:     n.VirtualMs,
		Reuse:    true,
	}
	defer prober.Close()
	m, err := NewMeasurer(Config{
		Prober:  prober,
		W:       tornet.WName,
		Z:       tornet.ZName,
		Samples: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.MeasurePair(context.Background(), xName, yName)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.RTT-truth) > 12 {
		t.Errorf("reusing-prober estimate %.2f ms, truth %.2f ms", res.RTT, truth)
	}

	// A second pair on the same prober still measures correctly.
	res2, err := m.MeasurePair(context.Background(), xName, yName)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res2.RTT-truth) > 12 {
		t.Errorf("second reuse measurement %.2f ms, truth %.2f ms", res2.RTT, truth)
	}
	// All six circuits of the two pairs were one circuit reshaped: C_x
	// extended into C_xy, C_xy cut back to w and re-extended into C_y, and
	// so on — w saw a single CREATE.
	circuits, _, _ := n.RelayByName(tornet.WName).Stats()
	if circuits != 1 {
		t.Errorf("entry relay built %d circuits, want 1 with reuse", circuits)
	}
}

func TestNonReusingProberBuildsThree(t *testing.T) {
	n, xName, yName, _ := buildOverlay(t, 0.25)
	prober := &StackProber{
		Client:   n.Client,
		Registry: n.Registry,
		Target:   tornet.EchoTarget,
		ToMs:     n.VirtualMs,
	}
	m, err := NewMeasurer(Config{
		Prober: prober, W: tornet.WName, Z: tornet.ZName, Samples: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.MeasurePair(context.Background(), xName, yName); err != nil {
		t.Fatal(err)
	}
	circuits, _, _ := n.RelayByName(tornet.WName).Stats()
	if circuits != 3 {
		t.Errorf("entry relay built %d circuits, want 3 without reuse", circuits)
	}
}

// pairLog keeps each pair's Measurement as Observer.PairDone reports it, so
// a full-stack test that fails can log the Eq. (4) minima behind a bad
// estimate: a cell at or below zero, or compressed-time noise in one of
// the three series.
type pairLog struct {
	mu   sync.Mutex
	ms   map[[2]string]*Measurement
	errs map[[2]string]error
}

// observer returns a Measurer observer that records into l.
func (l *pairLog) observer() *Observer {
	l.ms, l.errs = make(map[[2]string]*Measurement), make(map[[2]string]error)
	return &Observer{PairDone: func(x, y string, m *Measurement, err error) {
		l.mu.Lock()
		l.ms[[2]string{x, y}], l.errs[[2]string{x, y}] = m, err
		l.mu.Unlock()
	}}
}

// log writes what the last attempt at (x, y) was made of, under label.
func (l *pairLog) log(t *testing.T, label, x, y string) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	key := [2]string{x, y}
	if _, ok := l.errs[key]; !ok {
		key = [2]string{y, x}
	}
	m, err := l.ms[key], l.errs[key]
	switch {
	case m != nil:
		t.Logf("%s (%s,%s): RTT %.3f = MinFull %.3f − MinX/2 %.3f − MinY/2 %.3f",
			label, x, y, m.RTT, m.MinFull, m.MinX/2, m.MinY/2)
	case err != nil:
		t.Logf("%s (%s,%s): failed: %v", label, x, y, err)
	default:
		t.Logf("%s (%s,%s): never measured", label, x, y)
	}
}

// TestFullStackAllPairsScan is the capstone integration test: the complete
// §4.2-style workflow — parallel scanner, reusing probers, real circuits —
// over a compressed-time overlay, validated against exact ground truth by
// rank correlation (the paper reports Spearman 0.997).
func TestFullStackAllPairsScan(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack scan is seconds-long; skipped in -short")
	}
	topo, err := inet.Generate(inet.Config{N: 6, Seed: 31, FlatRegions: true})
	if err != nil {
		t.Fatal(err)
	}
	host := topo.AddHost("host", geo.Coord{Lat: 40, Lon: -74}, 32)
	n, err := tornet.Build(tornet.Config{Topology: topo, Host: host, TimeScale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	names := make([]string, 6)
	for i := range names {
		names[i], _ = n.NodeName(inet.NodeID(i))
	}
	var probers []*StackProber
	var pairs pairLog
	obs := pairs.observer()
	sc := &Scanner{
		NewMeasurer: func(worker int) (*Measurer, error) {
			p := &StackProber{
				Client:   n.Client,
				Registry: n.Registry,
				Target:   tornet.EchoTarget,
				ToMs:     n.VirtualMs,
				Reuse:    true,
			}
			probers = append(probers, p)
			return NewMeasurer(Config{Prober: p, W: tornet.WName, Z: tornet.ZName, Samples: 4, Observer: obs})
		},
		Workers: 3,
		Shuffle: 33,
	}
	m, _, err := sc.Scan(context.Background(), names)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range probers {
		p.Close()
	}

	var est, truth []float64
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			v, err := m.RTT(names[i], names[j])
			if err != nil {
				t.Fatal(err)
			}
			if v <= 0 {
				t.Errorf("pair (%s,%s) unmeasured", names[i], names[j])
				pairs.log(t, "unmeasured", names[i], names[j])
			}
			est = append(est, v)
			truth = append(truth, topo.RTT(inet.NodeID(i), inet.NodeID(j)))
		}
	}
	if t.Failed() {
		return
	}
	sp, err := stats.Spearman(est, truth)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("full-stack scan: 15 pairs, spearman vs ground truth %.3f", sp)
	// Compressed time plus only 3 samples leaves scheduling noise; rank
	// order must still be essentially right.
	if sp < 0.85 {
		t.Errorf("spearman %.3f too low for a full-stack scan", sp)
		for i, k := 0, 0; i < 6; i++ {
			for j := i + 1; j < 6; j++ {
				pairs.log(t, fmt.Sprintf("truth %.3f", truth[k]), names[i], names[j])
				k++
			}
		}
	}
}

// TestFullStackScanTelemetry runs a seeded tornet scan with every layer
// reporting into one registry and checks the counters tell the story end
// to end: relays built circuits and relayed cells, the client completed
// handshakes, the measurement layer counted circuits, samples, and pairs,
// and the crashed relay shows up in the fault counters.
func TestFullStackScanTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack scan is seconds-long; skipped in -short")
	}
	reg := telemetry.New()
	obs := NewTelemetryObserver(reg)
	topo, err := inet.Generate(inet.Config{N: 3, Seed: 61, FlatRegions: true})
	if err != nil {
		t.Fatal(err)
	}
	host := topo.AddHost("host", geo.Coord{Lat: 40, Lon: -74}, 62)
	plan := faults.NewPlan(63)
	n, err := tornet.Build(tornet.Config{
		Topology:  topo,
		Host:      host,
		TimeScale: 0.06,
		Faults:    plan,
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	names := make([]string, 3)
	for i := range names {
		names[i], _ = n.NodeName(inet.NodeID(i))
	}
	if !n.CrashRelay(names[2]) {
		t.Fatalf("relay %s unknown to the overlay", names[2])
	}

	sc := &Scanner{
		NewMeasurer: func(worker int) (*Measurer, error) {
			p := &StackProber{
				Client:   n.Client,
				Registry: n.Registry,
				Target:   tornet.EchoTarget,
				ToMs:     n.VirtualMs,
			}
			return NewMeasurer(Config{
				Prober: p, W: tornet.WName, Z: tornet.ZName,
				Samples: 2, Observer: obs,
			})
		},
		Workers:      2,
		Shuffle:      64,
		SkipFailures: true,
		Observer:     obs,
	}
	_, failures, err := sc.Scan(context.Background(), names)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 2 {
		t.Fatalf("failures = %v, want the 2 pairs touching the crashed relay", failures)
	}

	count := func(name string) int64 { return reg.Counter(name).Value() }
	for _, name := range []string{
		"relay.circuits_created", "relay.cells_relayed", "relay.streams_opened",
		"client.circuits_built", "client.handshakes", "client.streams_opened",
		"ting.circuits_sampled", "ting.samples", "ting.pairs_measured",
		"tornet.relay_crashes", "faults.crashes",
	} {
		if count(name) == 0 {
			t.Errorf("%s = 0 after a full-stack scan, want nonzero", name)
		}
	}
	// The crashed relay makes the surviving pair's circuits fail on dial.
	if count("client.circuit_build_failures") == 0 && count("faults.dial_refused") == 0 {
		t.Error("crashed relay produced neither build failures nor refused dials")
	}
	if count("ting.pair_failures") == 0 {
		t.Error("pairs touching the crashed relay not counted as failures")
	}
}
