package client

import (
	"slices"
	"testing"
	"time"

	"ting/internal/echo"
	"ting/internal/relay"
)

// Tests for Tor's leaky-pipe topology: streams at arbitrary hops and
// post-build circuit extension.

func TestStreamAtMiddleHop(t *testing.T) {
	tn := buildTestNet(t, 3)
	c := newTestClient(t, tn)
	circ, err := c.BuildCircuit(tn.descs)
	if err != nil {
		t.Fatal(err)
	}
	defer circ.Close()

	// Exit from hop 0 (the entry) and hop 1 (the middle), not just the end.
	for hop := 0; hop < 3; hop++ {
		st, err := circ.OpenStreamAt(hop, "echo")
		if err != nil {
			t.Fatalf("hop %d: %v", hop, err)
		}
		if _, err := echo.NewClient(st).Probe(); err != nil {
			t.Fatalf("hop %d: %v", hop, err)
		}
		st.Close()
	}
	if _, err := circ.OpenStreamAt(3, "echo"); err == nil {
		t.Error("out-of-range hop accepted")
	}
	if _, err := circ.OpenStreamAt(-1, "echo"); err == nil {
		t.Error("negative hop accepted")
	}
}

func TestExtendEstablishedCircuit(t *testing.T) {
	tn := buildTestNet(t, 4)
	c := newTestClient(t, tn)
	circ, err := c.BuildCircuit(tn.descs[:2])
	if err != nil {
		t.Fatal(err)
	}
	defer circ.Close()
	if len(circ.pathSnapshot()) != 2 {
		t.Fatalf("built %d hops", len(circ.pathSnapshot()))
	}

	// A stream opened before extension…
	early, err := circ.OpenStream("echo")
	if err != nil {
		t.Fatal(err)
	}
	defer early.Close()

	// …must keep working after the circuit grows by two hops.
	if err := circ.Extend(tn.descs[2]); err != nil {
		t.Fatal(err)
	}
	if err := circ.Extend(tn.descs[3]); err != nil {
		t.Fatal(err)
	}
	if len(circ.pathSnapshot()) != 4 {
		t.Fatalf("after extension: %d hops", len(circ.pathSnapshot()))
	}
	if _, err := echo.NewClient(early).Probe(); err != nil {
		t.Fatalf("pre-extension stream broken: %v", err)
	}

	// New streams exit from the new last hop.
	late, err := circ.OpenStream("echo")
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	if _, err := echo.NewClient(late).Probe(); err != nil {
		t.Fatal(err)
	}
	if late.hop != 3 {
		t.Errorf("new stream attached at hop %d, want 3", late.hop)
	}
}

func TestExtendValidation(t *testing.T) {
	tn := buildTestNet(t, 3)
	c := newTestClient(t, tn)
	circ, err := c.BuildCircuit(tn.descs[:2])
	if err != nil {
		t.Fatal(err)
	}
	defer circ.Close()
	if err := circ.Extend(nil); err == nil {
		t.Error("nil descriptor accepted")
	}
	if err := circ.Extend(tn.descs[0]); err == nil {
		t.Error("repeated relay accepted by Extend")
	}
	ghost := *tn.descs[2]
	ghost.Nickname = "ghost"
	ghost.Addr = "nowhere"
	if err := circ.Extend(&ghost); err == nil {
		t.Error("extend to dead relay accepted")
	}
	// The circuit survives a failed extension attempt.
	if err := circ.Extend(tn.descs[2]); err != nil {
		t.Fatalf("extend after failed extend: %v", err)
	}
	st, err := circ.OpenStream("echo")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := echo.NewClient(st).Probe(); err != nil {
		t.Fatal(err)
	}
}

func TestExtendClosedCircuit(t *testing.T) {
	tn := buildTestNet(t, 3)
	c := newTestClient(t, tn)
	circ, err := c.BuildCircuit(tn.descs[:2])
	if err != nil {
		t.Fatal(err)
	}
	circ.Close()
	time.Sleep(10 * time.Millisecond)
	if err := circ.Extend(tn.descs[2]); err == nil {
		t.Error("extend on closed circuit accepted")
	}
}

func TestLatencyMeasurementAtEachHop(t *testing.T) {
	// The leaky pipe gives Ting a second way to isolate per-hop RTTs: a
	// stream at hop i measures the path up to relay i.
	const fd = 8 * time.Millisecond
	tn := buildTestNet(t, 3, func(i int, cfg *relay.Config) {
		cfg.ForwardDelay = func() time.Duration { return fd }
	})
	c := newTestClient(t, tn)
	circ, err := c.BuildCircuit(tn.descs)
	if err != nil {
		t.Fatal(err)
	}
	defer circ.Close()

	var rtts [3]time.Duration
	for hop := 0; hop < 3; hop++ {
		st, err := circ.OpenStreamAt(hop, "echo")
		if err != nil {
			t.Fatal(err)
		}
		probes, err := echo.NewClient(st).ProbeN(3)
		if err != nil {
			t.Fatal(err)
		}
		min := slices.Min(probes)
		st.Close()
		rtts[hop] = min
	}
	// Deeper hops pay strictly more forwarding delay.
	if !(rtts[0] < rtts[1] && rtts[1] < rtts[2]) {
		t.Errorf("per-hop RTTs not increasing: %v", rtts)
	}
}
