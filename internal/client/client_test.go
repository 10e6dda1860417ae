package client

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"ting/internal/directory"
	"ting/internal/echo"
	"ting/internal/link"
	"ting/internal/onion"
	"ting/internal/relay"
	"ting/internal/telemetry"
)

// testNet is a miniature mintor overlay on a PipeNet: n relays (all
// exit-capable unless noted) plus an in-memory echo destination named
// "echo".
type testNet struct {
	pn     *link.PipeNet
	relays []*relay.Relay
	descs  []*directory.Descriptor
}

type memExitDialer struct{}

func (memExitDialer) DialStream(target string) (io.ReadWriteCloser, error) {
	if target != "echo" {
		return nil, fmt.Errorf("unknown target %q", target)
	}
	a, b := net.Pipe()
	go echo.Handle(b)
	return a, nil
}

func buildTestNet(t *testing.T, n int, opts ...func(i int, cfg *relay.Config)) *testNet {
	t.Helper()
	tn := &testNet{pn: link.NewPipeNet()}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("r%d", i)
		id, err := onion.NewIdentity(rand.New(rand.NewSource(int64(1000 + i))))
		if err != nil {
			t.Fatal(err)
		}
		ln, err := tn.pn.Listen(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := relay.Config{
			Nickname:    name,
			Addr:        name,
			Identity:    id,
			Listener:    ln,
			RelayDialer: tn.pn,
			ExitDialer:  memExitDialer{},
		}
		for _, o := range opts {
			o(i, &cfg)
		}
		r, err := relay.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.Start()
		tn.relays = append(tn.relays, r)
		tn.descs = append(tn.descs, &directory.Descriptor{
			Nickname: name, Addr: name, OnionKey: id.Public(),
			BandwidthKBps: 100, Exit: cfg.ExitDialer != nil,
		})
	}
	t.Cleanup(func() {
		for _, r := range tn.relays {
			r.Close()
		}
	})
	return tn
}

func newTestClient(t *testing.T, tn *testNet) *Client {
	t.Helper()
	c, err := New(Config{Dialer: tn.pn, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuildCircuitPolicies(t *testing.T) {
	tn := buildTestNet(t, 3)
	c := newTestClient(t, tn)
	if _, err := c.BuildCircuit(tn.descs[:1]); !errors.Is(err, ErrPathTooShort) {
		t.Errorf("1-hop build = %v, want ErrPathTooShort", err)
	}
	dup := []*directory.Descriptor{tn.descs[0], tn.descs[1], tn.descs[0]}
	if _, err := c.BuildCircuit(dup); !errors.Is(err, ErrRepeatedRelay) {
		t.Errorf("repeated relay build = %v, want ErrRepeatedRelay", err)
	}
	if _, err := c.BuildCircuit([]*directory.Descriptor{tn.descs[0], nil}); err == nil {
		t.Error("nil descriptor accepted")
	}
}

func TestTwoHopCircuitEcho(t *testing.T) {
	tn := buildTestNet(t, 2)
	c := newTestClient(t, tn)
	circ, err := c.BuildCircuit(tn.descs)
	if err != nil {
		t.Fatal(err)
	}
	defer circ.Close()
	if len(circ.pathSnapshot()) != 2 {
		t.Errorf("Len = %d", len(circ.pathSnapshot()))
	}
	st, err := circ.OpenStream("echo")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ec := echo.NewClient(st)
	rtt, err := ec.Probe()
	if err != nil {
		t.Fatal(err)
	}
	if rtt <= 0 {
		t.Errorf("rtt = %v", rtt)
	}
}

func TestFourHopCircuitEcho(t *testing.T) {
	// The Ting full-circuit shape: (w, x, y, z).
	tn := buildTestNet(t, 4)
	c := newTestClient(t, tn)
	circ, err := c.BuildCircuit(tn.descs)
	if err != nil {
		t.Fatal(err)
	}
	defer circ.Close()
	st, err := circ.OpenStream("echo")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ec := echo.NewClient(st)
	rtts, err := ec.ProbeN(20)
	if err != nil {
		t.Fatal(err)
	}
	if len(rtts) != 20 {
		t.Fatalf("%d probes", len(rtts))
	}
}

func TestLargeTransfer(t *testing.T) {
	tn := buildTestNet(t, 3)
	c := newTestClient(t, tn)
	circ, err := c.BuildCircuit(tn.descs)
	if err != nil {
		t.Fatal(err)
	}
	defer circ.Close()
	st, err := circ.OpenStream("echo")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Multi-cell payload exercises fragmentation and reassembly.
	payload := make([]byte, 5000)
	rnd := rand.New(rand.NewSource(7))
	rnd.Read(payload)
	if _, err := st.Write(payload); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(st, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("echoed payload corrupted")
	}
}

func TestExitPolicyRefusal(t *testing.T) {
	tn := buildTestNet(t, 2, func(i int, cfg *relay.Config) {
		cfg.ExitPolicy = func(target string) bool { return false }
	})
	c := newTestClient(t, tn)
	circ, err := c.BuildCircuit(tn.descs)
	if err != nil {
		t.Fatal(err)
	}
	defer circ.Close()
	if _, err := circ.OpenStream("echo"); err == nil {
		t.Error("stream should be refused by exit policy")
	} else if !strings.Contains(err.Error(), "policy") {
		t.Errorf("error %v does not mention policy", err)
	}
}

func TestNonExitRelayRefusesBegin(t *testing.T) {
	tn := buildTestNet(t, 2, func(i int, cfg *relay.Config) {
		cfg.ExitDialer = nil
	})
	c := newTestClient(t, tn)
	circ, err := c.BuildCircuit(tn.descs)
	if err != nil {
		t.Fatal(err)
	}
	defer circ.Close()
	if _, err := circ.OpenStream("echo"); err == nil {
		t.Error("non-exit relay accepted a stream")
	}
}

func TestUnknownTargetRefused(t *testing.T) {
	tn := buildTestNet(t, 2)
	c := newTestClient(t, tn)
	circ, err := c.BuildCircuit(tn.descs)
	if err != nil {
		t.Fatal(err)
	}
	defer circ.Close()
	if _, err := circ.OpenStream("nonexistent"); err == nil {
		t.Error("unknown target accepted")
	}
}

func TestExtendToSelfRefused(t *testing.T) {
	tn := buildTestNet(t, 2)
	c := newTestClient(t, tn)
	// Two descriptors with different nicknames but the same address: the
	// client's distinct-nickname check passes, so the relay-side
	// extend-to-self check must fire.
	clone := *tn.descs[0]
	clone.Nickname = "impostor"
	if _, err := c.BuildCircuit([]*directory.Descriptor{tn.descs[0], &clone}); err == nil {
		t.Error("extend to self accepted")
	}
}

func TestExtendToDeadRelay(t *testing.T) {
	tn := buildTestNet(t, 2)
	c := newTestClient(t, tn)
	ghost := *tn.descs[1]
	ghost.Nickname = "ghost"
	ghost.Addr = "no-such-listener"
	if _, err := c.BuildCircuit([]*directory.Descriptor{tn.descs[0], &ghost}); err == nil {
		t.Error("extend to dead relay accepted")
	}
}

func TestDialEntryFailure(t *testing.T) {
	tn := buildTestNet(t, 2)
	c := newTestClient(t, tn)
	bad := *tn.descs[0]
	bad.Addr = "nowhere"
	if _, err := c.BuildCircuit([]*directory.Descriptor{&bad, tn.descs[1]}); err == nil {
		t.Error("dial to dead entry accepted")
	}
}

func TestWrongOnionKeyFailsBuild(t *testing.T) {
	tn := buildTestNet(t, 2)
	c := newTestClient(t, tn)
	forged := *tn.descs[0]
	wrongID, _ := onion.NewIdentity(rand.New(rand.NewSource(4242)))
	forged.OnionKey = wrongID.Public()
	if _, err := c.BuildCircuit([]*directory.Descriptor{&forged, tn.descs[1]}); err == nil {
		t.Error("handshake against wrong onion key succeeded")
	}
}

func TestCircuitCloseEndsStreams(t *testing.T) {
	tn := buildTestNet(t, 2)
	c := newTestClient(t, tn)
	circ, err := c.BuildCircuit(tn.descs)
	if err != nil {
		t.Fatal(err)
	}
	st, err := circ.OpenStream("echo")
	if err != nil {
		t.Fatal(err)
	}
	circ.Close()
	buf := make([]byte, 4)
	if _, err := st.Read(buf); err == nil {
		// A racing echo response may still deliver; a second read must
		// fail.
		if _, err2 := st.Read(buf); err2 == nil {
			t.Error("read on closed circuit's stream succeeded twice")
		}
	}
	if _, err := circ.OpenStream("echo"); err == nil {
		t.Error("OpenStream after Close succeeded")
	}
}

func TestStreamCloseThenWrite(t *testing.T) {
	tn := buildTestNet(t, 2)
	c := newTestClient(t, tn)
	circ, err := c.BuildCircuit(tn.descs)
	if err != nil {
		t.Fatal(err)
	}
	defer circ.Close()
	st, err := circ.OpenStream("echo")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Write([]byte("x")); err == nil {
		t.Error("write on closed stream succeeded")
	}
}

func TestConcurrentStreams(t *testing.T) {
	tn := buildTestNet(t, 3)
	c := newTestClient(t, tn)
	circ, err := c.BuildCircuit(tn.descs)
	if err != nil {
		t.Fatal(err)
	}
	defer circ.Close()

	const nStreams = 4
	errs := make(chan error, nStreams)
	for i := 0; i < nStreams; i++ {
		go func(tag byte) {
			st, err := circ.OpenStream("echo")
			if err != nil {
				errs <- err
				return
			}
			defer st.Close()
			msg := bytes.Repeat([]byte{tag}, 100)
			if _, err := st.Write(msg); err != nil {
				errs <- err
				return
			}
			got := make([]byte, len(msg))
			if _, err := io.ReadFull(st, got); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, msg) {
				errs <- fmt.Errorf("stream %d corrupted", tag)
				return
			}
			errs <- nil
		}(byte(i + 1))
	}
	for i := 0; i < nStreams; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

func TestMultipleCircuitsSameClient(t *testing.T) {
	tn := buildTestNet(t, 4)
	c := newTestClient(t, tn)
	c1, err := c.BuildCircuit(tn.descs[:2])
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := c.BuildCircuit(tn.descs[2:])
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for _, circ := range []*Circuit{c1, c2} {
		st, err := circ.OpenStream("echo")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := echo.NewClient(st).Probe(); err != nil {
			t.Fatal(err)
		}
		st.Close()
	}
}

func TestForwardDelayIsApplied(t *testing.T) {
	const fd = 10 * time.Millisecond
	tn := buildTestNet(t, 2, func(i int, cfg *relay.Config) {
		cfg.ForwardDelay = func() time.Duration { return fd }
	})
	c := newTestClient(t, tn)
	circ, err := c.BuildCircuit(tn.descs)
	if err != nil {
		t.Fatal(err)
	}
	defer circ.Close()
	st, err := circ.OpenStream("echo")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rtt, err := echo.NewClient(st).Probe()
	if err != nil {
		t.Fatal(err)
	}
	// Round trip crosses each of the 2 relays twice: ≥ 4 forwarding
	// delays (BEGIN/CONNECTED already consumed some, but DATA pays its
	// own).
	if rtt < 4*fd {
		t.Errorf("rtt %v < 4 × forward delay %v", rtt, fd)
	}
}

func TestRelayStats(t *testing.T) {
	tn := buildTestNet(t, 2)
	c := newTestClient(t, tn)
	circ, err := c.BuildCircuit(tn.descs)
	if err != nil {
		t.Fatal(err)
	}
	defer circ.Close()
	st, err := circ.OpenStream("echo")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := echo.NewClient(st).Probe(); err != nil {
		t.Fatal(err)
	}
	circuits, cells, _ := tn.relays[0].Stats()
	if circuits == 0 {
		t.Error("entry relay reports no circuits")
	}
	if cells == 0 {
		t.Error("entry relay reports no relayed cells")
	}
	_, _, streams := tn.relays[1].Stats()
	if streams == 0 {
		t.Error("exit relay reports no streams")
	}
}

// TestRelayedCellsCounterMatchesStats: the shared relay.cells_relayed
// counter is the sum of what each relay's Stats reports, so it counts the
// backward direction too. The two reads bracket no traffic: every probe's
// echo has crossed the entry relay backward before Probe returns.
func TestRelayedCellsCounterMatchesStats(t *testing.T) {
	reg := telemetry.New()
	tn := buildTestNet(t, 2, func(_ int, cfg *relay.Config) { cfg.Telemetry = reg })
	c := newTestClient(t, tn)
	circ, err := c.BuildCircuit(tn.descs)
	if err != nil {
		t.Fatal(err)
	}
	defer circ.Close()
	st, err := circ.OpenStream("echo")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const probes = 5
	if _, err := echo.NewClient(st).ProbeN(probes); err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, r := range tn.relays {
		_, cells, _ := r.Stats()
		sum += cells
	}
	// The entry relay passes BEGIN and each probe forward, CONNECTED and
	// each echo backward (EXTEND and EXTENDED are its own); the exit relays
	// nothing.
	if want := 2 * (1 + probes); sum != want {
		t.Errorf("relays report %d relayed cells, want %d", sum, want)
	}
	if got := reg.Counter("relay.cells_relayed").Value(); got != int64(sum) {
		t.Errorf("relay.cells_relayed = %d, relays' Stats sum to %d", got, sum)
	}
}

func TestNewClientValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing dialer accepted")
	}
}
