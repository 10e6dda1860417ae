package client

import (
	"errors"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ting/internal/cell"
	"ting/internal/echo"
	"ting/internal/relay"
	"ting/internal/telemetry"
)

// Circuit reshaping from the client's side: Truncate keeps a prefix of the
// circuit alive — link, keys, streams — and Extend grafts a new tail on.

func TestTruncateThenExtendReshapesCircuit(t *testing.T) {
	tn := buildTestNet(t, 4)
	reg := telemetry.New()
	c, err := New(Config{Dialer: tn.pn, Timeout: 5 * time.Second, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	circ, err := c.BuildCircuit(tn.descs[:3])
	if err != nil {
		t.Fatal(err)
	}
	defer circ.Close()

	kept, err := circ.OpenStreamAt(1, "echo")
	if err != nil {
		t.Fatal(err)
	}
	defer kept.Close()
	dropped, err := circ.OpenStream("echo") // exits at hop 2
	if err != nil {
		t.Fatal(err)
	}
	keptEcho := echo.NewClient(kept)
	if _, err := keptEcho.Probe(); err != nil {
		t.Fatal(err)
	}

	if err := circ.Truncate(2); err != nil {
		t.Fatal(err)
	}
	if len(circ.pathSnapshot()) != 2 || circ.pathSnapshot()[1] != tn.descs[1] {
		t.Fatalf("after Truncate(2): %d hops", len(circ.pathSnapshot()))
	}
	// The stream beyond the cut is closed; the one at a kept hop flows on.
	if _, err := dropped.Read(make([]byte, 8)); err != io.EOF {
		t.Errorf("read on a stream past the cut = %v, want EOF", err)
	}
	if _, err := dropped.Write([]byte("x")); err == nil {
		t.Error("write on a stream past the cut accepted")
	}
	if _, err := keptEcho.Probe(); err != nil {
		t.Fatalf("stream at a kept hop broke across Truncate: %v", err)
	}
	if _, err := circ.OpenStreamAt(2, "echo"); err == nil {
		t.Error("stream opened at a dropped hop")
	}

	// A different tail: (r0, r1) → (r0, r1, r3, r2). r2 was on the old
	// path; its old circuit is gone, so it may appear again.
	if err := circ.Extend(tn.descs[3]); err != nil {
		t.Fatal(err)
	}
	if err := circ.Extend(tn.descs[2]); err != nil {
		t.Fatal(err)
	}
	fresh, err := circ.OpenStream("echo")
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if fresh.hop != 3 {
		t.Errorf("new stream attached at hop %d, want 3", fresh.hop)
	}
	for i := 0; i < 3; i++ {
		if _, err := echo.NewClient(fresh).Probe(); err != nil {
			t.Fatalf("probe over the fresh hops: %v", err)
		}
		if _, err := keptEcho.Probe(); err != nil {
			t.Fatalf("kept stream after re-extension: %v", err)
		}
	}

	if got := reg.Counter("client.truncates").Value(); got != 1 {
		t.Errorf("client.truncates = %d, want 1", got)
	}
	if got := reg.Counter("client.truncate_failures").Value(); got != 0 {
		t.Errorf("client.truncate_failures = %d, want 0", got)
	}
	// One link, one circuit, 3 + 2 handshakes.
	if got := reg.Counter("client.circuits_built").Value(); got != 1 {
		t.Errorf("client.circuits_built = %d, want 1", got)
	}
	if got := reg.Counter("client.handshakes").Value(); got != 5 {
		t.Errorf("client.handshakes = %d, want 5", got)
	}
}

func TestTruncateRangeAndNoOp(t *testing.T) {
	tn := buildTestNet(t, 3)
	reg := telemetry.New()
	c, err := New(Config{Dialer: tn.pn, Timeout: 5 * time.Second, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	circ, err := c.BuildCircuit(tn.descs)
	if err != nil {
		t.Fatal(err)
	}
	defer circ.Close()
	for _, n := range []int{-1, 0, 4} {
		if err := circ.Truncate(n); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("Truncate(%d) = %v, want a range error", n, err)
		}
	}
	// n == Len() sends nothing: no relay ever sees a TRUNCATE.
	if err := circ.Truncate(3); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("client.truncates").Value(); got != 0 {
		t.Errorf("no-op Truncate counted %d truncates", got)
	}
	if len(circ.pathSnapshot()) != 3 {
		t.Errorf("Len = %d after no-op Truncate", len(circ.pathSnapshot()))
	}
}

func TestOneHopCircuitRefusesStreams(t *testing.T) {
	tn := buildTestNet(t, 3)
	c := newTestClient(t, tn)
	circ, err := c.BuildCircuit(tn.descs[:2])
	if err != nil {
		t.Fatal(err)
	}
	defer circ.Close()
	if err := circ.Truncate(1); err != nil {
		t.Fatal(err)
	}
	// The one-hop state exists only to be extended (§3.1: no one-hop
	// circuits): neither form of stream open may use it.
	if _, err := circ.OpenStream("echo"); !errors.Is(err, ErrPathTooShort) {
		t.Errorf("OpenStream on a one-hop circuit = %v, want ErrPathTooShort", err)
	}
	if _, err := circ.OpenStreamAt(0, "echo"); !errors.Is(err, ErrPathTooShort) {
		t.Errorf("OpenStreamAt(0) on a one-hop circuit = %v, want ErrPathTooShort", err)
	}
	if err := circ.Extend(tn.descs[2]); err != nil {
		t.Fatal(err)
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

func TestTruncateFailures(t *testing.T) {
	var slow atomic.Bool
	tn := buildTestNet(t, 3, func(i int, cfg *relay.Config) {
		if i == 0 {
			cfg.ForwardDelay = func() time.Duration {
				if slow.Load() {
					return 600 * time.Millisecond
				}
				return 0
			}
		}
	})
	reg := telemetry.New()
	c, err := New(Config{Dialer: tn.pn, Timeout: 150 * time.Millisecond, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}

	// A reply other than TRUNCATED (here a stale END left on the control
	// queue) is an error, not something to wait past.
	circ, err := c.BuildCircuit(tn.descs)
	if err != nil {
		t.Fatal(err)
	}
	circ.ctrl <- cell.RelayCell{Cmd: cell.RelayEnd}
	if err := circ.Truncate(1); err == nil || !strings.Contains(err.Error(), "unexpected END") {
		t.Errorf("Truncate answered by END = %v, want an unexpected-reply error", err)
	}
	if len(circ.pathSnapshot()) != 3 {
		t.Errorf("failed Truncate changed the path to %d hops", len(circ.pathSnapshot()))
	}
	circ.Close()

	// No reply within the protocol timeout.
	circ, err = c.BuildCircuit(tn.descs)
	if err != nil {
		t.Fatal(err)
	}
	slow.Store(true)
	if err := circ.Truncate(2); err == nil || !strings.Contains(err.Error(), "timeout") {
		t.Errorf("Truncate through a stalled relay = %v, want a timeout", err)
	}
	slow.Store(false)
	circ.Close()

	// A circuit that is already gone.
	if err := circ.Truncate(1); err == nil {
		t.Error("Truncate on a closed circuit accepted")
	}

	if got := reg.Counter("client.truncate_failures").Value(); got != 2 {
		t.Errorf("client.truncate_failures = %d, want 2 (bad reply, timeout)", got)
	}
	if got := reg.Counter("client.truncates").Value(); got != 0 {
		t.Errorf("client.truncates = %d, want 0", got)
	}
}

// TestProbeAllocs pins the data path's allocation count: one echo round
// trip over a four-hop circuit — client seal, four forwards, the exit's
// reply, three backward relays — builds every cell in per-circuit or
// per-connection scratch. What is left is the saved hash state at the two
// ends that recognize a cell (one MarshalBinary each, the rollback copy of
// onion's verify); a 512-byte cell literal escaping through Link.Send on
// any of those nine steps would add one allocation per step and trip this.
func TestProbeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under -race, so cell.GetBuf's pooled data buffers allocate")
	}
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
	if _, err := ec.Probe(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := ec.Probe(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocations per probe", allocs)
	if allocs > 2 {
		t.Errorf("%.1f allocations per echo probe over 4 hops, want ≤ 2", allocs)
	}
}
