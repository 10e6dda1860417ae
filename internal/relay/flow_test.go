package relay

import (
	"io"
	"runtime"
	"testing"

	"ting/internal/cell"
	"ting/internal/link"
)

// The exit's end of stream flow control, driven cell by cell. The honest
// cases — large transfers, a writer held to the window — run through a real
// client in package client.

// deafConn is a destination that accepts nothing and says nothing: Write
// and Read block until Close.
type deafConn struct{ closed chan struct{} }

func (c deafConn) Read(p []byte) (int, error)  { <-c.closed; return 0, io.EOF }
func (c deafConn) Write(p []byte) (int, error) { <-c.closed; return 0, io.ErrClosedPipe }
func (c deafConn) Close() error {
	select {
	case <-c.closed:
	default:
		close(c.closed)
	}
	return nil
}

type deafDialer struct{}

func (deafDialer) DialStream(string) (io.ReadWriteCloser, error) {
	return deafConn{closed: make(chan struct{})}, nil
}

// exitCirc starts an exit relay whose every destination is deaf and builds
// a one-hop circuit to it by hand.
func exitCirc(t *testing.T, name string) (*Relay, *handCirc) {
	t.Helper()
	pn := link.NewPipeNet()
	cfg := validConfig(t, pn, name)
	cfg.ExitDialer = deafDialer{}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	t.Cleanup(func() { r.Close() })
	return r, dialCirc(t, pn, name, cfg.Identity.Public())
}

func (h *handCirc) begin(id cell.StreamID) {
	h.t.Helper()
	h.send(0, cell.RelayCell{Cmd: cell.RelayBegin, Stream: id, Data: []byte("anywhere")})
	if _, rc := h.recv(); rc.Cmd != cell.RelayConnected || rc.Stream != id {
		h.t.Fatalf("BEGIN %d answered %s on stream %d %q", id, rc.Cmd, rc.Stream, rc.Data)
	}
}

func TestWindowOverrunEndsStreamNotCircuit(t *testing.T) {
	// A client that keeps sending DATA without waiting for SENDMEs has that
	// stream ended; the circuit's read loop never waits on the destination,
	// so the circuit and its other streams carry on.
	_, h := exitCirc(t, "overrun")
	h.begin(1)
	// The stream's writer holds one cell, stuck in the deaf destination's
	// Write, and a window of them fits the queue behind it: the cell after
	// those is the violation.
	for i := 0; i < cell.StreamWindow+2; i++ {
		h.send(0, cell.RelayCell{Cmd: cell.RelayData, Stream: 1, Data: []byte{byte(i)}})
	}
	_, rc := h.recv()
	if rc.Cmd != cell.RelayEnd || rc.Stream != 1 || string(rc.Data) != "flow control violation" {
		t.Fatalf("overrun answered %s on stream %d %q, want END for a flow control violation", rc.Cmd, rc.Stream, rc.Data)
	}
	h.send(0, cell.RelayCell{Cmd: cell.RelayData, Stream: 1, Data: []byte("late")})
	if _, rc := h.recv(); rc.Cmd != cell.RelayEnd || string(rc.Data) != "no such stream" {
		t.Errorf("DATA after the END answered %s %q, want the stream gone", rc.Cmd, rc.Data)
	}
	h.begin(2)
}

func TestBeginAllocatesNoWindow(t *testing.T) {
	// What a BEGIN allocates at the exit must not scale with the window:
	// the flow-control queue starts empty. (A 500-slot channel of chunks
	// was 12 KiB a stream; the bound is a word per window cell.) The loop
	// reuses one cell so that the relay's allocations are what is counted.
	_, h := exitCirc(t, "cheap")
	const warm, n = 10, 100
	for id := cell.StreamID(1); id <= warm; id++ {
		h.begin(id) // the links' rings, the buffer pool, parked goroutines
	}
	var c cell.Cell
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		rc := cell.RelayCell{Cmd: cell.RelayBegin, Stream: cell.StreamID(warm + 1 + i), Data: []byte("anywhere")}
		c.Circ, c.Cmd = h.id, cell.Relay
		if err := rc.MarshalPayloadInto(&c.Payload); err != nil {
			t.Fatal(err)
		}
		if err := h.cc.EncryptForward(0, &c.Payload); err != nil {
			t.Fatal(err)
		}
		if err := h.lk.Send(&c); err != nil {
			t.Fatal(err)
		}
		if err := h.lk.Recv(&c); err != nil {
			t.Fatal(err)
		}
		if _, err := h.cc.DecryptBackward(&c.Payload); err != nil || cell.RelayCommand(c.Payload[0]) != cell.RelayConnected {
			t.Fatalf("BEGIN %d answered %d (%v), want CONNECTED", i, c.Payload[0], err)
		}
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("%d B a stream", per)
	if per > cell.StreamWindow*8 {
		t.Errorf("a BEGIN allocates %d B, want under %d", per, cell.StreamWindow*8)
	}
}
