package client

import (
	"bytes"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ting/internal/cell"
	"ting/internal/directory"
	"ting/internal/echo"
	"ting/internal/link"
	"ting/internal/onion"
	"ting/internal/relay"
)

// Tests for the two Tor behaviours added on top of the basic stack:
// connection multiplexing between relay pairs and SENDME stream flow
// control.

func TestFlowControlLargeTransfer(t *testing.T) {
	// A transfer of several windows only completes if SENDMEs circulate in
	// both directions.
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

	payload := make([]byte, 3*cell.StreamWindow*cell.RelayDataLen+17)
	rand.New(rand.NewSource(1)).Read(payload)

	done := make(chan error, 1)
	go func() {
		_, err := st.Write(payload)
		done <- err
	}()
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(st, got); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("payload corrupted across flow-controlled transfer")
	}
}

// stallConn is an exit-side connection whose writes block until released.
type stallConn struct {
	release chan struct{}
	closed  chan struct{}
	once    sync.Once
}

func (s *stallConn) Read(p []byte) (int, error) {
	<-s.closed
	return 0, io.EOF
}

func (s *stallConn) Write(p []byte) (int, error) {
	select {
	case <-s.release:
		return len(p), nil
	case <-s.closed:
		return 0, io.ErrClosedPipe
	}
}

func (s *stallConn) Close() error {
	s.once.Do(func() { close(s.closed) })
	return nil
}

type stallDialer struct {
	mu    sync.Mutex
	conns []*stallConn
}

func (d *stallDialer) DialStream(target string) (io.ReadWriteCloser, error) {
	c := &stallConn{release: make(chan struct{}), closed: make(chan struct{})}
	d.mu.Lock()
	d.conns = append(d.conns, c)
	d.mu.Unlock()
	return c, nil
}

func (d *stallDialer) releaseAll() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, c := range d.conns {
		close(c.release)
	}
	d.conns = nil
}

func TestFlowControlWindowBlocksWriter(t *testing.T) {
	// When the destination stops consuming, the client's Write must stall
	// after at most one window of cells — the bound that keeps a stuck
	// stream from flooding the circuit.
	stall := &stallDialer{}
	tn := buildTestNet(t, 2, func(i int, cfg *relay.Config) {
		cfg.ExitDialer = stall
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

	// Two and a half windows against a stalled consumer.
	const cells = 5 * cell.StreamWindow / 2
	payload := make([]byte, cells*cell.RelayDataLen)
	done := make(chan int, 1)
	go func() {
		n, _ := st.Write(payload)
		done <- n
	}()
	select {
	case n := <-done:
		t.Fatalf("write of %d cells completed (%d bytes) despite stalled exit", cells, n)
	case <-time.After(300 * time.Millisecond):
		// blocked, as required
	}
	stall.releaseAll()
	select {
	case n := <-done:
		if n != len(payload) {
			t.Errorf("wrote %d of %d bytes after release", n, len(payload))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write did not resume after exit recovered")
	}
}

// firehose is an exit-side connection that produces data without pause and
// swallows whatever it is sent; reads counts the Reads it has answered,
// which is the number of DATA cells its exit has emitted or is about to.
type firehose struct {
	reads  atomic.Int64
	closed atomic.Bool
}

func (f *firehose) Read(p []byte) (int, error) {
	if f.closed.Load() {
		return 0, io.EOF
	}
	f.reads.Add(1)
	return len(p), nil
}
func (f *firehose) Write(p []byte) (int, error) { return len(p), nil }
func (f *firehose) Close() error                { f.closed.Store(true); return nil }

// hoseDialer serves "firehose" from hose and everything else like
// memExitDialer.
type hoseDialer struct{ hose *firehose }

func (d hoseDialer) DialStream(target string) (io.ReadWriteCloser, error) {
	if target == "firehose" {
		return d.hose, nil
	}
	return memExitDialer{}.DialStream(target)
}

func TestSlowReaderDoesNotWedgeCircuit(t *testing.T) {
	// An application that stops reading one stream must cost the circuit
	// nothing: the exit runs out of window and waits, the unread data sits
	// in that stream's queue, and the circuit's read loop stays free for
	// every other stream and for the circuit's own control cells.
	hose := &firehose{}
	tn := buildTestNet(t, 3, func(i int, cfg *relay.Config) {
		cfg.ExitDialer = hoseDialer{hose}
	})
	c := newTestClient(t, tn)
	circ, err := c.BuildCircuit(tn.descs)
	if err != nil {
		t.Fatal(err)
	}
	defer circ.Close()
	a, err := circ.OpenStreamAt(1, "firehose")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// Nobody reads a. Give the exit time to send all it may — and, were the
	// window not binding, to fill whatever stands between it and the reader.
	deadline := time.Now().Add(5 * time.Second)
	for hose.reads.Load() < cell.StreamWindow {
		if time.Now().After(deadline) {
			t.Fatalf("exit emitted %d cells in 5s, want a window of %d", hose.reads.Load(), cell.StreamWindow)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)

	b, err := circ.OpenStreamAt(1, "echo")
	if err != nil {
		t.Fatalf("second stream beside an unread one: %v", err)
	}
	defer b.Close()
	if _, err := echo.NewClient(b).Probe(); err != nil {
		t.Fatalf("probe beside an unread stream: %v", err)
	}
	if err := circ.Truncate(2); err != nil {
		t.Fatalf("truncate beside an unread stream: %v", err)
	}
	if err := circ.Extend(tn.descs[2]); err != nil {
		t.Fatalf("extend beside an unread stream: %v", err)
	}
	if _, err := echo.NewClient(b).Probe(); err != nil {
		t.Fatalf("probe after reshaping: %v", err)
	}
	if n := hose.reads.Load(); n != cell.StreamWindow {
		t.Errorf("exit emitted %d cells to a reader that took none, want exactly the window of %d", n, cell.StreamWindow)
	}

	// Reading is what reopens the window: two more windows arrive only if
	// the SENDMEs go out as Read consumes.
	if _, err := io.CopyN(io.Discard, a, 3*cell.StreamWindow*cell.RelayDataLen); err != nil {
		t.Fatalf("reading the stalled stream: %v", err)
	}
}

// windowBlindExit is a scripted last hop that builds circuits like an
// honest relay and then ignores flow control: BEGIN "flood" is answered
// with CONNECTED and flood DATA cells back to back, whatever the window
// says. Any other BEGIN opens a stream that echoes DATA cell for cell. The
// stream IDs of the ENDs it receives go to ends.
func windowBlindExit(t *testing.T, pn *link.PipeNet, addr string, flood int, ends chan<- cell.StreamID) *directory.Descriptor {
	t.Helper()
	id, err := onion.NewIdentity(rand.New(rand.NewSource(5050)))
	if err != nil {
		t.Fatal(err)
	}
	d := scriptedRelay(t, pn, addr, func(lk link.Link) {
		var hop *onion.HopState
		var circ cell.CircID
		send := func(rc cell.RelayCell) {
			out := cell.Cell{Circ: circ, Cmd: cell.Relay}
			if err := rc.MarshalPayloadInto(&out.Payload); err != nil {
				t.Error(err)
			}
			hop.SealBackward(&out.Payload)
			hop.CryptBackward(&out.Payload)
			_ = lk.Send(&out)
		}
		for {
			c, err := recvCell(lk)
			if err != nil {
				return
			}
			if c.Cmd == cell.Create {
				var reply []byte
				if reply, hop, err = onion.ServerHandshake(id, c.Payload[:onion.KeyLen], nil); err != nil {
					t.Error(err)
					return
				}
				circ = c.Circ
				created := cell.Cell{Circ: circ, Cmd: cell.Created}
				copy(created.Payload[:], reply)
				_ = lk.Send(&created)
				continue
			}
			if c.Cmd != cell.Relay || hop == nil {
				continue
			}
			hop.CryptForward(&c.Payload)
			if !hop.VerifyForward(&c.Payload) {
				continue
			}
			rc, err := cell.UnmarshalPayload(&c.Payload)
			if err != nil {
				t.Error(err)
				return
			}
			switch rc.Cmd {
			case cell.RelayBegin:
				send(cell.RelayCell{Cmd: cell.RelayConnected, Stream: rc.Stream})
				if string(rc.Data) == "flood" {
					for i := 0; i < flood; i++ {
						send(cell.RelayCell{Cmd: cell.RelayData, Stream: rc.Stream, Data: []byte{byte(i)}})
					}
				}
			case cell.RelayData:
				send(cell.RelayCell{Cmd: cell.RelayData, Stream: rc.Stream, Data: rc.Data})
			case cell.RelayEnd:
				ends <- rc.Stream
			}
		}
	})
	d.OnionKey = id.Public()
	return d
}

func TestWindowOverrunEndsStreamNotCircuit(t *testing.T) {
	// An exit that sends past the window has that stream ended — the
	// exit's own rule for a client that does the same — and nothing else
	// on the circuit notices.
	const flood = cell.StreamWindow + 100
	tn := buildTestNet(t, 1)
	ends := make(chan cell.StreamID, 4)
	evil := windowBlindExit(t, tn.pn, "evil", flood, ends)
	c := newTestClient(t, tn)
	circ, err := c.BuildCircuit([]*directory.Descriptor{tn.descs[0], evil})
	if err != nil {
		t.Fatal(err)
	}
	defer circ.Close()
	a, err := circ.OpenStream("flood")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-a.closedCh:
	case <-time.After(5 * time.Second):
		t.Fatal("stream still open 5s after the exit overran its window")
	}
	if got := a.reason; got != "flow control violation" {
		t.Errorf("stream ended with %q, want a flow control violation", got)
	}
	select {
	case sid := <-ends:
		if sid != cell.StreamID(a.id) {
			t.Errorf("exit was sent END for stream %d, want %d", sid, cell.StreamID(a.id))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("exit was never told the stream ended")
	}
	// What fitted the window is still there to read; the excess is not.
	got, err := io.ReadAll(a)
	if err != nil || len(got) != cell.StreamWindow {
		t.Errorf("read %d bytes (%v) from the ended stream, want the window's %d", len(got), err, cell.StreamWindow)
	}

	b, err := circ.OpenStream("echo")
	if err != nil {
		t.Fatalf("circuit unusable after one stream's overrun: %v", err)
	}
	defer b.Close()
	if _, err := echo.NewClient(b).Probe(); err != nil {
		t.Fatalf("probe after one stream's overrun: %v", err)
	}
}

func TestNewStreamAllocatesNoWindow(t *testing.T) {
	// A stream's flow-control state starts empty: what opening one
	// allocates at this end must not scale with the window. (A 500-slot
	// channel of chunks was 12 KiB; the bound is a word per window cell.)
	tn := buildTestNet(t, 2)
	c := newTestClient(t, tn)
	circ, err := c.BuildCircuit(tn.descs)
	if err != nil {
		t.Fatal(err)
	}
	defer circ.Close()
	const n = 200
	keep := make([]*Stream, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = newStream(circ, cell.StreamID(i+1), 1)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("%d B a stream", per)
	if per > cell.StreamWindow*8 {
		t.Errorf("newStream allocates %d B, want under %d", per, cell.StreamWindow*8)
	}
}

func TestOutConnMultiplexing(t *testing.T) {
	// Many circuits through the same relay pair must share one onward
	// connection at the entry relay.
	tn := buildTestNet(t, 2)
	c := newTestClient(t, tn)
	var circs []*Circuit
	for i := 0; i < 5; i++ {
		circ, err := c.BuildCircuit(tn.descs)
		if err != nil {
			t.Fatal(err)
		}
		circs = append(circs, circ)
	}
	defer func() {
		for _, circ := range circs {
			circ.Close()
		}
	}()
	if n := tn.relays[0].OutConnCount(); n != 1 {
		t.Errorf("entry relay has %d onward connections for 5 circuits, want 1", n)
	}
	// Every circuit still works.
	for i, circ := range circs {
		st, err := circ.OpenStream("echo")
		if err != nil {
			t.Fatalf("circuit %d: %v", i, err)
		}
		if _, err := echo.NewClient(st).Probe(); err != nil {
			t.Fatalf("circuit %d: %v", i, err)
		}
		st.Close()
	}
}

func TestOutConnSurvivesCircuitClose(t *testing.T) {
	// Destroying one circuit must not kill its siblings on the shared
	// connection.
	tn := buildTestNet(t, 2)
	c := newTestClient(t, tn)
	c1, err := c.BuildCircuit(tn.descs)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := c.BuildCircuit(tn.descs)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	c1.Close()
	time.Sleep(50 * time.Millisecond)

	st, err := c2.OpenStream("echo")
	if err != nil {
		t.Fatalf("sibling circuit broken after destroy: %v", err)
	}
	defer st.Close()
	if _, err := echo.NewClient(st).Probe(); err != nil {
		t.Fatal(err)
	}
	if n := tn.relays[0].OutConnCount(); n != 1 {
		t.Errorf("onward connection count = %d after sibling close, want 1", n)
	}
}

func TestOutConnThreeHopSharing(t *testing.T) {
	// A 3-hop network where both hops multiplex: r0→r1 and r1→r2.
	tn := buildTestNet(t, 3)
	c := newTestClient(t, tn)
	var circs []*Circuit
	for i := 0; i < 3; i++ {
		circ, err := c.BuildCircuit(tn.descs)
		if err != nil {
			t.Fatal(err)
		}
		circs = append(circs, circ)
		st, err := circ.OpenStream("echo")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := echo.NewClient(st).Probe(); err != nil {
			t.Fatal(err)
		}
		st.Close()
	}
	defer func() {
		for _, circ := range circs {
			circ.Close()
		}
	}()
	for i := 0; i < 2; i++ {
		if n := tn.relays[i].OutConnCount(); n != 1 {
			t.Errorf("relay %d has %d onward connections, want 1", i, n)
		}
	}
}

func TestConcurrentBuildsShareConn(t *testing.T) {
	// Racing circuit builds must not open duplicate onward connections.
	tn := buildTestNet(t, 2)
	c := newTestClient(t, tn)
	const n = 8
	errs := make(chan error, n)
	circs := make(chan *Circuit, n)
	for i := 0; i < n; i++ {
		go func() {
			circ, err := c.BuildCircuit(tn.descs)
			if err != nil {
				errs <- err
				return
			}
			circs <- circ
			errs <- nil
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	close(circs)
	for circ := range circs {
		defer circ.Close()
	}
	if got := tn.relays[0].OutConnCount(); got != 1 {
		t.Errorf("racing builds opened %d onward connections, want 1", got)
	}
}
