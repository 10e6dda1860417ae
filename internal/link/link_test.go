package link

import (
	"bytes"
	"errors"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ting/internal/cell"
)

func testCell(circ uint32, tag byte) cell.Cell {
	c := cell.Cell{Circ: cell.CircID(circ), Cmd: cell.Relay}
	c.Payload[0] = tag
	return c
}

func TestPipeRoundTrip(t *testing.T) {
	a, b := Pipe(4, "a", "b")
	defer a.Close()
	defer b.Close()

	if a.RemoteAddr() != "b" || b.RemoteAddr() != "a" {
		t.Errorf("RemoteAddrs: %q, %q", a.RemoteAddr(), b.RemoteAddr())
	}
	want := testCell(7, 0x42)
	if err := sendCell(a, want); err != nil {
		t.Fatal(err)
	}
	got, err := recvCell(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Error("cell mismatch over pipe")
	}
	// And the other direction.
	if err := sendCell(b, testCell(8, 1)); err != nil {
		t.Fatal(err)
	}
	if got, err := recvCell(a); err != nil || got.Circ != 8 {
		t.Errorf("reverse direction: %v, %v", got, err)
	}
}

func TestPipeOrdering(t *testing.T) {
	a, b := Pipe(100, "a", "b")
	defer a.Close()
	defer b.Close()
	for i := 0; i < 100; i++ {
		if err := sendCell(a, testCell(uint32(i), byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		got, err := recvCell(b)
		if err != nil {
			t.Fatal(err)
		}
		if got.Circ != cell.CircID(i) {
			t.Fatalf("out of order: got %d at position %d", got.Circ, i)
		}
	}
}

func TestPipeCloseUnblocksRecv(t *testing.T) {
	a, b := Pipe(1, "a", "b")
	done := make(chan error, 1)
	go func() {
		_, err := recvCell(b)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	a.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("Recv after peer close should error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on peer close")
	}
	if err := sendCell(a, testCell(1, 1)); !errors.Is(err, ErrClosed) {
		t.Errorf("Send on closed link = %v, want ErrClosed", err)
	}
}

func TestPipeDrainsBufferAfterPeerClose(t *testing.T) {
	a, b := Pipe(4, "a", "b")
	if err := sendCell(a, testCell(5, 5)); err != nil {
		t.Fatal(err)
	}
	a.Close()
	got, err := recvCell(b)
	if err != nil {
		t.Fatalf("buffered cell lost on close: %v", err)
	}
	if got.Circ != 5 {
		t.Errorf("got circ %d", got.Circ)
	}
	if _, err := recvCell(b); err == nil {
		t.Error("second Recv should fail after drain")
	}
}

// TestTCPDrainsBufferAfterPeerClose: what the peer sent before closing is
// received before the close is reported, over a socket as over the pipe.
func TestTCPDrainsBufferAfterPeerClose(t *testing.T) {
	client, server := tcpPair(t)
	for i := uint32(1); i <= 2; i++ {
		if err := sendCell(client, testCell(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	client.Close()
	for want := cell.CircID(1); want <= 2; want++ {
		got, err := recvCell(server)
		if err != nil {
			t.Fatalf("cell %d lost to the peer's close: %v", want, err)
		}
		if got.Circ != want {
			t.Errorf("got circ %d, want %d", got.Circ, want)
		}
	}
	if _, err := recvCell(server); err == nil {
		t.Error("Recv after drain should report the close")
	}
}

func TestTCPLinkRoundTrip(t *testing.T) {
	ln, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var serverLink Link
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		serverLink, _ = ln.Accept()
	}()

	clientLink, err := TCPDialer{}.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if serverLink == nil {
		t.Fatal("accept failed")
	}
	defer clientLink.Close()
	defer serverLink.Close()

	want := testCell(99, 0xAB)
	if err := sendCell(clientLink, want); err != nil {
		t.Fatal(err)
	}
	got, err := recvCell(serverLink)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Error("cell mismatch over TCP")
	}
	// Reverse direction.
	if err := sendCell(serverLink, testCell(100, 1)); err != nil {
		t.Fatal(err)
	}
	if got, err := recvCell(clientLink); err != nil || got.Circ != 100 {
		t.Errorf("reverse: %v %v", got, err)
	}
}

func TestTCPDialError(t *testing.T) {
	if _, err := (TCPDialer{}).Dial("127.0.0.1:1"); err == nil {
		t.Error("dial to closed port should fail")
	}
}

func TestDelayedLinkInjectsLatency(t *testing.T) {
	a, b := Pipe(16, "a", "b")
	const oneWay = 30 * time.Millisecond
	da := Delayed(a, oneWay, oneWay)
	defer da.Close()
	defer b.Close()

	// Echo server on the raw side.
	go func() {
		for {
			c, err := recvCell(b)
			if err != nil {
				return
			}
			if err := sendCell(b, c); err != nil {
				return
			}
		}
	}()

	start := time.Now()
	if err := sendCell(da, testCell(1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := recvCell(da); err != nil {
		t.Fatal(err)
	}
	rtt := time.Since(start)
	if rtt < 2*oneWay {
		t.Errorf("RTT %v below injected 2×%v", rtt, oneWay)
	}
	if rtt > 2*oneWay+150*time.Millisecond {
		t.Errorf("RTT %v far above injected latency", rtt)
	}
}

func TestDelayedLinkPreservesOrder(t *testing.T) {
	a, b := Pipe(64, "a", "b")
	da := Delayed(a, 5*time.Millisecond, 0)
	defer da.Close()
	defer b.Close()
	for i := 0; i < 20; i++ {
		if err := sendCell(da, testCell(uint32(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		got, err := recvCell(b)
		if err != nil {
			t.Fatal(err)
		}
		if got.Circ != cell.CircID(i) {
			t.Fatalf("reordered: got %d at %d", got.Circ, i)
		}
	}
}

func TestDelayedLinkClose(t *testing.T) {
	a, b := Pipe(4, "a", "b")
	da := Delayed(a, time.Millisecond, time.Millisecond)
	done := make(chan error, 1)
	go func() {
		_, err := recvCell(da)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	da.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("Recv on closed delayed link should error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock")
	}
	if err := sendCell(da, testCell(0, 0)); !errors.Is(err, ErrClosed) {
		t.Errorf("Send after close = %v", err)
	}
	b.Close()
}

func TestDelayedPropagatesPeerClose(t *testing.T) {
	a, b := Pipe(4, "a", "b")
	da := Delayed(a, 0, 0)
	defer da.Close()
	b.Close()
	if _, err := recvCell(da); err == nil {
		t.Error("Recv should fail once peer closes")
	}
}

func TestPipeNetDialAndListen(t *testing.T) {
	n := NewPipeNet()
	ln, err := n.Listen("relay1")
	if err != nil {
		t.Fatal(err)
	}
	if ln.Addr() != "relay1" {
		t.Errorf("Addr = %q", ln.Addr())
	}
	go func() {
		l, err := ln.Accept()
		if err != nil {
			return
		}
		c, err := recvCell(l)
		if err != nil {
			return
		}
		_ = sendCell(l, c)
	}()
	lk, err := n.Dial("relay1")
	if err != nil {
		t.Fatal(err)
	}
	defer lk.Close()
	if err := sendCell(lk, testCell(3, 3)); err != nil {
		t.Fatal(err)
	}
	got, err := recvCell(lk)
	if err != nil || got.Circ != 3 {
		t.Errorf("echo through pipenet: %v %v", got, err)
	}
}

func TestPipeNetErrors(t *testing.T) {
	n := NewPipeNet()
	if _, err := n.Dial("ghost"); err == nil {
		t.Error("dial to unknown address should fail")
	}
	if _, err := n.Listen("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("x"); err == nil {
		t.Error("duplicate listen should fail")
	}
}

func TestPipeNetListenerClose(t *testing.T) {
	n := NewPipeNet()
	ln, err := n.Listen("r")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := ln.Accept()
		done <- err
	}()
	ln.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("Accept on closed listener should fail")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Accept did not unblock")
	}
	if _, err := n.Dial("r"); err == nil {
		t.Error("dial after listener close should fail")
	}
	// Address is reusable after close.
	if _, err := n.Listen("r"); err != nil {
		t.Errorf("re-listen after close: %v", err)
	}
}

func TestConcurrentSendRecv(t *testing.T) {
	a, b := Pipe(8, "a", "b")
	defer a.Close()
	defer b.Close()
	const n = 500
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := sendCell(a, testCell(uint32(i), 0)); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			got, err := recvCell(b)
			if err != nil {
				t.Errorf("recv %d: %v", i, err)
				return
			}
			if got.Circ != cell.CircID(i) {
				t.Errorf("order broken at %d", i)
				return
			}
		}
	}()
	wg.Wait()
}

// linkShapes is every shape of Link a relay can hold, each as a sending and
// a receiving end: a delayed in-process pipe and a delayed TCP link (what
// the overlay dials), a bare pipe small enough that senders meet
// back-pressure, and a bare TCP link.
func linkShapes(t *testing.T, oneWay time.Duration) map[string][2]Link {
	t.Helper()
	shapes := map[string][2]Link{}
	for name, pair := range delayedPairs(t, oneWay) {
		shapes["delayed "+name] = pair
	}
	pa, pb := Pipe(8, "a", "b")
	shapes["pipe"] = [2]Link{pa, pb}
	ta, tb := tcpPair(t)
	shapes["tcp"] = [2]Link{ta, tb}
	return shapes
}

// TestCloseDeliversSent pins Link.Close on every shape: Close returns at
// once, Send and a blocked Recv at the closed end fail, and the peer still
// receives every cell sent before the close, in order and each one delay
// after it was sent on a delayed shape, and only then sees the link
// closed.
func TestCloseDeliversSent(t *testing.T) {
	const (
		sent   = 5
		oneWay = 50 * time.Millisecond
	)
	for name, pair := range linkShapes(t, oneWay) {
		send, recv := pair[0], pair[1]
		t.Run(name, func(t *testing.T) {
			watchdog := time.AfterFunc(10*time.Second, func() { recv.Close() })
			defer watchdog.Stop()
			blocked := make(chan error, 1)
			go func() {
				var c cell.Cell
				blocked <- send.Recv(&c)
			}()
			start := time.Now()
			for i := 1; i <= sent; i++ {
				if err := sendCell(send, testCell(uint32(i), byte(i))); err != nil {
					t.Fatal(err)
				}
			}
			send.Close()
			if took := time.Since(start); took >= oneWay {
				t.Errorf("sending and closing took %v: Close waited for the queue to drain", took)
			}
			if err := sendCell(send, testCell(99, 0)); err == nil {
				t.Error("Send after Close succeeded")
			}
			select {
			case err := <-blocked:
				if err == nil {
					t.Error("a Recv blocked at the closed end returned a cell")
				}
			case <-time.After(2 * time.Second):
				t.Fatal("a Recv blocked at the closed end did not fail on Close")
			}
			for i := 1; i <= sent; i++ {
				got, err := recvCell(recv)
				if err != nil {
					t.Fatalf("cell %d of %d lost to the close: %v", i, sent, err)
				}
				if got.Circ != cell.CircID(i) || got.Payload[0] != byte(i) {
					t.Fatalf("cell %d arrived as circ %d payload %d", i, got.Circ, got.Payload[0])
				}
				if took := time.Since(start); i == 1 && strings.HasPrefix(name, "delayed") && took < oneWay {
					t.Errorf("first cell arrived %v after it was sent, under the one-way delay %v", took, oneWay)
				}
			}
			if _, err := recvCell(recv); err == nil {
				t.Error("Recv after the sent cells drained did not report the close")
			}
		})
	}
}

// TestConcurrentSenders pins the Link contract on every shape a relay can
// hold: any number of goroutines Send at once, and the one receiver gets
// every cell exactly once, whole, each sender's cells in the order it sent
// them. On TCP it is also the check that the last-writer-flushes scheme
// leaves no cell sitting in the write buffer: a missed flush stalls the
// receiver until the watchdog fails the test.
func TestConcurrentSenders(t *testing.T) {
	const (
		senders = 8
		perSend = 200
		oneWay  = 2 * time.Millisecond
	)
	shapes := linkShapes(t, oneWay)
	// A cell carries its sender in Circ, its sequence number in the first
	// two payload bytes, and a fill byte derived from both everywhere else,
	// so a cell stitched together from two Sends cannot pass for either.
	fill := func(s, seq int) byte { return byte(s*perSend + seq) }
	for name, pair := range shapes {
		send, recv := pair[0], pair[1]
		t.Run(name, func(t *testing.T) {
			watchdog := time.AfterFunc(20*time.Second, func() { recv.Close() })
			var wg sync.WaitGroup
			defer func() {
				watchdog.Stop()
				recv.Close() // a sender blocked on a full link gives up
				send.Close()
				wg.Wait()
			}()
			for s := 0; s < senders; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					c := cell.Cell{Circ: cell.CircID(s), Cmd: cell.Relay}
					for seq := 0; seq < perSend; seq++ {
						for i := range c.Payload {
							c.Payload[i] = fill(s, seq)
						}
						c.Payload[0], c.Payload[1] = byte(seq>>8), byte(seq)
						if err := send.Send(&c); err != nil {
							t.Errorf("sender %d cell %d: %v", s, seq, err)
							recv.Close()
							return
						}
					}
				}(s)
			}

			var next [senders]int
			var c cell.Cell
			for got := 0; got < senders*perSend; got++ {
				if err := recv.Recv(&c); err != nil {
					t.Fatalf("Recv after %d of %d cells: %v", got, senders*perSend, err)
				}
				s, seq := int(c.Circ), int(c.Payload[0])<<8|int(c.Payload[1])
				if s >= senders || c.Cmd != cell.Relay {
					t.Fatalf("cell %d: circ %d cmd %s sent by nobody", got, c.Circ, c.Cmd)
				}
				if seq != next[s] {
					t.Fatalf("sender %d: got cell %d, want %d (lost, duplicated or reordered)", s, seq, next[s])
				}
				next[s]++
				for i := 2; i < len(c.Payload); i++ {
					if c.Payload[i] != fill(s, seq) {
						t.Fatalf("sender %d cell %d torn at payload byte %d", s, seq, i)
					}
				}
			}
		})
	}
}

func TestDialerFunc(t *testing.T) {
	pn := NewPipeNet()
	ln, err := pn.Listen("relay")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var dialed []string
	var d Dialer = DialerFunc(func(addr string) (Link, error) {
		dialed = append(dialed, addr)
		return pn.Dial(addr)
	})
	lk, err := d.Dial("relay")
	if err != nil {
		t.Fatal(err)
	}
	lk.Close()
	if _, err := d.Dial("ghost"); err == nil {
		t.Error("dial to unknown relay succeeded")
	}
	if len(dialed) != 2 || dialed[0] != "relay" || dialed[1] != "ghost" {
		t.Errorf("adapter not transparent: %v", dialed)
	}
}

// TestDelayedTCPClosesUnderTraffic: two delayed TCP ends that close while
// each has more queued for the other than the sockets hold still shut
// down. Each end reads, and drops, what arrives after its Close, so both
// send queues drain and both pumps exit; an end that stopped reading at
// Close would leave the two pumps blocked on each other's full socket.
func TestDelayedTCPClosesUnderTraffic(t *testing.T) {
	pumps := func() int {
		var buf bytes.Buffer
		if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
			t.Fatal(err)
		}
		return strings.Count(buf.String(), "(*delayedLink).sendPump") + strings.Count(buf.String(), "(*delayedLink).recvPump")
	}
	before := pumps()
	ta, tb := tcpPair(t)
	ends := [2]Link{Delayed(ta, 0, 0), Delayed(tb, 0, 0)}
	// Far more than a loopback socket pair buffers: every Send blocks in
	// the end, with nothing reading on either side but the pumps.
	const cells = 40000
	var sent [2]atomic.Int64
	for i, lk := range ends {
		go func() {
			c := cell.Cell{Cmd: cell.Relay}
			for n := 0; n < cells && lk.Send(&c) == nil; n++ {
				sent[i].Add(1)
			}
		}()
	}
	// Close once both senders have stopped making progress.
	for last := [2]int64{-1, -1}; ; time.Sleep(50 * time.Millisecond) {
		now := [2]int64{sent[0].Load(), sent[1].Load()}
		if now == last {
			break
		}
		last = now
	}
	ends[0].Close()
	ends[1].Close()
	deadline := time.Now().Add(10 * time.Second)
	for pumps() > before {
		if time.Now().After(deadline) {
			t.Fatalf("pumps still running 10s after both ends closed (%d and %d cells sent)", sent[0].Load(), sent[1].Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
