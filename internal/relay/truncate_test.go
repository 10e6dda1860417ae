package relay

import (
	"testing"
	"time"

	"ting/internal/cell"
	"ting/internal/link"
	"ting/internal/onion"
	"ting/internal/telemetry"
)

// RELAY_TRUNCATE at the relay: the onward slot is freed before TRUNCATED
// goes out, the dropped tail is DESTROYed, and stale cells for the freed
// slot are ignored. The tests drive relays with a hand-rolled client so
// every cell on the wire is visible.

// handCirc is a client-side circuit driven cell by cell.
type handCirc struct {
	t  *testing.T
	lk link.Link
	id cell.CircID
	cc onion.CircuitCrypto
	n  int // hops in cc
}

// dialCirc dials the entry relay and completes the CREATE handshake.
func dialCirc(t *testing.T, pn *link.PipeNet, entry string, pub onion.PublicKey) *handCirc {
	t.Helper()
	lk, err := pn.Dial(entry)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lk.Close() })
	h := &handCirc{t: t, lk: lk, id: 41}
	hs, err := onion.StartHandshake(pub, nil)
	if err != nil {
		t.Fatal(err)
	}
	create := cell.Cell{Circ: h.id, Cmd: cell.Create}
	copy(create.Payload[:], hs.Onionskin())
	if err := sendCell(lk, create); err != nil {
		t.Fatal(err)
	}
	got := h.recvCell()
	if got.Cmd != cell.Created {
		t.Fatalf("got %s, want CREATED", got.Cmd)
	}
	hop, err := hs.Complete(got.Payload[:onion.ReplyLen])
	if err != nil {
		t.Fatal(err)
	}
	h.cc.AddHop(hop)
	h.n = 1
	return h
}

// recvCell reads the next cell from the entry link, failing the test
// rather than hanging if the relay stays silent.
func (h *handCirc) recvCell() cell.Cell {
	h.t.Helper()
	type result struct {
		c   cell.Cell
		err error
	}
	ch := make(chan result, 1)
	go func() {
		c, err := recvCell(h.lk)
		ch <- result{c, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			h.t.Fatalf("recv: %v", r.err)
		}
		return r.c
	case <-time.After(5 * time.Second):
		h.t.Fatal("relay sent nothing for 5s")
		return cell.Cell{}
	}
}

// send seals rc for the given hop and puts it on the wire.
func (h *handCirc) send(hop int, rc cell.RelayCell) {
	h.t.Helper()
	p, err := rc.MarshalPayload()
	if err != nil {
		h.t.Fatal(err)
	}
	if err := h.cc.EncryptForward(hop, &p); err != nil {
		h.t.Fatal(err)
	}
	if err := sendCell(h.lk, cell.Cell{Circ: h.id, Cmd: cell.Relay, Payload: p}); err != nil {
		h.t.Fatal(err)
	}
}

// recv reads the next backward relay cell and reports which hop sent it.
func (h *handCirc) recv() (int, cell.RelayCell) {
	h.t.Helper()
	c := h.recvCell()
	if c.Cmd != cell.Relay {
		h.t.Fatalf("got %s, want RELAY", c.Cmd)
	}
	hop, err := h.cc.DecryptBackward(&c.Payload)
	if err != nil {
		h.t.Fatal(err)
	}
	rc, err := cell.UnmarshalPayload(&c.Payload)
	if err != nil {
		h.t.Fatal(err)
	}
	return hop, rc
}

// extend grows the circuit by one hop through its current last hop.
func (h *handCirc) extend(addr string, pub onion.PublicKey) {
	h.t.Helper()
	hs, err := onion.StartHandshake(pub, nil)
	if err != nil {
		h.t.Fatal(err)
	}
	body, err := cell.EncodeExtend(addr, hs.Onionskin())
	if err != nil {
		h.t.Fatal(err)
	}
	last := h.n - 1
	h.send(last, cell.RelayCell{Cmd: cell.RelayExtend, Data: body})
	hop, rc := h.recv()
	if hop != last || rc.Cmd != cell.RelayExtended {
		h.t.Fatalf("extend to %s: hop %d answered %s %q", addr, hop, rc.Cmd, rc.Data)
	}
	next, err := hs.Complete(rc.Data)
	if err != nil {
		h.t.Fatal(err)
	}
	h.cc.AddHop(next)
	h.n++
}

// truncate cuts the circuit back to n hops and checks hop n-1 says so.
func (h *handCirc) truncate(n int) {
	h.t.Helper()
	h.send(n-1, cell.RelayCell{Cmd: cell.RelayTruncate})
	hop, rc := h.recv()
	if hop != n-1 || rc.Cmd != cell.RelayTruncated {
		h.t.Fatalf("truncate to %d: hop %d answered %s", n, hop, rc.Cmd)
	}
	if err := h.cc.Truncate(n); err != nil {
		h.t.Fatal(err)
	}
	h.n = n
}

// circuitCount is how many circuits the relay holds on its inbound links.
func circuitCount(r *Relay) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for cs := range r.conns {
		cs.mu.Lock()
		n += len(cs.circuits)
		cs.mu.Unlock()
	}
	return n
}

// onwardSlots is how many circuit IDs the relay holds on onward links.
func onwardSlots(r *Relay) int {
	r.outMu.Lock()
	defer r.outMu.Unlock()
	n := 0
	for _, s := range r.outSlots {
		if s.oc != nil {
			s.oc.mu.Lock()
			n += len(s.oc.circuits)
			s.oc.mu.Unlock()
		}
	}
	return n
}

// eventually polls cond; DESTROY propagation is asynchronous.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTruncateMiddleHopPropagatesDestroy(t *testing.T) {
	pn := link.NewPipeNet()
	reg := telemetry.New()
	cfg := validConfig(t, pn, "t0")
	cfg.Telemetry = reg
	r0, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r0.Start()
	t.Cleanup(func() { r0.Close() })
	r1, id1 := startRelay(t, pn, "t1")
	r2, id2 := startRelay(t, pn, "t2")

	h := dialCirc(t, pn, "t0", cfg.Identity.Public())
	h.extend("t1", id1.Public())
	h.extend("t2", id2.Public())
	if circuitCount(r1) != 1 || circuitCount(r2) != 1 {
		t.Fatalf("downstream circuits = %d, %d before truncate", circuitCount(r1), circuitCount(r2))
	}

	h.truncate(1)
	if got := onwardSlots(r0); got != 0 {
		t.Errorf("entry still holds %d onward slots after TRUNCATED", got)
	}
	eventually(t, "the dropped hops' circuit tables empty", func() bool {
		return circuitCount(r1) == 0 && circuitCount(r2) == 0 && onwardSlots(r1) == 0
	})
	if circuitCount(r0) != 1 {
		t.Errorf("entry holds %d circuits, want the truncated one", circuitCount(r0))
	}
	if got := reg.Counter("relay.truncates").Value(); got != 1 {
		t.Errorf("relay.truncates = %d, want 1", got)
	}

	// The kept hop is the last hop again: it extends along a new path and
	// the new tail carries cells both ways.
	h.extend("t2", id2.Public())
	h.send(1, cell.RelayCell{Cmd: cell.RelayBegin, Stream: 1, Data: []byte("echo")})
	if hop, rc := h.recv(); hop != 1 || rc.Cmd != cell.RelayEnd {
		t.Errorf("hop %d answered %s over the re-extended circuit, want END from hop 1 (not an exit)", hop, rc.Cmd)
	}
}

func TestTruncateWhileAwaitingCreated(t *testing.T) {
	pn := link.NewPipeNet()
	// A neighbour that accepts CREATEs and never answers them.
	muteLn, err := pn.Listen("mute")
	if err != nil {
		t.Fatal(err)
	}
	defer muteLn.Close()
	fromR0 := make(chan cell.Cell, 4)
	muteLink := make(chan link.Link, 1)
	go func() {
		lk, err := muteLn.Accept()
		if err != nil {
			return
		}
		muteLink <- lk
		for {
			c, err := recvCell(lk)
			if err != nil {
				return
			}
			fromR0 <- c
		}
	}()

	cfg := validConfig(t, pn, "waiter")
	r0, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r0.Start()
	t.Cleanup(func() { r0.Close() })

	h := dialCirc(t, pn, "waiter", cfg.Identity.Public())
	hs, err := onion.StartHandshake(testIdentity(t).Public(), nil)
	if err != nil {
		t.Fatal(err)
	}
	body, err := cell.EncodeExtend("mute", hs.Onionskin())
	if err != nil {
		t.Fatal(err)
	}
	h.send(0, cell.RelayCell{Cmd: cell.RelayExtend, Data: body})
	create := <-fromR0
	if create.Cmd != cell.Create {
		t.Fatalf("neighbour got %s, want CREATE", create.Cmd)
	}

	h.truncate(1)
	var circ *circuit
	r0.mu.Lock()
	for cs := range r0.conns {
		circ = cs.lookup(h.id)
	}
	r0.mu.Unlock()
	circ.mu.Lock()
	pending, timer := circ.awaitingCreated, circ.extendTimer
	circ.mu.Unlock()
	if pending || timer != nil {
		t.Errorf("after TRUNCATED: awaitingCreated=%v, extend timer armed=%v", pending, timer != nil)
	}
	if destroy := <-fromR0; destroy.Cmd != cell.Destroy || destroy.Circ != create.Circ {
		t.Errorf("neighbour got %s on circ %d, want DESTROY on %d", destroy.Cmd, destroy.Circ, create.Circ)
	}

	// The neighbour wakes up late. Its CREATED is for a freed slot and must
	// not become an EXTENDED, nor the RELAY cell behind it a backward cell.
	// It then hangs up: the relay dropping the onward connection (same
	// link, in order) proves both cells were consumed first.
	lk := <-muteLink
	if err := sendCell(lk, cell.Cell{Circ: create.Circ, Cmd: cell.Created}); err != nil {
		t.Fatal(err)
	}
	if err := sendCell(lk, cell.Cell{Circ: create.Circ, Cmd: cell.Relay}); err != nil {
		t.Fatal(err)
	}
	lk.Close()
	for deadline := time.Now().Add(5 * time.Second); r0.OutConnCount() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("relay never noticed the neighbour hanging up")
		}
	}
	// Nothing reached the client in the meantime: the next cell it sees is
	// the answer to a fresh TRUNCATE.
	h.truncate(1)
}

func TestTruncateAtLastHopIsIdempotent(t *testing.T) {
	pn := link.NewPipeNet()
	r, id := startRelay(t, pn, "lonely")
	h := dialCirc(t, pn, "lonely", id.Public())
	for i := 0; i < 3; i++ {
		h.truncate(1)
	}
	if circuits, _, streams := r.Stats(); circuits != 1 || streams != 0 {
		t.Errorf("stats after repeated TRUNCATEs: %d circuits, %d streams", circuits, streams)
	}
	if circuitCount(r) != 1 || onwardSlots(r) != 0 {
		t.Errorf("tables after repeated TRUNCATEs: %d circuits, %d onward slots", circuitCount(r), onwardSlots(r))
	}
	// The circuit is still alive: a BEGIN at this non-exit is refused with
	// END, not DESTROY.
	h.send(0, cell.RelayCell{Cmd: cell.RelayBegin, Stream: 1, Data: []byte("echo")})
	if _, rc := h.recv(); rc.Cmd != cell.RelayEnd {
		t.Errorf("got %s after TRUNCATEs, want END", rc.Cmd)
	}
}
