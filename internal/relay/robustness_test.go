package relay

import (
	"math/rand"
	"testing"
	"time"

	"ting/internal/cell"
	"ting/internal/link"
	"ting/internal/onion"
)

// Robustness against malformed and hostile traffic: a relay on a public
// network must survive garbage, not just well-formed clients.

// establishedCircuit sets up a relay with one established circuit and
// returns the client-side link and hop state.
func establishedCircuit(t *testing.T, pn *link.PipeNet, name string) (link.Link, *onion.HopState, cell.CircID) {
	t.Helper()
	_, id := startRelay(t, pn, name)
	lk, err := pn.Dial(name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lk.Close() })
	hs, err := onion.StartHandshake(id.Public(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var create cell.Cell
	create.Circ = 77
	create.Cmd = cell.Create
	copy(create.Payload[:], hs.Onionskin())
	if err := sendCell(lk, create); err != nil {
		t.Fatal(err)
	}
	got, err := recvCell(lk)
	if err != nil || got.Cmd != cell.Created {
		t.Fatalf("no CREATED: %v %v", got.Cmd, err)
	}
	hop, err := hs.Complete(got.Payload[:onion.ReplyLen])
	if err != nil {
		t.Fatal(err)
	}
	return lk, hop, 77
}

func TestRelaySurvivesGarbageRelayCells(t *testing.T) {
	pn := link.NewPipeNet()
	lk, hop, circ := establishedCircuit(t, pn, "garbage-relay")

	// Random payloads that decrypt to junk: the relay has no next hop, so
	// unrecognized cells destroy the circuit — but must not crash or hang
	// the relay.
	rng := rand.New(rand.NewSource(1))
	var c cell.Cell
	c.Circ = circ
	c.Cmd = cell.Relay
	for i := range c.Payload {
		c.Payload[i] = byte(rng.Intn(256))
	}
	if err := sendCell(lk, c); err != nil {
		t.Fatal(err)
	}
	// The relay answers with DESTROY (junk at the end of a circuit).
	got, err := recvCell(lk)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmd != cell.Destroy {
		t.Errorf("got %s, want DESTROY for junk cell", got.Cmd)
	}
	_ = hop
}

func TestRelaySurvivesRecognizedGarbageCommand(t *testing.T) {
	pn := link.NewPipeNet()
	lk, hop, circ := establishedCircuit(t, pn, "badcmd-relay")

	// A correctly sealed cell whose relay command is invalid: the relay
	// must reject it and tear down cleanly.
	var p [cell.PayloadLen]byte
	p[0] = 250 // unknown relay command, recognized=0
	hop.SealForward(&p)
	hop.CryptForward(&p)
	if err := sendCell(lk, cell.Cell{Circ: circ, Cmd: cell.Relay, Payload: p}); err != nil {
		t.Fatal(err)
	}
	got, err := recvCell(lk)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmd != cell.Destroy {
		t.Errorf("got %s, want DESTROY for invalid relay command", got.Cmd)
	}
}

func TestRelayIgnoresDropCells(t *testing.T) {
	pn := link.NewPipeNet()
	lk, hop, circ := establishedCircuit(t, pn, "drop-relay")

	// RELAY_DROP is long-range padding: consumed silently.
	rc := cell.RelayCell{Cmd: cell.RelayDrop}
	p, err := rc.MarshalPayload()
	if err != nil {
		t.Fatal(err)
	}
	hop.SealForward(&p)
	hop.CryptForward(&p)
	if err := sendCell(lk, cell.Cell{Circ: circ, Cmd: cell.Relay, Payload: p}); err != nil {
		t.Fatal(err)
	}
	// The circuit stays alive: a subsequent sealed BEGIN to a non-exit is
	// answered with END, not DESTROY.
	rc2 := cell.RelayCell{Cmd: cell.RelayBegin, Stream: 1, Data: []byte("echo")}
	p2, err := rc2.MarshalPayload()
	if err != nil {
		t.Fatal(err)
	}
	hop.SealForward(&p2)
	hop.CryptForward(&p2)
	if err := sendCell(lk, cell.Cell{Circ: circ, Cmd: cell.Relay, Payload: p2}); err != nil {
		t.Fatal(err)
	}
	got, err := recvCell(lk)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmd != cell.Relay {
		t.Fatalf("got %s, want RELAY(END)", got.Cmd)
	}
	hop.CryptBackward(&got.Payload)
	if !hop.VerifyBackward(&got.Payload) {
		t.Fatal("reply not recognized")
	}
	reply, err := cell.UnmarshalPayload(&got.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Cmd != cell.RelayEnd {
		t.Errorf("reply %s, want END (non-exit refusing BEGIN)", reply.Cmd)
	}
}

func TestRelaySurvivesExtendGarbage(t *testing.T) {
	pn := link.NewPipeNet()
	lk, hop, circ := establishedCircuit(t, pn, "extend-garbage")

	// EXTEND with an unparseable body → END on stream 0, circuit alive.
	rc := cell.RelayCell{Cmd: cell.RelayExtend, Data: []byte{0xFF}}
	p, err := rc.MarshalPayload()
	if err != nil {
		t.Fatal(err)
	}
	hop.SealForward(&p)
	hop.CryptForward(&p)
	if err := sendCell(lk, cell.Cell{Circ: circ, Cmd: cell.Relay, Payload: p}); err != nil {
		t.Fatal(err)
	}
	got, err := recvCell(lk)
	if err != nil {
		t.Fatal(err)
	}
	hop.CryptBackward(&got.Payload)
	if !hop.VerifyBackward(&got.Payload) {
		t.Fatal("reply unrecognized")
	}
	reply, err := cell.UnmarshalPayload(&got.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Cmd != cell.RelayEnd || reply.Stream != 0 {
		t.Errorf("reply %s stream %d, want END on stream 0", reply.Cmd, reply.Stream)
	}
}

func TestRelayDataOnUnknownStream(t *testing.T) {
	pn := link.NewPipeNet()
	lk, hop, circ := establishedCircuit(t, pn, "nostream")

	rc := cell.RelayCell{Cmd: cell.RelayData, Stream: 42, Data: []byte("orphan")}
	p, err := rc.MarshalPayload()
	if err != nil {
		t.Fatal(err)
	}
	hop.SealForward(&p)
	hop.CryptForward(&p)
	if err := sendCell(lk, cell.Cell{Circ: circ, Cmd: cell.Relay, Payload: p}); err != nil {
		t.Fatal(err)
	}
	got, err := recvCell(lk)
	if err != nil {
		t.Fatal(err)
	}
	hop.CryptBackward(&got.Payload)
	if !hop.VerifyBackward(&got.Payload) {
		t.Fatal("reply unrecognized")
	}
	reply, err := cell.UnmarshalPayload(&got.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Cmd != cell.RelayEnd || reply.Stream != 42 {
		t.Errorf("reply %s stream %d, want END on stream 42", reply.Cmd, reply.Stream)
	}
}

func TestRelaySurvivesCellFlood(t *testing.T) {
	pn := link.NewPipeNet()
	r, _ := startRelay(t, pn, "flooded")
	lk, err := pn.Dial("flooded")
	if err != nil {
		t.Fatal(err)
	}
	defer lk.Close()
	// Drain whatever the relay answers (CREATEDs and DESTROYs); an unread
	// reply buffer would otherwise exert backpressure on the relay — by
	// design — and stall the flood itself.
	go func() {
		for {
			if _, err := recvCell(lk); err != nil {
				return
			}
		}
	}()
	// 2000 garbage cells across commands; the relay must stay responsive.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		var c cell.Cell
		c.Circ = cell.CircID(rng.Uint32())
		c.Cmd = cell.Command(rng.Intn(5))
		for j := 0; j < 16; j++ {
			c.Payload[rng.Intn(cell.PayloadLen)] = byte(rng.Intn(256))
		}
		if err := sendCell(lk, c); err != nil {
			t.Fatalf("flood send %d: %v", i, err)
		}
	}
	// Still answers a legitimate handshake afterwards.
	deadline := time.After(5 * time.Second)
	okCh := make(chan error, 1)
	go func() {
		lk2, err := pn.Dial("flooded")
		if err != nil {
			okCh <- err
			return
		}
		defer lk2.Close()
		id, err := onion.NewIdentity(nil)
		if err != nil {
			okCh <- err
			return
		}
		_ = id
		hs, err := onion.StartHandshake(relayPublicKey(t, r), nil)
		if err != nil {
			okCh <- err
			return
		}
		var create cell.Cell
		create.Circ = 1
		create.Cmd = cell.Create
		copy(create.Payload[:], hs.Onionskin())
		if err := sendCell(lk2, create); err != nil {
			okCh <- err
			return
		}
		got, err := recvCell(lk2)
		if err != nil {
			okCh <- err
			return
		}
		// After a flood of garbage CREATEs the relay may answer DESTROY to
		// bad ones but must answer CREATED to ours.
		for got.Cmd != cell.Created {
			got, err = recvCell(lk2)
			if err != nil {
				okCh <- err
				return
			}
		}
		_, err = hs.Complete(got.Payload[:onion.ReplyLen])
		okCh <- err
	}()
	select {
	case err := <-okCh:
		if err != nil {
			t.Fatalf("relay unresponsive after flood: %v", err)
		}
	case <-deadline:
		t.Fatal("relay hung after flood")
	}
}

// relayPublicKey digs the identity out of the running relay's config for
// the flood test.
func relayPublicKey(t *testing.T, r *Relay) onion.PublicKey {
	t.Helper()
	return r.cfg.Identity.Public()
}

// TestRelaySurvivesTruncateFlood hammers a two-hop circuit with TRUNCATEs,
// every few of them preceded by an EXTEND whose CREATE is still in flight
// when the TRUNCATE lands — the register/unregister/DESTROY path at its
// most contended. The relay must answer every TRUNCATE, leak no slot, and
// still build circuits afterwards.
func TestRelaySurvivesTruncateFlood(t *testing.T) {
	pn := link.NewPipeNet()
	r0, id0 := startRelay(t, pn, "flood-entry")
	r1, id1 := startRelay(t, pn, "flood-next")
	h := dialCirc(t, pn, "flood-entry", id0.Public())

	const truncates = 600
	got := make(chan int, 1)
	go func() {
		// Drain replies so backpressure cannot stall the flood: TRUNCATEDs,
		// plus an EXTENDED or an END for each EXTEND that won or lost its
		// race with the TRUNCATE behind it.
		n := 0
		for n < truncates {
			c, err := recvCell(h.lk)
			if err != nil || c.Cmd != cell.Relay {
				break
			}
			if _, err := h.cc.DecryptBackward(&c.Payload); err != nil {
				break
			}
			if rc, err := cell.UnmarshalPayload(&c.Payload); err == nil && rc.Cmd == cell.RelayTruncated {
				n++
			}
		}
		got <- n
	}()
	for i := 0; i < truncates; i++ {
		if i%5 == 0 {
			hs, err := onion.StartHandshake(id1.Public(), nil)
			if err != nil {
				t.Fatal(err)
			}
			body, err := cell.EncodeExtend("flood-next", hs.Onionskin())
			if err != nil {
				t.Fatal(err)
			}
			h.send(0, cell.RelayCell{Cmd: cell.RelayExtend, Data: body})
		}
		h.send(0, cell.RelayCell{Cmd: cell.RelayTruncate})
	}
	select {
	case n := <-got:
		if n != truncates {
			t.Fatalf("relay answered %d of %d TRUNCATEs", n, truncates)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("relay wedged under a TRUNCATE flood")
	}
	eventually(t, "every flooded slot is freed", func() bool {
		return onwardSlots(r0) == 0 && circuitCount(r1) == 0
	})
	// Still a working relay and a working circuit.
	h.extend("flood-next", id1.Public())
	if circuitCount(r0) != 1 || circuitCount(r1) != 1 {
		t.Errorf("after the flood: %d and %d circuits, want 1 and 1", circuitCount(r0), circuitCount(r1))
	}
}
