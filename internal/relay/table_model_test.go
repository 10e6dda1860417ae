package relay

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"ting/internal/cell"
	"ting/internal/link"
	"ting/internal/onion"
)

// tableModel is the serial reference for a relay's circuit table, as its
// one client link and its one neighbour see it: the live circuit IDs on the
// client link, each with the onward slot it holds on the neighbour link
// (next 0: the circuit ends here) and whether that slot still awaits
// CREATED.
type tableModel map[cell.CircID]*modelCirc

type modelCirc struct {
	next     cell.CircID
	awaiting bool
}

// byNext is the live circuit holding onward slot next, if any.
func (m tableModel) byNext(next cell.CircID) (cell.CircID, *modelCirc) {
	for id, c := range m {
		if c.next == next {
			return id, c
		}
	}
	return 0, nil
}

// event is a cell one end of the relay saw: CREATED, DESTROY, a relay
// command the relay itself sent (TRUNCATED, EXTENDED, END), or TAIL, a
// cell the neighbour sent back through the relay. On the neighbour side a
// CREATE's circuit is the slot the relay chose, which the model learns.
type event struct {
	circ cell.CircID
	what string
}

// tableWorld is a relay under test with its client link and its neighbour
// driven by hand, cell by cell.
type tableWorld struct {
	t        *testing.T
	seed     int64
	relayPub onion.PublicKey
	client   link.Link
	fromR    chan cell.Cell // what the client link received
	nbr      link.Link
	fromNbr  chan cell.Cell // what the neighbour received
	hops     map[cell.CircID]*onion.HopState
	pending  map[cell.CircID]*onion.ClientHandshake
	sentinel cell.CircID // a circuit extended to the neighbour, for barriers
	sentNext cell.CircID // its onward slot
	barriers uint32
}

// pumpCells copies what lk receives into a channel, so that the test can
// wait for a cell with a timeout.
func pumpCells(lk link.Link) chan cell.Cell {
	ch := make(chan cell.Cell, 64)
	go func() {
		defer close(ch)
		for {
			c, err := recvCell(lk)
			if err != nil {
				return
			}
			ch <- c
		}
	}()
	return ch
}

func (w *tableWorld) next(ch chan cell.Cell, from string) cell.Cell {
	w.t.Helper()
	select {
	case c, ok := <-ch:
		if !ok {
			w.t.Fatalf("seed %d: the %s link closed", w.seed, from)
		}
		return c
	case <-time.After(5 * time.Second):
		w.t.Fatalf("seed %d: nothing reached the %s for 5s", w.seed, from)
		return cell.Cell{}
	}
}

func (w *tableWorld) send(lk link.Link, c cell.Cell) {
	w.t.Helper()
	if err := sendCell(lk, c); err != nil {
		w.t.Fatalf("seed %d: %v", w.seed, err)
	}
}

// sendOwn sends rc to the relay on circuit id, under the keys the client
// holds for it (a dead circuit's too: the relay must ignore the cell).
func (w *tableWorld) sendOwn(id cell.CircID, rc cell.RelayCell) {
	p, err := rc.MarshalPayload()
	if err != nil {
		w.t.Fatal(err)
	}
	hop := w.hops[id]
	hop.SealForward(&p)
	hop.CryptForward(&p)
	w.send(w.client, cell.Cell{Circ: id, Cmd: cell.Relay, Payload: p})
}

// create sends CREATE on id; the handshake completes when CREATED arrives.
func (w *tableWorld) create(id cell.CircID) {
	hs, err := onion.StartHandshake(w.relayPub, nil)
	if err != nil {
		w.t.Fatal(err)
	}
	w.pending[id] = hs
	c := cell.Cell{Circ: id, Cmd: cell.Create}
	copy(c.Payload[:], hs.Onionskin())
	w.send(w.client, c)
}

// marked is a payload the relay cannot recognize (nonzero recognized
// field), tagged with n: the barrier cells and the neighbour's tail cells.
func marked(n uint32) [cell.PayloadLen]byte {
	var p [cell.PayloadLen]byte
	p[1] = 0xff
	binary.BigEndian.PutUint32(p[20:], n)
	return p
}

// settle is the barrier after each step. A cell the relay passes on along
// the sentinel circuit reaches the neighbour after everything the relay
// sent it while handling the client's earlier cells; the neighbour's answer
// on the sentinel's slot reaches the client after everything the relay sent
// back for either side's earlier cells. It returns what each side saw
// before the barrier.
func (w *tableWorld) settle() (client, nbr []event) {
	w.t.Helper()
	w.barriers++
	tag := w.barriers
	p := marked(tag)
	w.hops[w.sentinel].CryptForward(&p)
	w.send(w.client, cell.Cell{Circ: w.sentinel, Cmd: cell.Relay, Payload: p})
	for {
		c := w.next(w.fromNbr, "neighbour")
		if c.Circ == w.sentNext && c.Cmd == cell.Relay && c.Payload == marked(tag) {
			break
		}
		nbr = append(nbr, event{c.Circ, c.Cmd.String()})
	}
	w.send(w.nbr, cell.Cell{Circ: w.sentNext, Cmd: cell.Relay, Payload: marked(tag)})
	for {
		c := w.next(w.fromR, "client")
		if c.Circ == w.sentinel && c.Cmd == cell.Relay {
			w.hops[w.sentinel].CryptBackward(&c.Payload)
			if c.Payload != marked(tag) {
				w.t.Fatalf("seed %d: the barrier came back as %x", w.seed, c.Payload[:24])
			}
			return client, nbr
		}
		switch c.Cmd {
		case cell.Created:
			hs := w.pending[c.Circ]
			if hs == nil {
				w.t.Fatalf("seed %d: CREATED on %d, which sent no CREATE", w.seed, c.Circ)
			}
			delete(w.pending, c.Circ)
			hop, err := hs.Complete(c.Payload[:onion.ReplyLen])
			if err != nil {
				w.t.Fatalf("seed %d: circuit %d: %v", w.seed, c.Circ, err)
			}
			w.hops[c.Circ] = hop
			client = append(client, event{c.Circ, "CREATED"})
		case cell.Relay:
			hop := w.hops[c.Circ]
			if hop == nil {
				w.t.Fatalf("seed %d: RELAY on %d, which never had a circuit", w.seed, c.Circ)
			}
			hop.CryptBackward(&c.Payload)
			what := "TAIL"
			if hop.VerifyBackward(&c.Payload) {
				rc, err := cell.UnmarshalPayload(&c.Payload)
				if err != nil {
					w.t.Fatalf("seed %d: circuit %d: %v", w.seed, c.Circ, err)
				}
				what = rc.Cmd.String()
			}
			client = append(client, event{c.Circ, what})
		default:
			client = append(client, event{c.Circ, c.Cmd.String()})
		}
	}
}

// TestRelayAgainstCircuitTableModel feeds one relay random CREATE, EXTEND,
// TRUNCATE and DESTROY from its client, and CREATED (on time or late, for a
// slot already freed), backward cells and DESTROY from its neighbour, and
// checks after every step that both ends saw exactly the cells the model
// predicts and that the relay's tables are the model's size. So no circuit
// outlives its DESTROY, nothing the neighbour sends on a dropped tail's
// slot follows TRUNCATED, and when every circuit is destroyed the relay
// holds none. The seed is printed so that a failure can be replayed.
func TestRelayAgainstCircuitTableModel(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))

	pn := link.NewPipeNet()
	nbrLn, err := pn.Listen("nbr")
	if err != nil {
		t.Fatal(err)
	}
	defer nbrLn.Close()
	r, id := startRelay(t, pn, "r")
	client, err := pn.Dial("r")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	w := &tableWorld{
		t: t, seed: seed, relayPub: id.Public(), client: client, fromR: pumpCells(client),
		hops: map[cell.CircID]*onion.HopState{}, pending: map[cell.CircID]*onion.ClientHandshake{},
		sentinel: 1000,
	}

	// The sentinel circuit, extended to the neighbour by hand.
	w.create(w.sentinel)
	created := w.next(w.fromR, "client")
	if created.Cmd != cell.Created {
		t.Fatalf("sentinel: got %s, want CREATED", created.Cmd)
	}
	if w.hops[w.sentinel], err = w.pending[w.sentinel].Complete(created.Payload[:onion.ReplyLen]); err != nil {
		t.Fatal(err)
	}
	extend := func(id cell.CircID) {
		body, err := cell.EncodeExtend("nbr", make([]byte, onion.KeyLen))
		if err != nil {
			t.Fatal(err)
		}
		w.sendOwn(id, cell.RelayCell{Cmd: cell.RelayExtend, Data: body})
	}
	extend(w.sentinel)
	w.nbr, err = nbrLn.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer w.nbr.Close()
	w.fromNbr = pumpCells(w.nbr)
	create := w.next(w.fromNbr, "neighbour")
	w.sentNext = create.Circ
	w.send(w.nbr, cell.Cell{Circ: w.sentNext, Cmd: cell.Created})
	c := w.next(w.fromR, "client")
	w.hops[w.sentinel].CryptBackward(&c.Payload)
	if !w.hops[w.sentinel].VerifyBackward(&c.Payload) {
		t.Fatal("sentinel: EXTENDED unrecognized")
	}

	m := tableModel{}
	var known []cell.CircID // every circuit ID the client has had a circuit on
	var slots []cell.CircID // every onward slot the neighbour has seen
	pick := func(ids []cell.CircID) cell.CircID { return ids[rng.Intn(len(ids))] }
	for step := 0; step < 400; step++ {
		var wantClient, wantNbr []event
		var learn *modelCirc // a circuit whose new slot the neighbour is about to see
		op := rng.Intn(7)
		if op > 0 && op < 4 && len(known) == 0 || op >= 4 && len(slots) == 0 {
			op = 0
		}
		switch op {
		case 0: // CREATE, on a small ID space so that live IDs recur
			id := cell.CircID(1 + rng.Intn(6))
			w.create(id)
			if m[id] != nil {
				wantClient = append(wantClient, event{id, "DESTROY"})
				delete(w.pending, id)
			} else {
				wantClient = append(wantClient, event{id, "CREATED"})
				m[id] = &modelCirc{}
				if !slices.Contains(known, id) {
					known = append(known, id)
				}
			}
		case 1: // EXTEND
			id := pick(known)
			extend(id)
			switch c := m[id]; {
			case c == nil:
			case c.next != 0:
				wantClient = append(wantClient, event{id, "END"})
			default:
				wantNbr = append(wantNbr, event{0, "CREATE"})
				learn = c
			}
		case 2: // TRUNCATE
			id := pick(known)
			w.sendOwn(id, cell.RelayCell{Cmd: cell.RelayTruncate})
			if c := m[id]; c != nil {
				if c.next != 0 {
					wantNbr = append(wantNbr, event{c.next, "DESTROY"})
				}
				wantClient = append(wantClient, event{id, "TRUNCATED"})
				*c = modelCirc{}
			}
		case 3: // DESTROY from the client
			id := pick(known)
			w.send(w.client, cell.Cell{Circ: id, Cmd: cell.Destroy})
			if c := m[id]; c != nil {
				if c.next != 0 {
					wantNbr = append(wantNbr, event{c.next, "DESTROY"})
				}
				delete(m, id)
			}
		case 4: // CREATED from the neighbour, on time or for a freed slot
			next := pick(slots)
			w.send(w.nbr, cell.Cell{Circ: next, Cmd: cell.Created})
			if id, c := m.byNext(next); c != nil && c.awaiting {
				wantClient = append(wantClient, event{id, "EXTENDED"})
				c.awaiting = false
			}
		case 5: // a backward cell from the neighbour
			next := pick(slots)
			w.send(w.nbr, cell.Cell{Circ: next, Cmd: cell.Relay, Payload: marked(0)})
			if id, c := m.byNext(next); c != nil {
				wantClient = append(wantClient, event{id, "TAIL"})
			}
		case 6: // DESTROY from the neighbour
			next := pick(slots)
			w.send(w.nbr, cell.Cell{Circ: next, Cmd: cell.Destroy})
			if id, c := m.byNext(next); c != nil {
				wantClient = append(wantClient, event{id, "DESTROY"})
				delete(m, id)
			}
		}
		gotClient, gotNbr := w.settle()
		if learn != nil && len(gotNbr) == 1 {
			learn.next, learn.awaiting = gotNbr[0].circ, true
			slots = append(slots, learn.next)
			gotNbr[0].circ = 0
		}
		if !slices.Equal(gotClient, wantClient) || !slices.Equal(gotNbr, wantNbr) {
			t.Fatalf("seed %d step %d (op %d): client saw %v, neighbour %v; model %v and %v",
				seed, step, op, gotClient, gotNbr, wantClient, wantNbr)
		}
		onward := 0
		for _, c := range m {
			if c.next != 0 {
				onward++
			}
		}
		if got, want := fmt.Sprint(circuitCount(r), onwardSlots(r)), fmt.Sprint(len(m)+1, onward+1); got != want {
			t.Fatalf("seed %d step %d (op %d): relay holds %s circuits and onward slots, model %s (sentinel included)",
				seed, step, op, got, want)
		}
	}

	for id := range m {
		w.send(w.client, cell.Cell{Circ: id, Cmd: cell.Destroy})
	}
	w.send(w.client, cell.Cell{Circ: w.sentinel, Cmd: cell.Destroy})
	eventually(t, "the relay's tables empty", func() bool {
		return circuitCount(r) == 0 && onwardSlots(r) == 0
	})
}
