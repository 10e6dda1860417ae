package relay

import (
	"fmt"
	"sync"

	"ting/internal/cell"
	"ting/internal/link"
)

// outConn is one shared onward connection to a neighbouring relay. Every
// circuit this relay extends toward the same neighbour is multiplexed over
// it, distinguished by connection-scoped circuit IDs — exactly Tor's
// discipline of one (TLS) connection per relay pair carrying many
// circuits.
type outConn struct {
	r    *Relay
	addr string
	lk   link.Link

	mu       sync.Mutex
	circuits map[cell.CircID]*circuit
	closed   bool
}

// outSlot deduplicates concurrent dials to the same neighbour.
type outSlot struct {
	once sync.Once
	oc   *outConn
	err  error
}

// getOutConn returns the (possibly freshly dialed) shared connection to
// addr.
func (r *Relay) getOutConn(addr string) (*outConn, error) {
	r.outMu.Lock()
	slot := r.outSlots[addr]
	if slot == nil {
		slot = &outSlot{}
		r.outSlots[addr] = slot
	}
	r.outMu.Unlock()

	slot.once.Do(func() {
		lk, err := r.cfg.RelayDialer.Dial(addr)
		if err != nil {
			slot.err = fmt.Errorf("relay: dial %s: %w", addr, err)
			r.dropSlot(addr, slot)
			return
		}
		oc := &outConn{r: r, addr: addr, lk: lk, circuits: make(map[cell.CircID]*circuit)}
		slot.oc = oc
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			oc.readLoop()
		}()
	})
	if slot.err != nil {
		return nil, slot.err
	}
	// The slot may have been torn down between Do and here; the caller's
	// register will fail fast on a closed conn.
	return slot.oc, nil
}

// dropSlot removes a slot so the next extend re-dials.
func (r *Relay) dropSlot(addr string, slot *outSlot) {
	r.outMu.Lock()
	if r.outSlots[addr] == slot {
		delete(r.outSlots, addr)
	}
	r.outMu.Unlock()
}

// register allocates a fresh connection-scoped circuit ID for circ.
func (oc *outConn) register(circ *circuit) (cell.CircID, error) {
	oc.mu.Lock()
	defer oc.mu.Unlock()
	if oc.closed {
		return 0, fmt.Errorf("relay: connection to %s closed", oc.addr)
	}
	for {
		id := oc.r.newCircID()
		if _, taken := oc.circuits[id]; !taken {
			oc.circuits[id] = circ
			return id, nil
		}
	}
}

// unregister removes a circuit; the connection stays up for others.
func (oc *outConn) unregister(id cell.CircID) {
	oc.mu.Lock()
	delete(oc.circuits, id)
	oc.mu.Unlock()
}

func (oc *outConn) lookup(id cell.CircID) *circuit {
	oc.mu.Lock()
	defer oc.mu.Unlock()
	return oc.circuits[id]
}

// readLoop demultiplexes inbound cells to their circuits. One cell is
// reused across iterations; every handler below copies what it keeps.
func (oc *outConn) readLoop() {
	var c cell.Cell
	for {
		if err := oc.lk.Recv(&c); err != nil {
			oc.teardown()
			return
		}
		switch c.Cmd {
		case cell.Created:
			if circ := oc.lookup(c.Circ); circ != nil {
				circ.handleCreated(oc, c.Circ, &c.Payload)
			}
		case cell.Relay:
			circ := oc.lookup(c.Circ)
			if circ == nil {
				continue // a circuit already torn down here
			}
			oc.r.forwardDelay()
			oc.r.countRelayed()
			if err := circ.relayBackward(oc, &c); err != nil {
				circ.destroy(false, true)
			}
		case cell.Destroy:
			if circ := oc.lookup(c.Circ); circ != nil {
				circ.destroy(true, false)
			}
		default:
			// Padding, and anything the next relay has no business
			// sending back (CREATE): ignored.
		}
	}
}

// teardown kills the connection and every circuit on it.
func (oc *outConn) teardown() {
	oc.mu.Lock()
	if oc.closed {
		oc.mu.Unlock()
		return
	}
	oc.closed = true
	circs := make([]*circuit, 0, len(oc.circuits))
	for _, c := range oc.circuits {
		circs = append(circs, c)
	}
	oc.circuits = make(map[cell.CircID]*circuit)
	oc.mu.Unlock()

	oc.r.outMu.Lock()
	if slot := oc.r.outSlots[oc.addr]; slot != nil && slot.oc == oc {
		delete(oc.r.outSlots, oc.addr)
	}
	oc.r.outMu.Unlock()

	oc.lk.Close()
	for _, c := range circs {
		c.destroy(true, false)
	}
}

// sendDestroy tells the next relay to tear down circuit id. Best effort: if
// the link is gone, so is the circuit.
func (oc *outConn) sendDestroy(id cell.CircID) {
	_ = link.SendControl(oc.lk, id, cell.Destroy, nil)
}
