package client

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"ting/internal/cell"
	"ting/internal/directory"
	"ting/internal/link"
	"ting/internal/onion"
)

// Circuit is an established client circuit.
type Circuit struct {
	c    *Client
	lk   link.Link
	id   cell.CircID
	path []*directory.Descriptor

	crypto onion.CircuitCrypto
	// cryptoMu guards every use of crypto: forward crypt+send (keeping
	// each hop's CTR keystream and digest in cell order), backward
	// decryption, and hop addition and removal during Extend and Truncate.
	// It also guards fwd, the scratch cell sendForward builds each outgoing
	// cell in: the lock is held across the link send, and links do not
	// retain cells.
	cryptoMu sync.Mutex
	fwd      cell.Cell

	created chan [onion.ReplyLen]byte // CREATED reply during build
	// ctrl carries stream-0 relay cells (EXTENDED / TRUNCATED / END) to
	// the waiting Extend or Truncate, which returns each one's pooled data
	// buffer once it has read it.
	ctrl chan cell.RelayCell

	mu        sync.Mutex
	streams   map[cell.StreamID]*Stream
	nextSID   cell.StreamID
	destroyed bool
	err       error

	closeOnce sync.Once
	closed    chan struct{}
}

func newCircuit(c *Client, lk link.Link, id cell.CircID, path []*directory.Descriptor) *Circuit {
	circ := &Circuit{
		c:       c,
		lk:      lk,
		id:      id,
		path:    append([]*directory.Descriptor(nil), path...),
		created: make(chan [onion.ReplyLen]byte, 1),
		ctrl:    make(chan cell.RelayCell, 16),
		streams: make(map[cell.StreamID]*Stream),
		nextSID: 1,
		closed:  make(chan struct{}),
	}
	go circ.readLoop()
	return circ
}

func (circ *Circuit) pathSnapshot() []*directory.Descriptor {
	circ.mu.Lock()
	defer circ.mu.Unlock()
	return circ.path
}

// Extend adds one more hop to an established circuit, performing the
// handshake through the current last hop. Existing streams keep flowing at
// their original hops (leaky pipe). The new relay must not already be on
// the circuit.
func (circ *Circuit) Extend(d *directory.Descriptor) error {
	if d == nil {
		return errors.New("client: nil descriptor")
	}
	circ.mu.Lock()
	if circ.destroyed {
		circ.mu.Unlock()
		return circ.closeErr()
	}
	for _, h := range circ.path {
		if h.Nickname == d.Nickname {
			circ.mu.Unlock()
			return fmt.Errorf("%w: %s", ErrRepeatedRelay, d.Nickname)
		}
	}
	last := len(circ.path) - 1
	circ.mu.Unlock()

	if err := circ.extendThrough(last, d); err != nil {
		return err
	}
	circ.mu.Lock()
	circ.path = append(circ.path, d)
	circ.mu.Unlock()
	return nil
}

// extendThrough performs one EXTEND handshake with d through hop index
// last, the circuit's current end, and installs the new hop's keys.
func (circ *Circuit) extendThrough(last int, d *directory.Descriptor) error {
	hs, err := onion.StartHandshake(d.OnionKey, nil)
	if err != nil {
		return err
	}
	body, err := cell.EncodeExtend(d.Addr, hs.Onionskin())
	if err != nil {
		return err
	}
	if err := circ.sendForward(last, cell.RelayCell{Cmd: cell.RelayExtend, Data: body}); err != nil {
		return fmt.Errorf("client: extend to %s: %w", d.Nickname, err)
	}
	rc, err := circ.waitCtrl()
	if err != nil {
		return fmt.Errorf("client: extend to %s: %w", d.Nickname, err)
	}
	defer cell.PutBuf(rc.Data)
	switch rc.Cmd {
	case cell.RelayExtended:
		hop, err := hs.Complete(rc.Data)
		if err != nil {
			return fmt.Errorf("client: extend to %s: %w", d.Nickname, err)
		}
		circ.c.tm.handshakes.Inc()
		circ.c.tm.extends.Inc()
		circ.cryptoMu.Lock()
		circ.crypto.AddHop(hop)
		circ.cryptoMu.Unlock()
		return nil
	case cell.RelayEnd:
		return fmt.Errorf("client: extend to %s refused: %s", d.Nickname, rc.Data)
	default:
		return fmt.Errorf("client: extend to %s: unexpected %s", d.Nickname, rc.Cmd)
	}
}

// build performs the CREATE + EXTEND sequence for every hop.
func (circ *Circuit) build() error {
	// First hop: CREATE/CREATED directly on the link.
	hs, err := onion.StartHandshake(circ.path[0].OnionKey, nil)
	if err != nil {
		return err
	}
	if err := link.SendControl(circ.lk, circ.id, cell.Create, hs.Onionskin()); err != nil {
		return fmt.Errorf("client: send CREATE: %w", err)
	}
	reply, err := circ.waitCreated()
	if err != nil {
		return fmt.Errorf("client: hop 1 (%s): %w", circ.path[0].Nickname, err)
	}
	hop, err := hs.Complete(reply[:])
	if err != nil {
		return fmt.Errorf("client: hop 1 (%s): %w", circ.path[0].Nickname, err)
	}
	circ.c.tm.handshakes.Inc()
	circ.cryptoMu.Lock()
	circ.crypto.AddHop(hop)
	circ.cryptoMu.Unlock()

	// Remaining hops: RELAY_EXTEND through the current last hop.
	for i := 1; i < len(circ.path); i++ {
		if err := circ.extendThrough(i-1, circ.path[i]); err != nil {
			return err
		}
	}
	return nil
}

// Truncate cuts the circuit back to its first n hops with RELAY_TRUNCATE:
// hop n-1 frees its onward slot, DESTROYs the rest of the old path and
// answers TRUNCATED, after which it is the last hop again and Extend can
// graft a different tail onto it — reshaping the circuit without
// re-dialing the entry or redoing the kept hops' handshakes. Streams
// attached at kept hops keep flowing; streams beyond n are closed.
//
// n must lie in [1, Len()]; n == Len() is a no-op that sends nothing. The
// result may be a one-hop circuit, which exists only to be extended:
// OpenStreamAt refuses until it has two hops again. Any reply other than
// TRUNCATED, a timeout, or a destroyed circuit is an error and leaves the
// circuit unusable for reshaping; callers fall back to a fresh build.
func (circ *Circuit) Truncate(n int) error {
	circ.mu.Lock()
	if circ.destroyed {
		circ.mu.Unlock()
		return circ.closeErr()
	}
	have := len(circ.path)
	circ.mu.Unlock()
	if n < 1 || n > have {
		return fmt.Errorf("client: truncate to %d hops out of range (circuit has %d)", n, have)
	}
	if n == have {
		return nil
	}
	if err := circ.truncateAt(n); err != nil {
		circ.c.tm.truncateFails.Inc()
		return fmt.Errorf("client: truncate at %s: %w", circ.pathSnapshot()[n-1].Nickname, err)
	}
	circ.c.tm.truncates.Inc()
	return nil
}

func (circ *Circuit) truncateAt(n int) error {
	if err := circ.sendForward(n-1, cell.RelayCell{Cmd: cell.RelayTruncate}); err != nil {
		return err
	}
	rc, err := circ.waitCtrl()
	if err != nil {
		return err
	}
	cell.PutBuf(rc.Data)
	if rc.Cmd != cell.RelayTruncated {
		return fmt.Errorf("unexpected %s", rc.Cmd)
	}
	// Hop n-1 freed its onward slot before answering and the backward link
	// is FIFO, so no cell from a dropped hop can arrive from here on: the
	// dropped hops' keys are no longer needed.
	circ.cryptoMu.Lock()
	err = circ.crypto.Truncate(n)
	circ.cryptoMu.Unlock()
	if err != nil {
		return err
	}
	circ.mu.Lock()
	circ.path = circ.path[:n:n]
	var dropped []*Stream
	for _, st := range circ.streams {
		if st.hop >= n {
			dropped = append(dropped, st)
		}
	}
	circ.mu.Unlock()
	for _, st := range dropped {
		st.closeLocal()
	}
	return nil
}

// Every protocol wait below stops its timer on the way out: at scan rates
// a time.After per wait would leave thousands of 15–30 s timers pending.
// The timers are pooled, as a new one per wait was a scan's largest
// allocation after the handshakes; a timer stopped before it goes back
// delivers nothing stale to the next wait (Go 1.23 timer semantics).
var waitTimers = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}}

// startWait returns a pooled timer that fires after the client's Timeout;
// endWait stops it and returns it to the pool.
func (c *Client) startWait() *time.Timer {
	t := waitTimers.Get().(*time.Timer)
	t.Reset(c.cfg.Timeout)
	return t
}

func endWait(t *time.Timer) {
	t.Stop()
	waitTimers.Put(t)
}

func (circ *Circuit) waitCreated() (reply [onion.ReplyLen]byte, err error) {
	t := circ.c.startWait()
	defer endWait(t)
	select {
	case reply = <-circ.created:
		return reply, nil
	case <-circ.closed:
		return reply, circ.closeErr()
	case <-t.C:
		return reply, errors.New("timeout waiting for CREATED")
	}
}

func (circ *Circuit) waitCtrl() (cell.RelayCell, error) {
	t := circ.c.startWait()
	defer endWait(t)
	select {
	case rc := <-circ.ctrl:
		return rc, nil
	case <-circ.closed:
		return cell.RelayCell{}, circ.closeErr()
	case <-t.C:
		return cell.RelayCell{}, errors.New("timeout waiting for circuit reply")
	}
}

func (circ *Circuit) closeErr() error {
	circ.mu.Lock()
	defer circ.mu.Unlock()
	if circ.err != nil {
		return circ.err
	}
	return errors.New("client: circuit closed")
}

// sendForward seals rc for hop index hop and transmits it.
func (circ *Circuit) sendForward(hop int, rc cell.RelayCell) error {
	circ.cryptoMu.Lock()
	defer circ.cryptoMu.Unlock()
	out := &circ.fwd
	if err := rc.MarshalPayloadInto(&out.Payload); err != nil {
		return err
	}
	if err := circ.crypto.EncryptForward(hop, &out.Payload); err != nil {
		return err
	}
	out.Circ, out.Cmd = circ.id, cell.Relay
	return circ.lk.Send(out)
}

// readLoop dispatches inbound cells until the link dies or the circuit is
// closed. One cell is reused across iterations; handlers copy what they
// keep.
func (circ *Circuit) readLoop() {
	var c cell.Cell
	for {
		err := circ.lk.Recv(&c)
		if err != nil {
			circ.fail(fmt.Errorf("client: link lost: %w", err))
			return
		}
		if c.Circ != circ.id {
			continue // not this link's one circuit
		}
		switch c.Cmd {
		case cell.Created:
			select {
			case circ.created <- [onion.ReplyLen]byte(c.Payload[:onion.ReplyLen]):
			default:
			}
		case cell.Relay:
			circ.handleRelay(&c)
		case cell.Destroy:
			circ.fail(errors.New("client: circuit destroyed by relay"))
			return
		default:
			// Padding, and anything a relay has no business sending a
			// client (CREATE): ignored.
		}
	}
}

func (circ *Circuit) handleRelay(c *cell.Cell) {
	circ.cryptoMu.Lock()
	_, err := circ.crypto.DecryptBackward(&c.Payload)
	circ.cryptoMu.Unlock()
	if err != nil {
		circ.fail(fmt.Errorf("client: undecryptable relay cell: %w", err))
		return
	}
	rc, err := cell.UnmarshalPayload(&c.Payload)
	if err != nil {
		return
	}
	if rc.Stream == 0 {
		select {
		case circ.ctrl <- rc:
		default: // nobody is waiting for a control cell: dropped
			cell.PutBuf(rc.Data)
		}
		return
	}
	circ.mu.Lock()
	st := circ.streams[rc.Stream]
	circ.mu.Unlock()
	if st == nil { // a stream already closed here
		cell.PutBuf(rc.Data)
		return
	}
	st.deliver(rc)
}

// OpenStream asks the last hop to connect to target and returns the
// attached stream.
func (circ *Circuit) OpenStream(target string) (*Stream, error) {
	return circ.OpenStreamAt(len(circ.pathSnapshot())-1, target)
}

// OpenStreamAt opens a stream exiting from the given hop index — Tor's
// "leaky pipe" topology, where traffic may leave the circuit before its
// end. The hop's relay must permit exiting to target.
func (circ *Circuit) OpenStreamAt(hop int, target string) (*Stream, error) {
	circ.mu.Lock()
	if circ.destroyed {
		circ.mu.Unlock()
		return nil, circ.closeErr()
	}
	if len(circ.path) < 2 {
		// Only a Truncate leaves one hop, and only until the next Extend.
		circ.mu.Unlock()
		return nil, ErrPathTooShort
	}
	if hop < 0 || hop >= len(circ.path) {
		circ.mu.Unlock()
		return nil, fmt.Errorf("client: hop %d out of range (circuit has %d)", hop, len(circ.path))
	}
	sid := circ.nextSID
	circ.nextSID++
	st := newStream(circ, sid, hop)
	circ.streams[sid] = st
	circ.mu.Unlock()

	if err := circ.sendForward(hop, cell.RelayCell{
		Cmd: cell.RelayBegin, Stream: sid, Data: []byte(target),
	}); err != nil {
		st.closeLocal()
		circ.c.tm.streamFailures.Inc()
		return nil, err
	}
	t := circ.c.startWait()
	defer endWait(t)
	var err error
	select {
	case <-st.connected:
		circ.c.tm.streamsOpened.Inc()
		return st, nil
	case <-st.closedCh:
		err = fmt.Errorf("client: stream refused: %s", st.reason)
	case <-circ.closed:
		err = circ.closeErr()
	case <-t.C:
		err = errors.New("client: timeout opening stream")
	}
	st.closeLocal()
	circ.c.tm.streamFailures.Inc()
	return nil, err
}

// fail tears the circuit down because of err.
func (circ *Circuit) fail(err error) {
	circ.mu.Lock()
	if circ.err == nil {
		circ.err = err
	}
	circ.mu.Unlock()
	circ.shutdown(false)
}

// Close tears the circuit down, notifying the entry relay.
func (circ *Circuit) Close() error {
	circ.shutdown(true)
	return nil
}

func (circ *Circuit) shutdown(notify bool) {
	circ.closeOnce.Do(func() {
		circ.mu.Lock()
		circ.destroyed = true
		streams := circ.streams
		circ.streams = make(map[cell.StreamID]*Stream)
		circ.mu.Unlock()
		for _, st := range streams {
			st.closeLocal()
		}
		if notify {
			_ = link.SendControl(circ.lk, circ.id, cell.Destroy, nil)
		}
		close(circ.closed)
		circ.lk.Close()
	})
}
