package relay

import (
	"fmt"
	"io"
	"sync"
	"time"

	"ting/internal/cell"
	"ting/internal/link"
	"ting/internal/onion"
)

// circuit is one circuit's state at this relay: the client-facing side
// (prev), the established hop crypto, and — once extended — its slot on a
// shared onward connection toward the next relay.
type circuit struct {
	r      *Relay
	prevCS *connState
	prevID cell.CircID
	hop    *onion.HopState

	// bwdMu serializes every backward-direction crypto+send so the
	// client's CTR keystream and running digest observe cells in the exact
	// order they were encrypted. It also guards bwd, the scratch cell that
	// sendBackward builds each originated cell in: the lock is held across
	// the link send, and links do not retain cells.
	bwdMu sync.Mutex
	bwd   cell.Cell

	mu              sync.Mutex
	next            *outConn
	nextID          cell.CircID
	awaitingCreated bool
	extendTimer     *time.Timer
	destroyed       bool
	streams         map[cell.StreamID]*exitStream
}

// handleOwnCell processes a relay cell addressed to this hop. The cell's
// data is a pooled buffer (cell.UnmarshalPayload): handleData hands it on
// to the stream, and every other handler is done with it when it returns,
// so it goes back to the pool here.
func (c *circuit) handleOwnCell(p *[cell.PayloadLen]byte) {
	rc, err := cell.UnmarshalPayload(p)
	if err != nil {
		c.destroy(true, true)
		return
	}
	switch rc.Cmd {
	case cell.RelayData:
		c.handleData(rc)
		return
	case cell.RelayExtend:
		c.handleExtend(rc)
	case cell.RelayTruncate:
		c.handleTruncate()
	case cell.RelayBegin:
		c.handleBegin(rc)
	case cell.RelayEnd:
		c.closeStream(rc.Stream)
	case cell.RelaySendme:
		c.handleSendme(rc.Stream)
	default:
		// RelayDrop is padding at the circuit layer; nothing else is
		// addressed to a relay. Discard.
	}
	cell.PutBuf(rc.Data)
}

// sendBackward seals and layers a relay cell from this hop toward the
// client.
func (c *circuit) sendBackward(rc cell.RelayCell) error {
	c.bwdMu.Lock()
	defer c.bwdMu.Unlock()
	out := &c.bwd
	if err := rc.MarshalPayloadInto(&out.Payload); err != nil {
		return err
	}
	out.Circ, out.Cmd = c.prevID, cell.Relay
	c.hop.SealBackward(&out.Payload)
	c.hop.CryptBackward(&out.Payload)
	return c.prevCS.lk.Send(out)
}

// relayBackward adds this hop's layer to a cell that arrived from the next
// relay as (oc, cl.Circ) and passes it toward the client, reusing cl. The
// slot is checked under bwdMu — the lock TRUNCATED is sent under — because
// the onward read loop resolved cl's circuit before getting here: a cell
// that lost that race to a TRUNCATE belongs to the dropped tail and is
// discarded, so nothing from a dropped hop ever follows TRUNCATED.
func (c *circuit) relayBackward(oc *outConn, cl *cell.Cell) error {
	c.bwdMu.Lock()
	defer c.bwdMu.Unlock()
	c.mu.Lock()
	live := c.next == oc && c.nextID == cl.Circ
	c.mu.Unlock()
	if !live {
		return nil
	}
	c.hop.CryptBackward(&cl.Payload)
	cl.Circ = c.prevID
	return c.prevCS.lk.Send(cl)
}

func (c *circuit) handleExtend(rc cell.RelayCell) {
	addr, onionskin, err := cell.DecodeExtend(rc.Data)
	if err != nil {
		c.extendFailed(fmt.Sprintf("bad extend: %v", err))
		return
	}
	if addr == c.r.cfg.Addr {
		// A node cannot appear on a circuit twice (§3.1): refuse to extend
		// to ourselves.
		c.extendFailed("refusing to extend to self")
		return
	}
	if c.r.Draining() {
		// The circuit survived Drain's sweep (racing CREATE); refuse to
		// grow it any further.
		c.extendFailed("relay draining")
		return
	}
	c.mu.Lock()
	if c.next != nil || c.awaitingCreated {
		c.mu.Unlock()
		c.extendFailed("circuit already extended")
		return
	}
	c.mu.Unlock()

	oc, err := c.r.getOutConn(addr)
	if err != nil {
		c.extendFailed(err.Error())
		return
	}
	nextID, err := oc.register(c)
	if err != nil {
		c.extendFailed(err.Error())
		return
	}
	c.mu.Lock()
	if c.destroyed {
		c.mu.Unlock()
		oc.unregister(nextID)
		return
	}
	c.next = oc
	c.nextID = nextID
	c.awaitingCreated = true
	c.extendTimer = time.AfterFunc(extendTimeout, func() { c.extendTimedOut(nextID) })
	c.mu.Unlock()

	if err := link.SendControl(oc.lk, nextID, cell.Create, onionskin); err != nil {
		c.detachNext()
		c.extendFailed(fmt.Sprintf("create to %s: %v", addr, err))
	}
}

// handleTruncate cuts the circuit back to this hop (RELAY_TRUNCATE): the
// onward slot — established or still awaiting CREATED — is freed, DESTROY
// tears down the rest of the old path, and TRUNCATED tells the client this
// hop is the last again and may be extended afresh. Streams exiting here
// are untouched. Freeing the slot comes first: once TRUNCATED is on the
// (FIFO) backward link, no cell of the dropped tail can follow it.
func (c *circuit) handleTruncate() {
	if oc, id := c.detachNext(); oc != nil {
		oc.sendDestroy(id)
	}
	c.r.tm.truncates.Inc()
	if err := c.sendBackward(cell.RelayCell{Cmd: cell.RelayTruncated}); err != nil {
		c.destroy(false, true)
	}
}

// handleCreated completes a pending extend: the next relay answered on
// (oc, id), so forward its handshake reply to the client as RELAY_EXTENDED.
// A CREATED for a slot a TRUNCATE or timeout has since freed is ignored.
func (c *circuit) handleCreated(oc *outConn, id cell.CircID, p *[cell.PayloadLen]byte) {
	c.mu.Lock()
	if !c.awaitingCreated || c.destroyed || c.next != oc || c.nextID != id {
		c.mu.Unlock()
		return
	}
	c.awaitingCreated = false
	if c.extendTimer != nil {
		c.extendTimer.Stop()
		c.extendTimer = nil
	}
	c.mu.Unlock()

	if err := c.sendBackward(cell.RelayCell{
		Cmd:  cell.RelayExtended,
		Data: p[:onion.ReplyLen],
	}); err != nil {
		c.destroy(false, true)
	}
}

// extendTimedOut fires when no CREATED arrived in time.
func (c *circuit) extendTimedOut(nextID cell.CircID) {
	c.mu.Lock()
	if !c.awaitingCreated || c.destroyed || c.nextID != nextID {
		c.mu.Unlock()
		return
	}
	oc, _ := c.detachNextLocked()
	c.mu.Unlock()
	if oc != nil {
		oc.unregister(nextID)
	}
	c.extendFailed("timeout waiting for next relay")
}

// detachNext forgets the onward slot, whether established or still
// awaiting CREATED, and frees its ID on the shared connection: from here on
// a cell arriving for that ID is for an unknown circuit. It returns the
// freed slot (nil if the circuit ended here).
func (c *circuit) detachNext() (*outConn, cell.CircID) {
	c.mu.Lock()
	oc, id := c.detachNextLocked()
	c.mu.Unlock()
	if oc != nil {
		oc.unregister(id)
	}
	return oc, id
}

// detachNextLocked clears the onward state under c.mu and returns the slot
// the caller must unregister once it has let go of the lock.
func (c *circuit) detachNextLocked() (*outConn, cell.CircID) {
	oc, id := c.next, c.nextID
	if c.extendTimer != nil {
		c.extendTimer.Stop()
		c.extendTimer = nil
	}
	c.next = nil
	c.nextID = 0
	c.awaitingCreated = false
	return oc, id
}

func (c *circuit) extendFailed(reason string) {
	_ = c.sendBackward(cell.RelayCell{Cmd: cell.RelayEnd, Stream: 0, Data: []byte(reason)})
}

// exitStream is one open exit-side stream: the destination connection and
// this end's half of the stream's flow control. flow's credit paces
// destination→client DATA; its queue holds client→destination data for the
// stream's writer goroutine, so the circuit's read loop never blocks on
// destination I/O (no head-of-line blocking across circuits).
type exitStream struct {
	conn io.ReadWriteCloser
	flow link.Flow
}

// close releases both stream goroutines. Whoever takes the stream out of
// c.streams calls it.
func (st *exitStream) close() {
	st.flow.Close()
	st.conn.Close()
}

func (c *circuit) handleBegin(rc cell.RelayCell) {
	target := string(rc.Data)
	if c.r.cfg.ExitDialer == nil {
		c.streamEnd(rc.Stream, "not an exit relay")
		return
	}
	if c.r.cfg.ExitPolicy != nil && !c.r.cfg.ExitPolicy(target) {
		c.streamEnd(rc.Stream, "exit policy refused "+target)
		return
	}
	conn, err := c.r.cfg.ExitDialer.DialStream(target)
	if err != nil {
		c.streamEnd(rc.Stream, fmt.Sprintf("connect to %s: %v", target, err))
		return
	}
	st := &exitStream{conn: conn}
	st.flow.Init()
	c.mu.Lock()
	if c.destroyed {
		c.mu.Unlock()
		conn.Close()
		return
	}
	if _, dup := c.streams[rc.Stream]; dup {
		c.mu.Unlock()
		conn.Close()
		c.streamEnd(rc.Stream, "stream id in use")
		return
	}
	c.streams[rc.Stream] = st
	c.mu.Unlock()
	c.r.stats.StreamsOpened.Add(1)
	c.r.tm.streamsOpened.Inc()

	if err := c.sendBackward(cell.RelayCell{Cmd: cell.RelayConnected, Stream: rc.Stream}); err != nil {
		c.closeStream(rc.Stream)
		return
	}
	c.r.wg.Add(2)
	go func() {
		defer c.r.wg.Done()
		c.streamReadLoop(rc.Stream, st)
	}()
	go func() {
		defer c.r.wg.Done()
		c.streamWriteLoop(rc.Stream, st)
	}()
}

// streamWriteLoop drains queued client data into the destination and
// acknowledges consumption with SENDMEs — only after the data has actually
// been written, which is what makes the window an end-to-end bound.
func (c *circuit) streamWriteLoop(id cell.StreamID, st *exitStream) {
	for {
		data, sendme, err := st.flow.Take()
		if err != nil {
			return
		}
		_, err = st.conn.Write(data)
		// The queue transferred ownership to this loop; once the bytes
		// are in the destination socket the buffer can go home.
		cell.PutBuf(data)
		if err != nil {
			c.endStream(id, st, "write: "+err.Error())
			return
		}
		if sendme {
			if err := c.sendBackward(cell.RelayCell{Cmd: cell.RelaySendme, Stream: id}); err != nil {
				return
			}
		}
	}
}

// streamReadLoop pumps destination→client data as RELAY_DATA cells,
// pausing whenever the flow-control window is exhausted.
func (c *circuit) streamReadLoop(id cell.StreamID, st *exitStream) {
	buf := cell.GetBuf()[:cell.RelayDataLen]
	defer cell.PutBuf(buf)
	for {
		// One cell of credit per DATA cell we are about to emit.
		if st.flow.Acquire() != nil {
			return
		}
		n, err := st.conn.Read(buf)
		if n > 0 {
			// Returning data pays the forwarding delay too: each relay on
			// the round trip contributes 2F, the exit included (Eq. 1).
			c.r.forwardDelay()
			// sendBackward marshals the data into the circuit's scratch cell
			// before it returns, so buf is free for the next Read.
			if c.sendBackward(cell.RelayCell{Cmd: cell.RelayData, Stream: id, Data: buf[:n]}) != nil {
				c.closeStream(id)
				return
			}
		}
		if err != nil {
			c.endStream(id, st, "eof")
			return
		}
	}
}

// handleData queues a DATA cell's buffer for the stream's writer, which
// owns it from then on; a buffer nobody queued goes back to the pool.
func (c *circuit) handleData(rc cell.RelayCell) {
	c.mu.Lock()
	st := c.streams[rc.Stream]
	c.mu.Unlock()
	if st == nil {
		cell.PutBuf(rc.Data)
		c.streamEnd(rc.Stream, "no such stream")
		return
	}
	if !st.flow.Deliver(rc.Data) {
		// More unacknowledged cells than the window permits: the peer is
		// violating flow control.
		cell.PutBuf(rc.Data)
		c.endStream(rc.Stream, st, "flow control violation")
	}
}

// handleSendme refills the exit-side window for one stream.
func (c *circuit) handleSendme(id cell.StreamID) {
	c.mu.Lock()
	st := c.streams[id]
	c.mu.Unlock()
	if st != nil {
		st.flow.Refill()
	}
}

// endStream ends st from this side — END with the reason, then the close —
// unless someone has closed it already.
func (c *circuit) endStream(id cell.StreamID, st *exitStream, reason string) {
	c.mu.Lock()
	open := c.streams[id] == st
	c.mu.Unlock()
	if open {
		c.streamEnd(id, reason)
		c.closeStream(id)
	}
}

func (c *circuit) streamEnd(id cell.StreamID, reason string) {
	_ = c.sendBackward(cell.RelayCell{Cmd: cell.RelayEnd, Stream: id, Data: []byte(reason)})
}

func (c *circuit) closeStream(id cell.StreamID) {
	c.mu.Lock()
	st := c.streams[id]
	delete(c.streams, id)
	c.mu.Unlock()
	if st != nil {
		st.close()
	}
}

// destroy tears the circuit down, optionally notifying each side. The
// shared onward connection survives; only this circuit's slot is freed.
func (c *circuit) destroy(notifyPrev, notifyNext bool) {
	c.mu.Lock()
	if c.destroyed {
		c.mu.Unlock()
		return
	}
	c.destroyed = true
	c.r.tm.circuitsDestroyed.Inc()
	if c.extendTimer != nil {
		c.extendTimer.Stop()
		c.extendTimer = nil
	}
	next, nextID := c.next, c.nextID
	streams := c.streams
	c.streams = make(map[cell.StreamID]*exitStream)
	c.mu.Unlock()

	c.prevCS.remove(c.prevID)
	for _, st := range streams {
		st.close()
	}
	if notifyPrev {
		_ = link.SendControl(c.prevCS.lk, c.prevID, cell.Destroy, nil)
	}
	if next != nil {
		next.unregister(nextID)
		if notifyNext {
			next.sendDestroy(nextID)
		}
	}
}
