package client

import (
	"errors"
	"sync"

	"ting/internal/cell"
	"ting/internal/link"
)

// Stream is a byte stream attached to a circuit. It implements
// io.ReadWriteCloser; Ting's echo probes are ordinary Reads and Writes.
// Read and Write may run concurrently with each other and with Close; Read
// may not be called concurrently with itself.
type Stream struct {
	circ *Circuit
	id   cell.StreamID
	// hop is the circuit position the stream is attached to (Tor's
	// "leaky pipe": streams may exit from any hop, not just the last).
	hop int

	connected chan struct{}

	// flow is this end's half of the stream's flow control: the credit
	// Write spends, and the DATA the circuit's read loop has delivered and
	// Read has not yet taken.
	flow link.Flow
	// chunk is the pooled buffer a short Read took and did not finish, and
	// off how much of it has been read: the whole buffer goes back to the
	// pool once the last of it is read.
	chunk []byte
	off   int

	closeOnce sync.Once
	closedCh  chan struct{}
	reason    string // why the stream ended; set before closedCh closes, read after
}

func newStream(circ *Circuit, id cell.StreamID, hop int) *Stream {
	s := &Stream{
		circ:      circ,
		id:        id,
		hop:       hop,
		connected: make(chan struct{}),
		closedCh:  make(chan struct{}),
	}
	s.flow.Init()
	return s
}

// deliver handles an inbound relay cell for this stream. It is called from
// the circuit's read loop and so must not wait on the application. A DATA
// cell's pooled buffer passes to the flow queue and from there to Read;
// every other cell's goes back to the pool here.
func (s *Stream) deliver(rc cell.RelayCell) {
	if rc.Cmd == cell.RelayData {
		if !s.flow.Deliver(rc.Data) {
			// Not queued: the stream is closed, or the exit sent past a
			// whole unread window and is violating flow control. End this
			// stream, as the exit would; the circuit and its other streams
			// carry on.
			cell.PutBuf(rc.Data)
			s.end(true, "flow control violation")
		}
		return
	}
	defer cell.PutBuf(rc.Data)
	switch rc.Cmd {
	case cell.RelayConnected:
		select {
		case <-s.connected:
		default:
			close(s.connected)
		}
	case cell.RelaySendme:
		s.flow.Refill()
	case cell.RelayEnd:
		s.end(false, string(rc.Data))
	}
}

// Read returns data from the exit, blocking until some arrives or the
// stream closes. Taking a chunk out of the flow-control queue is what
// counts as consuming it: the SENDME that lets the exit send more goes out
// from here, not when the chunk arrived, so an application that stops
// reading stops the exit after one window.
func (s *Stream) Read(p []byte) (int, error) {
	if s.chunk == nil {
		chunk, sendme, err := s.flow.Take()
		if err != nil {
			return 0, err
		}
		if sendme {
			_ = s.circ.sendForward(s.hop, cell.RelayCell{Cmd: cell.RelaySendme, Stream: s.id})
		}
		s.chunk, s.off = chunk, 0
	}
	n := copy(p, s.chunk[s.off:])
	s.off += n
	if s.off == len(s.chunk) {
		// Fully consumed: this reader is the chunk's only owner, so it goes
		// back to the cell buffer pool.
		cell.PutBuf(s.chunk)
		s.chunk = nil
	}
	return n, nil
}

// Write sends data toward the destination, fragmenting into relay cells.
func (s *Stream) Write(p []byte) (int, error) {
	written := 0
	for len(p) > 0 {
		n := min(len(p), cell.RelayDataLen)
		// Flow control: one cell of credit per DATA cell.
		if s.flow.Acquire() != nil {
			return written, errors.New("client: write on closed stream")
		}
		if err := s.circ.sendForward(s.hop, cell.RelayCell{
			Cmd: cell.RelayData, Stream: s.id, Data: p[:n],
		}); err != nil {
			return written, err
		}
		written += n
		p = p[n:]
	}
	return written, nil
}

// Close ends the stream, telling the exit to drop its side.
func (s *Stream) Close() error { return s.end(true, "closed") }

// closeLocal closes without notifying the exit (it already knows, or the
// circuit is gone).
func (s *Stream) closeLocal() { _ = s.end(false, "closed") }

// end closes the stream once: a blocked Write fails, Read drains what was
// delivered and then reports io.EOF. notify sends the exit an END; reason
// is what a refused open reports.
func (s *Stream) end(notify bool, reason string) (err error) {
	s.closeOnce.Do(func() {
		s.reason = reason
		close(s.closedCh)
		s.flow.Close()
		if notify {
			err = s.circ.sendForward(s.hop, cell.RelayCell{Cmd: cell.RelayEnd, Stream: s.id})
		}
		s.circ.mu.Lock()
		delete(s.circ.streams, s.id)
		s.circ.mu.Unlock()
	})
	return err
}
