package link

import (
	"io"
	"sync"

	"ting/internal/cell"
)

// Flow is one end's half of a stream's SENDME flow control; the exit relay
// and the client each hold one per stream, and the two halves are the same:
// the credit this end has left to send DATA cells, the inbound DATA it has
// received and not yet consumed, and the count of consumed cells toward the
// next acknowledgement.
//
// The inbound queue holds at most cell.StreamWindow chunks. That is all an
// honest peer can have outstanding, because a SENDME falls due only when a
// chunk leaves the queue: the window bounds what is buffered, not just what
// is in flight. The ring starts empty and grows with use, so a stream that
// only ever has one cell waiting pays for four slots.
//
// Take belongs to one goroutine at a time; the rest may be called from any.
type Flow struct {
	in    queue[[]byte]
	taken int // since a SENDME last fell due; Take's goroutine only

	mu       sync.Mutex
	refilled sync.Cond
	credit   int
	closed   bool
}

// Init readies f with a full window of credit and an empty queue.
func (f *Flow) Init() {
	f.in.init(cell.StreamWindow, 0)
	f.refilled.L = &f.mu
	f.credit = cell.StreamWindow
}

// Acquire takes the credit for one outbound DATA cell, blocking while the
// peer has a full window unacknowledged. It fails once the half is closed.
func (f *Flow) Acquire() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.credit == 0 && !f.closed {
		f.refilled.Wait()
	}
	if f.closed {
		return ErrClosed
	}
	f.credit--
	return nil
}

// Refill credits the SENDME the peer sent: cell.SendmeEvery more cells may
// go out. Credit beyond the window — a peer acknowledging what was never
// sent — is dropped.
func (f *Flow) Refill() {
	f.mu.Lock()
	f.credit = min(f.credit+cell.SendmeEvery, cell.StreamWindow)
	f.mu.Unlock()
	f.refilled.Broadcast()
}

// Deliver queues one inbound DATA chunk for Take. It never blocks: its
// caller is a circuit's read loop, which every stream on the circuit shares.
// False means the chunk was not queued — the half is closed, or the peer has
// a whole window waiting here already and is ignoring flow control, for
// which the caller ends the stream.
func (f *Flow) Deliver(chunk []byte) bool {
	return f.in.offer(&chunk) == nil
}

// Take blocks for the next delivered chunk; after Close it drains what is
// queued and then reports io.EOF. When sendme is true the caller owes the
// peer one SENDME, to be sent once it has consumed the chunk: that happens
// on every cell.SendmeEvery-th chunk taken.
func (f *Flow) Take() (chunk []byte, sendme bool, err error) {
	if err := f.in.take(&chunk); err != nil {
		return nil, false, err
	}
	f.taken++
	if f.taken == cell.SendmeEvery {
		f.taken, sendme = 0, true
	}
	return chunk, sendme, nil
}

// Close ends the half: Acquire and Deliver fail from here on, blocked or
// not, and Take reports io.EOF once it has drained the queue.
func (f *Flow) Close() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	f.refilled.Broadcast()
	f.in.closeSend(io.EOF)
}
