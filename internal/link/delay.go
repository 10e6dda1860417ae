package link

import (
	"sync"
	"time"

	"ting/internal/cell"
)

// queueCap is how many cells (or byte chunks) a delayed link holds in
// flight per direction before Send blocks — the back-pressure a full pipe
// of a long-haul path exerts.
const queueCap = 1024

// Delayed wraps a Link so that cells experience the given one-way delays:
// outbound cells arrive at the peer sendDelay later, and inbound cells are
// surfaced recvDelay after the peer sent them. Ordering is preserved in
// both directions. This is how the loopback overlay acquires the synthetic
// Internet's ground-truth latencies.
//
// The returned Link owns the inner link: closing it closes the inner link.
func Delayed(inner Link, sendDelay, recvDelay time.Duration) Link {
	d := &delayedLink{
		inner:  inner,
		sendQ:  make(chan *timedCell, queueCap),
		recvQ:  make(chan *timedCell, queueCap),
		closed: make(chan struct{}),
	}
	d.sendDelay = sendDelay
	d.recvDelay = recvDelay
	go d.sendPump()
	go d.recvPump()
	return d
}

// timedCell is one queued cell (or, inbound, the receive error that ended
// the stream) and the instant it is due at the far end of the queue.
type timedCell struct {
	c   cell.Cell
	err error
	due time.Time
}

// timedCells recycles queue entries. The queues hold pointers, so an idle
// link costs two small channels instead of two thousand cell-sized slots;
// an entry is owned by whoever took it from the pool or the queue, and goes
// back once its cell has been copied onward.
var timedCells = sync.Pool{New: func() any { return new(timedCell) }}

type delayedLink struct {
	inner     Link
	sendDelay time.Duration
	recvDelay time.Duration

	sendQ chan *timedCell
	recvQ chan *timedCell

	closeOnce sync.Once
	closed    chan struct{}
}

func (d *delayedLink) Send(c *cell.Cell) error {
	select {
	case <-d.closed:
		return ErrClosed
	default:
	}
	tc := timedCells.Get().(*timedCell)
	tc.c, tc.err, tc.due = *c, nil, time.Now().Add(d.sendDelay)
	select {
	case <-d.closed:
		timedCells.Put(tc)
		return ErrClosed
	case d.sendQ <- tc:
		return nil
	}
}

func (d *delayedLink) sendPump() {
	for {
		select {
		case <-d.closed:
			return
		case tc := <-d.sendQ:
			sleepUntil(tc.due, d.closed)
			err := d.inner.Send(&tc.c)
			timedCells.Put(tc)
			if err != nil {
				// The peer is gone; nothing useful to do with the error
				// here — the caller will learn via Recv or the next Send
				// after close.
				return
			}
		}
	}
}

func (d *delayedLink) recvPump() {
	for {
		tc := timedCells.Get().(*timedCell)
		tc.err = d.inner.Recv(&tc.c)
		tc.due = time.Now().Add(d.recvDelay)
		failed := tc.err != nil // tc is the receiver's once queued
		select {
		case <-d.closed:
			timedCells.Put(tc)
			return
		case d.recvQ <- tc:
		}
		if failed {
			return
		}
	}
}

func (d *delayedLink) Recv(c *cell.Cell) error {
	select {
	case <-d.closed:
		return ErrClosed
	case tc := <-d.recvQ:
		if err := tc.err; err != nil {
			timedCells.Put(tc)
			return err
		}
		sleepUntil(tc.due, d.closed)
		*c = tc.c
		timedCells.Put(tc)
		return nil
	}
}

func (d *delayedLink) Close() error {
	var err error
	d.closeOnce.Do(func() {
		close(d.closed)
		err = d.inner.Close()
	})
	return err
}

func (d *delayedLink) RemoteAddr() string { return d.inner.RemoteAddr() }

// sleepUntil sleeps until t or until cancel closes, whichever is first.
func sleepUntil(t time.Time, cancel <-chan struct{}) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-cancel:
	}
}
