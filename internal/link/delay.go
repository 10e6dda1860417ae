package link

import (
	"sync"
	"time"

	"ting/internal/cell"
)

// Delayed gives a Link the given one-way delays: outbound cells arrive at
// the peer sendDelay later, and inbound cells are surfaced recvDelay after
// the peer sent them. Ordering is preserved in both directions, and cells
// in flight overlap: a burst arrives one delay later, not one delay apart.
// This is how the loopback overlay acquires the synthetic Internet's
// ground-truth latencies.
//
// The returned Link owns the inner link: closing it closes the inner link,
// once the cells already sent have reached it (see Link.Close).
//
// An in-process pipe half carries the delays itself — its two queues stamp
// each cell at the sender's clock — and is returned as is. Any other link
// (TCP) is wrapped: the receiving end of a socket cannot know when a cell
// was sent, and sleeping the delay after each Recv would space a burst one
// delay apart, so a pump goroutine per direction moves cells between the
// socket and a timed queue.
func Delayed(inner Link, sendDelay, recvDelay time.Duration) Link {
	if p, ok := inner.(*pipeHalf); ok {
		p.out.addDelay(sendDelay)
		p.in.addDelay(recvDelay)
		return p
	}
	d := &delayedLink{inner: inner}
	d.sendQ.init(queueCap, sendDelay)
	d.recvQ.init(queueCap, recvDelay)
	go d.sendPump()
	go d.recvPump()
	return d
}

// delayedLink is Delayed over a link that is not an in-process pipe. Send
// queues the cell, stamped, and sendPump passes it to the inner link when
// due; recvPump stamps what the inner link delivers and Recv waits it out.
type delayedLink struct {
	inner Link
	sendQ queue[cell.Cell]
	recvQ queue[cell.Cell]

	closeOnce sync.Once
}

func (d *delayedLink) Send(c *cell.Cell) error { return d.sendQ.put(c) }

// sendPump closes the inner link when it is done: after Close, once the
// queue has drained, or at once when the peer is gone.
func (d *delayedLink) sendPump() {
	defer d.inner.Close()
	var c cell.Cell
	for d.sendQ.take(&c) == nil {
		if d.inner.Send(&c) != nil {
			// The peer is gone: fail later Sends instead of queueing them.
			d.sendQ.closeRecv()
			return
		}
	}
}

// recvPump reads the inner link until it fails. After Close it still
// reads, dropping what it gets (put fails at once): while this end's send
// queue drains, the peer's own sends must not back up behind a socket
// nobody reads, or two ends closing under traffic could block each other.
func (d *delayedLink) recvPump() {
	var c cell.Cell
	for {
		if err := d.inner.Recv(&c); err != nil {
			d.recvQ.closeSend(err)
			return
		}
		_ = d.recvQ.put(&c)
	}
}

func (d *delayedLink) Recv(c *cell.Cell) error { return d.recvQ.take(c) }

// Close keeps the Link contract: Send and Recv fail from here on, and the
// cells already sent still go out, each when it is due, before sendPump
// closes the inner link. What the peer sent and this end had not yet
// received is dropped. A peer that stops reading holds the inner link open
// until it reads again or goes away.
func (d *delayedLink) Close() error {
	d.closeOnce.Do(func() {
		d.sendQ.closeSend(ErrClosed)
		d.recvQ.closeRecv()
	})
	return nil
}

func (d *delayedLink) RemoteAddr() string { return d.inner.RemoteAddr() }
