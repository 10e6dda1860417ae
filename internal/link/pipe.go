package link

import (
	"fmt"
	"sync"

	"ting/internal/cell"
)

// pipeHalf is one end of an in-process Link pair. The two directions are
// queues of pointers to pooled cells, so an idle pipe costs two small
// channels rather than capacity × 512 bytes up front: Send copies the
// caller's cell into a pooled one, Recv copies it out and recycles it.
type pipeHalf struct {
	peerAddr string
	in       chan *cell.Cell
	out      chan *cell.Cell

	closeOnce sync.Once
	closed    chan struct{}
	// peerClosed is the other half's closed channel; Recv fails once the
	// peer is gone and the buffer drains.
	peerClosed chan struct{}
}

// Pipe returns a connected pair of in-process Links with the given buffer
// capacity per direction. It is the zero-latency building block the
// in-process network uses; wrap with Delayed for long-haul paths.
func Pipe(capacity int, addrA, addrB string) (Link, Link) {
	if capacity <= 0 {
		capacity = 256
	}
	ab := make(chan *cell.Cell, capacity)
	ba := make(chan *cell.Cell, capacity)
	a := &pipeHalf{peerAddr: addrB, in: ba, out: ab, closed: make(chan struct{})}
	b := &pipeHalf{peerAddr: addrA, in: ab, out: ba, closed: make(chan struct{})}
	a.peerClosed = b.closed
	b.peerClosed = a.closed
	return a, b
}

// pipeCells recycles the cells in flight on every pipe.
var pipeCells = sync.Pool{New: func() any { return new(cell.Cell) }}

// take copies a queued cell out to the caller and recycles it.
func take(dst, queued *cell.Cell) {
	*dst = *queued
	pipeCells.Put(queued)
}

func (p *pipeHalf) Send(c *cell.Cell) error {
	// Check our own closure first: a buffered out channel could otherwise
	// win the select below even after Close.
	select {
	case <-p.closed:
		return ErrClosed
	default:
	}
	q := pipeCells.Get().(*cell.Cell)
	*q = *c
	select {
	case <-p.closed:
		pipeCells.Put(q)
		return ErrClosed
	case <-p.peerClosed:
		pipeCells.Put(q)
		return fmt.Errorf("link: peer %s closed", p.peerAddr)
	case p.out <- q:
		return nil
	}
}

// SendBatch implements BatchSender over the channel transport.
func (p *pipeHalf) SendBatch(cs []cell.Cell) error {
	for i := range cs {
		if err := p.Send(&cs[i]); err != nil {
			return err
		}
	}
	return nil
}

func (p *pipeHalf) Recv(c *cell.Cell) error {
	select {
	case <-p.closed:
		return ErrClosed
	case q := <-p.in:
		take(c, q)
		return nil
	case <-p.peerClosed:
		// Drain anything already buffered before reporting closure.
		select {
		case q := <-p.in:
			take(c, q)
			return nil
		default:
			return fmt.Errorf("link: peer %s closed", p.peerAddr)
		}
	}
}

// RecvBatch implements BatchRecver: one blocking receive, then a
// non-blocking drain of whatever the peer has already queued.
func (p *pipeHalf) RecvBatch(cs []cell.Cell) (int, error) {
	if len(cs) == 0 {
		return 0, nil
	}
	if err := p.Recv(&cs[0]); err != nil {
		return 0, err
	}
	n := 1
	for n < len(cs) {
		select {
		case q := <-p.in:
			take(&cs[n], q)
			n++
		default:
			return n, nil
		}
	}
	return n, nil
}

func (p *pipeHalf) Close() error {
	p.closeOnce.Do(func() { close(p.closed) })
	return nil
}

func (p *pipeHalf) RemoteAddr() string { return p.peerAddr }
