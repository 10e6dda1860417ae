package link

import (
	"fmt"

	"ting/internal/cell"
)

// pipeHalf is one end of an in-process Link pair: it sends into one timed
// queue and receives from the other. Send copies the caller's cell into the
// queue's ring, Recv copies it out; nothing runs in between.
type pipeHalf struct {
	peerAddr string
	ends[cell.Cell]
}

// Pipe returns a connected pair of in-process Links with the given buffer
// capacity per direction. It is the zero-latency building block the
// in-process network uses; pass a half to Delayed for a long-haul path.
func Pipe(capacity int, addrA, addrB string) (Link, Link) {
	if capacity <= 0 {
		capacity = 256
	}
	a, b := newEnds[cell.Cell](capacity, 0, 0)
	return &pipeHalf{peerAddr: addrB, ends: a}, &pipeHalf{peerAddr: addrA, ends: b}
}

func (p *pipeHalf) Send(c *cell.Cell) error { return p.err(p.out.put(c)) }

// Recv fails with ErrClosed once this half is closed; after the peer
// closes, it first drains what the peer had sent.
func (p *pipeHalf) Recv(c *cell.Cell) error { return p.err(p.in.take(c)) }

// Close ends both directions: the peer drains what was sent, then sees
// this half gone.
func (p *pipeHalf) Close() error {
	p.close()
	return nil
}

func (p *pipeHalf) RemoteAddr() string { return p.peerAddr }

// err names the peer in the queue's peer-closed report.
func (p *pipeHalf) err(err error) error {
	if err == errPeerClosed {
		return fmt.Errorf("link: peer %s closed", p.peerAddr)
	}
	return err
}
