// Package echo implements the measurement endpoints of §3.1: "an end-to-end
// echo client and server to allow us to collect RTT measurements through
// Tor circuits. While similar in spirit to ping … our application operates
// over TCP, and can thus be used over Tor."
//
// The server side is Handle, which echoes every byte back on one
// connection; the exit relay runs it on the far end of each stream it
// opens, so nothing listens. The client writes fixed-size probes carrying a
// sequence number and times the round trip. Both work over any
// io.ReadWriter, so the same client runs over a raw connection or over a
// circuit-attached stream.
package echo

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"ting/internal/cell"
)

// ProbeSize is the size of one echo probe: an 8-byte sequence number plus
// an 8-byte client timestamp (opaque to the server).
const ProbeSize = 16

// Handle echoes conn back to itself until EOF. It is the entire server
// logic — "an extremely minimal TCP-based echo server" (§4.1).
func Handle(conn io.ReadWriteCloser) {
	defer conn.Close()
	// One relay cell's worth, from the cell buffer pool: probes are
	// ProbeSize bytes, the 32 KiB io.Copy would allocate per connection
	// dwarfs a whole probe series, and a buffer handed to conn's methods
	// escapes to the heap wherever it is declared.
	buf := cell.GetBuf()
	defer cell.PutBuf(buf)
	_, _ = io.CopyBuffer(conn, conn, buf[:cap(buf)])
}

// Client sends echo probes over rw and measures round-trip times.
type Client struct {
	rw  io.ReadWriter
	seq uint64
	out [ProbeSize]byte
	in  [ProbeSize]byte
}

// NewClient creates an echo client over rw.
func NewClient(rw io.ReadWriter) *Client { return &Client{rw: rw} }

// Probe sends one probe and returns its round-trip time.
func (c *Client) Probe() (time.Duration, error) {
	c.seq++
	binary.BigEndian.PutUint64(c.out[0:8], c.seq)
	start := time.Now()
	binary.BigEndian.PutUint64(c.out[8:16], uint64(start.UnixNano()))
	if _, err := c.rw.Write(c.out[:]); err != nil {
		return 0, fmt.Errorf("echo: write probe: %w", err)
	}
	if _, err := io.ReadFull(c.rw, c.in[:]); err != nil {
		return 0, fmt.Errorf("echo: read probe: %w", err)
	}
	rtt := time.Since(start)
	if got := binary.BigEndian.Uint64(c.in[0:8]); got != c.seq {
		return 0, fmt.Errorf("echo: probe sequence %d, want %d", got, c.seq)
	}
	return rtt, nil
}

// ProbeN sends n probes back to back and returns every RTT.
func (c *Client) ProbeN(n int) ([]time.Duration, error) {
	out := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		rtt, err := c.Probe()
		if err != nil {
			return out, err
		}
		out = append(out, rtt)
	}
	return out, nil
}
