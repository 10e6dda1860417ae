package serve

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"ting/internal/netutil"
	"ting/internal/telemetry"
	"ting/internal/ting"
)

// The binary query protocol. HTTP/JSON is the integration surface; this is
// the lookup surface — the one the 10⁵+ lookups/sec load target is met on.
// It avoids per-request allocation, header parsing, and JSON encoding, and
// its batch op amortizes one round trip over thousands of cells.
//
// Framing (all integers big-endian):
//
//	request:  u32 length | u8 op    | body       (length covers op + body)
//	response: u32 length | u8 op|0x80 | u8 status | body
//
// Ops:
//
//	0x01 epoch      → u64 epoch | u32 n | u16 etagLen | etag bytes
//	0x02 names      → u64 epoch | u32 count | count × (u16 len | bytes)
//	0x05 rttEx      u16 xLen | x | u16 yLen | y
//	                → u64 epoch | f64 rttMs | u8 prov | u8 conf (0..255 = 0..1)
//	0x06 rttBatchEx u32 count | count × (u32 i | u32 j)
//	                → u64 epoch | count × (f64 rttMs | u8 prov | u8 conf)
//
// Statuses: 0 ok; non-ok responses carry u16 msgLen | msg instead of the
// op's body. Status 5 (overloaded) is the one answer a connection over the
// server's limit gets, whatever it asked, before it is closed. The epoch
// leads every ok body, so a client interleaving requests across an epoch
// swap can always tell which snapshot answered — the wire-level analogue of
// the HTTP ETag.
//
// A cell has one wire shape: value, provenance, confidence. The protocol is
// versioned by its op space: incompatible revisions take new op codes, and
// unknown ops fail closed with statusBadRequest. 0x03 and 0x04 are retired
// and must not be reassigned.

const (
	opEpoch      = 0x01
	opNames      = 0x02
	opRTTEx      = 0x05
	opRTTBatchEx = 0x06

	respFlag = 0x80

	statusOK           = 0
	statusNoEpoch      = 1
	statusUnknownRelay = 2
	statusBadRequest   = 3
	statusOutOfRange   = 4
	statusOverloaded   = 5

	// maxFrame bounds both request and response frames. Names of a 5000-relay
	// consensus fit comfortably; a hostile 4GB length prefix does not.
	maxFrame = 1 << 20

	// MaxBatch is the largest rttBatchEx count accepted in one frame.
	MaxBatch = 4096

	// connTimeout bounds how long a connection may go without finishing a
	// request, and how long a peer may take to drain a reply: one that
	// stalls mid-frame, idles, or stops reading is closed instead of
	// pinning a goroutine and two 64 KiB buffers forever. The deadline is
	// re-armed at most once per half timeout, so a client is always allowed
	// at least connTimeout/2 of silence.
	connTimeout = 2 * time.Minute

	// connLimit is how many connections one Serve call answers at a time.
	// One over the limit gets statusOverloaded for its first request and is
	// closed within refuseTimeout, so it costs a goroutine and a few hundred
	// bytes for at most that long instead of a serveConn's two 64 KiB
	// buffers for connTimeout.
	connLimit     = netutil.MaxConns
	refuseTimeout = time.Second

	// gatherChunk is how many cells a batch lookup reads from the matrix
	// before encoding them: enough for the core to overlap the cells' cache
	// misses, small enough that the chunk's indices and cells (1.5 KiB) live
	// on handle's stack.
	gatherChunk = 64
)

// binBuckets are serve.bin_ms's upper bounds, in milliseconds: powers of
// two from 1 µs to 65 ms. The handler runs for about a microsecond on a
// single lookup and some tens on a full batch, all of which the registry's
// default bounds (from 0.5 ms) would put in their first bucket.
var binBuckets = []float64{
	0.001, 0.002, 0.004, 0.008, 0.016, 0.032, 0.064, 0.128, 0.256, 0.512,
	1.024, 2.048, 4.096, 8.192, 16.384, 32.768, 65.536,
}

// BinaryServer serves the binary protocol over a listener, answering every
// request from the publisher's current snapshot.
type BinaryServer struct {
	pub     *Publisher
	timeout time.Duration // connTimeout; tests shorten it
	limit   int           // connLimit; tests shorten it

	lookups *telemetry.Counter
	conns   *telemetry.Counter
	binMs   *telemetry.Histogram
}

// NewBinaryServer creates a binary protocol server reporting into reg
// (nil = no-op metrics).
func NewBinaryServer(pub *Publisher, reg *telemetry.Registry) *BinaryServer {
	return &BinaryServer{
		pub:     pub,
		timeout: connTimeout,
		limit:   connLimit,
		lookups: reg.Counter("serve.lookups"),
		conns:   reg.Counter("serve.bin.conns"),
		binMs:   reg.HistogramBuckets("serve.bin_ms", binBuckets),
	}
}

// Serve accepts connections until ctx is cancelled or the listener fails,
// then closes every connection it accepted and returns once their
// goroutines have exited: nothing Serve started outlives it. Each connection
// gets one goroutine; per-connection errors (malformed frames, hangups)
// close that connection only. At most s.limit connections are served at a
// time; one accepted beyond that is refused with statusOverloaded.
func (s *BinaryServer) Serve(ctx context.Context, ln net.Listener) error {
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		live    = make(map[net.Conn]struct{}) // every open connection, refused ones too
		serving int                           // those counted against s.limit
	)
	returned := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case <-ctx.Done():
		case <-returned:
		}
		ln.Close()
	}()
	defer func() {
		close(returned)
		// Accept has failed and only this goroutine adds to live, so these
		// are all the connections there will be.
		mu.Lock()
		for conn := range live {
			conn.Close()
		}
		mu.Unlock()
		wg.Wait()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		s.conns.Inc()
		mu.Lock()
		live[conn] = struct{}{}
		admit := serving < s.limit
		if admit {
			serving++
		}
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if admit {
				s.serveConn(conn)
			} else {
				s.refuseConn(conn)
			}
			conn.Close()
			mu.Lock()
			delete(live, conn)
			if admit {
				serving--
			}
			mu.Unlock()
		}()
	}
}

// refuseConn answers the first request of a connection over the limit with
// statusOverloaded, all under one short deadline. The request is read to
// its end first: closing a socket with unread bytes resets it, and a reset
// can overtake the reply.
func (s *BinaryServer) refuseConn(conn net.Conn) {
	// SetDeadline fails only on a closed connection; the read says so.
	_ = conn.SetDeadline(time.Now().Add(min(refuseTimeout, s.timeout)))
	var hdr [5]byte // u32 length | u8 op
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return
	}
	length := binary.BigEndian.Uint32(hdr[:])
	if length < 1 || length > maxFrame {
		return
	}
	if _, err := io.CopyN(io.Discard, conn, int64(length)-1); err != nil {
		return
	}
	resp := appendErr(make([]byte, 4, 64), hdr[4], statusOverloaded,
		fmt.Sprintf("serving %d connections already", s.limit))
	binary.BigEndian.PutUint32(resp, uint32(len(resp)-4))
	// The connection is closed next whether or not the reply got out.
	_, _ = conn.Write(resp)
}

// serveConn runs the request loop. Responses are flushed only when no
// request bytes are already buffered — a client streaming a pipeline of
// requests gets its responses coalesced into large writes for free, while
// a ping-pong client still sees every response immediately.
//
// One deadline covers reads and writes. It is pushed out from the
// timestamp each request already takes for serve.bin_ms, and only once
// half of it has run down, so the hot path reads no extra clock and
// touches the poller a few times a minute.
func (s *BinaryServer) serveConn(conn net.Conn) {
	r := bufio.NewReaderSize(conn, 64<<10)
	w := bufio.NewWriterSize(conn, 64<<10)
	var req, resp []byte
	armed := time.Now()
	// SetDeadline fails only on a closed connection; the next read says so.
	_ = conn.SetDeadline(armed.Add(s.timeout))
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return
		}
		length := binary.BigEndian.Uint32(hdr[:])
		if length < 1 || length > maxFrame {
			return
		}
		if cap(req) < int(length) {
			req = make([]byte, length)
		}
		req = req[:length]
		if _, err := io.ReadFull(r, req); err != nil {
			return
		}
		start := time.Now()
		if start.Sub(armed) > s.timeout/2 {
			armed = start
			_ = conn.SetDeadline(armed.Add(s.timeout))
		}
		resp = s.handle(req[0], req[1:], resp[:0])
		s.binMs.Observe(float64(time.Since(start)) / float64(time.Millisecond))
		var rhdr [4]byte
		binary.BigEndian.PutUint32(rhdr[:], uint32(len(resp)))
		if _, err := w.Write(rhdr[:]); err != nil {
			return
		}
		if _, err := w.Write(resp); err != nil {
			return
		}
		if r.Buffered() == 0 {
			if err := w.Flush(); err != nil {
				return
			}
		}
	}
}

// handle dispatches one request and appends the response frame body
// (op|0x80, status, payload) to out.
func (s *BinaryServer) handle(op byte, body, out []byte) []byte {
	snap := s.pub.Current()
	if snap == nil {
		return appendErr(out, op, statusNoEpoch, "no epoch published yet")
	}
	m := snap.m
	switch op {
	case opEpoch:
		out = append(out, op|respFlag, statusOK)
		out = binary.BigEndian.AppendUint64(out, snap.epoch)
		out = binary.BigEndian.AppendUint32(out, uint32(m.N()))
		out = appendString16(out, snap.etag)
		return out

	case opNames:
		names := m.Names()
		out = append(out, op|respFlag, statusOK)
		out = binary.BigEndian.AppendUint64(out, snap.epoch)
		out = binary.BigEndian.AppendUint32(out, uint32(len(names)))
		for _, name := range names {
			out = appendString16(out, name)
		}
		return out

	case opRTTEx:
		x, rest, ok := readString16(body)
		if !ok {
			return appendErr(out, op, statusBadRequest, "truncated x name")
		}
		y, rest, ok := readString16(rest)
		if !ok || len(rest) != 0 {
			return appendErr(out, op, statusBadRequest, "truncated y name")
		}
		i, ok := m.Index(x)
		if !ok {
			return appendErr(out, op, statusUnknownRelay, "unknown relay "+x)
		}
		j, ok := m.Index(y)
		if !ok {
			return appendErr(out, op, statusUnknownRelay, "unknown relay "+y)
		}
		s.lookups.Inc()
		out = append(out, op|respFlag, statusOK)
		out = binary.BigEndian.AppendUint64(out, snap.epoch)
		var c [1]ting.Cell
		m.Gather([]uint32{uint32(i), uint32(j)}, c[:])
		return appendCell(out, c[0])

	case opRTTBatchEx:
		if len(body) < 4 {
			return appendErr(out, op, statusBadRequest, "truncated batch count")
		}
		count := binary.BigEndian.Uint32(body)
		if count == 0 || count > MaxBatch {
			return appendErr(out, op, statusBadRequest,
				fmt.Sprintf("batch count %d outside [1,%d]", count, MaxBatch))
		}
		body = body[4:]
		if len(body) != int(count)*8 {
			return appendErr(out, op, statusBadRequest, "batch body length mismatch")
		}
		// Gather a chunk of cells, then encode it: the matrix reads of a chunk
		// overlap (see ting.Matrix.Gather) instead of each waiting behind the
		// encoding of the cell before. Gather checks ranges as it goes, so a
		// bad index can turn up after cells were appended: the reply is cut
		// back to mark, because a response is either complete or an error,
		// never a prefix.
		mark := len(out)
		out = append(out, op|respFlag, statusOK)
		out = binary.BigEndian.AppendUint64(out, snap.epoch)
		var (
			idx   [2 * gatherChunk]uint32
			cells [gatherChunk]ting.Cell
		)
		for len(body) > 0 {
			k := min(len(body)/8, gatherChunk)
			for c := 0; c < 2*k; c++ {
				idx[c] = binary.BigEndian.Uint32(body[4*c:])
			}
			if bad := m.Gather(idx[:2*k], cells[:k]); bad < k {
				return appendErr(out[:mark], op, statusOutOfRange,
					fmt.Sprintf("index (%d,%d) outside %d relays", idx[2*bad], idx[2*bad+1], m.N()))
			}
			for _, c := range cells[:k] {
				out = appendCell(out, c)
			}
			body = body[8*k:]
		}
		s.lookups.Add(int64(count))
		return out

	default:
		return appendErr(out, op, statusBadRequest, fmt.Sprintf("unknown op 0x%02x", op))
	}
}

// appendCell appends the wire form of a cell: f64 rttMs | u8 prov | u8
// conf. The matrix stores confidence in the wire's own 1/255 steps, so the
// byte goes out as gathered.
func appendCell(out []byte, c ting.Cell) []byte {
	out = binary.BigEndian.AppendUint64(out, math.Float64bits(c.RTT))
	return append(out, byte(c.Prov), c.Conf)
}

func appendErr(out []byte, op byte, status byte, msg string) []byte {
	out = append(out, op|respFlag, status)
	return appendString16(out, msg)
}

func appendString16(out []byte, s string) []byte {
	if len(s) > 0xffff {
		s = s[:0xffff]
	}
	out = binary.BigEndian.AppendUint16(out, uint16(len(s)))
	return append(out, s...)
}

func readString16(b []byte) (s string, rest []byte, ok bool) {
	if len(b) < 2 {
		return "", nil, false
	}
	n := int(binary.BigEndian.Uint16(b))
	if len(b) < 2+n {
		return "", nil, false
	}
	return string(b[2 : 2+n]), b[2+n:], true
}

// statusText names a wire status for client error messages.
func statusText(status byte) string {
	switch status {
	case statusOK:
		return "ok"
	case statusNoEpoch:
		return "no epoch"
	case statusUnknownRelay:
		return "unknown relay"
	case statusBadRequest:
		return "bad request"
	case statusOutOfRange:
		return "index out of range"
	case statusOverloaded:
		return "overloaded"
	default:
		return fmt.Sprintf("status %d", status)
	}
}
