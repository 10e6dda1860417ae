package serve

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"time"

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
// op's body. The epoch leads every ok body, so a client interleaving
// requests across an epoch swap can always tell which snapshot answered —
// the wire-level analogue of the HTTP ETag.
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
)

// BinaryServer serves the binary protocol over a listener, answering every
// request from the publisher's current snapshot.
type BinaryServer struct {
	pub     *Publisher
	timeout time.Duration // connTimeout; tests shorten it

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
		lookups: reg.Counter("serve.lookups"),
		conns:   reg.Counter("serve.bin.conns"),
		binMs:   reg.Histogram("serve.bin_ms"),
	}
}

// Serve accepts connections until ctx is cancelled or the listener fails.
// Each connection gets one goroutine; per-connection errors (malformed
// frames, hangups) close that connection only.
func (s *BinaryServer) Serve(ctx context.Context, ln net.Listener) error {
	go func() {
		<-ctx.Done()
		ln.Close()
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
		go func() {
			defer conn.Close()
			s.serveConn(conn)
		}()
	}
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
		return appendCell(out, m, i, j)

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
		n := uint32(m.N())
		// Validate the whole batch before emitting any cells: a response is
		// either complete or an error, never a prefix.
		for k := uint32(0); k < count; k++ {
			i := binary.BigEndian.Uint32(body[k*8:])
			j := binary.BigEndian.Uint32(body[k*8+4:])
			if i >= n || j >= n {
				return appendErr(out, op, statusOutOfRange,
					fmt.Sprintf("index (%d,%d) outside %d relays", i, j, n))
			}
		}
		s.lookups.Add(int64(count))
		out = append(out, op|respFlag, statusOK)
		out = binary.BigEndian.AppendUint64(out, snap.epoch)
		for k := uint32(0); k < count; k++ {
			i := int(binary.BigEndian.Uint32(body[k*8:]))
			j := int(binary.BigEndian.Uint32(body[k*8+4:]))
			out = appendCell(out, m, i, j)
		}
		return out

	default:
		return appendErr(out, op, statusBadRequest, fmt.Sprintf("unknown op 0x%02x", op))
	}
}

// appendCell appends the wire form of cell (i, j): f64 rttMs | u8 prov |
// u8 conf.
func appendCell(out []byte, m *ting.Matrix, i, j int) []byte {
	out = binary.BigEndian.AppendUint64(out, math.Float64bits(m.At(i, j)))
	return append(out, byte(m.ProvAt(i, j)), confByte(m.ConfAt(i, j)))
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

// confByte quantizes a [0,1] confidence to the wire's u8, saturating.
func confByte(c float64) byte {
	if c <= 0 {
		return 0
	}
	if c >= 1 {
		return 255
	}
	return byte(c*255 + 0.5)
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
	default:
		return fmt.Sprintf("status %d", status)
	}
}
