package serve

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"

	"ting/internal/ting"
)

// BinClient speaks the binary protocol over one connection. It is NOT safe
// for concurrent use — the protocol is strictly request/response per
// connection, and the load generator's answer to that is one client per
// goroutine, not a lock.
type BinClient struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer

	// scratch buffers reused across calls so the steady-state request path
	// does not allocate.
	req  []byte
	resp []byte
}

// DialBinary connects to a binary protocol server.
func DialBinary(addr string) (*BinClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewBinClient(conn), nil
}

// NewBinClient wraps an established connection (any net.Conn, which is what
// lets tests run the protocol over net.Pipe).
func NewBinClient(conn net.Conn) *BinClient {
	return &BinClient{
		conn: conn,
		r:    bufio.NewReaderSize(conn, 64<<10),
		w:    bufio.NewWriterSize(conn, 64<<10),
	}
}

// Close closes the connection.
func (c *BinClient) Close() error { return c.conn.Close() }

// roundTrip sends one frame (op + c.req) and reads the response body into
// c.resp, verifying the op echo and returning the payload past the status
// byte. Wire errors are returned as *StatusError.
func (c *BinClient) roundTrip(op byte) ([]byte, error) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(1+len(c.req)))
	if _, err := c.w.Write(hdr[:]); err != nil {
		return nil, err
	}
	if err := c.w.WriteByte(op); err != nil {
		return nil, err
	}
	if _, err := c.w.Write(c.req); err != nil {
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		return nil, err
	}
	length := binary.BigEndian.Uint32(hdr[:])
	if length < 2 || length > maxFrame {
		return nil, fmt.Errorf("serve: response frame length %d", length)
	}
	if cap(c.resp) < int(length) {
		c.resp = make([]byte, length)
	}
	c.resp = c.resp[:length]
	if _, err := io.ReadFull(c.r, c.resp); err != nil {
		return nil, err
	}
	if c.resp[0] != op|respFlag {
		return nil, fmt.Errorf("serve: response op 0x%02x for request 0x%02x", c.resp[0], op)
	}
	if status := c.resp[1]; status != statusOK {
		msg, _, _ := readString16(c.resp[2:])
		return nil, &StatusError{Status: status, Msg: msg}
	}
	return c.resp[2:], nil
}

// StatusError is a non-ok wire status from the server.
type StatusError struct {
	Status byte
	Msg    string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("serve: %s: %s", statusText(e.Status), e.Msg)
}

// EpochInfo is the epoch op's answer.
type EpochInfo struct {
	Epoch  uint64
	Relays int
	ETag   string
}

// Epoch queries the current epoch's metadata.
func (c *BinClient) Epoch() (EpochInfo, error) {
	c.req = c.req[:0]
	body, err := c.roundTrip(opEpoch)
	if err != nil {
		return EpochInfo{}, err
	}
	if len(body) < 12 {
		return EpochInfo{}, fmt.Errorf("serve: short epoch body (%d bytes)", len(body))
	}
	info := EpochInfo{
		Epoch:  binary.BigEndian.Uint64(body),
		Relays: int(binary.BigEndian.Uint32(body[8:])),
	}
	etag, _, ok := readString16(body[12:])
	if !ok {
		return EpochInfo{}, fmt.Errorf("serve: truncated etag")
	}
	info.ETag = etag
	return info, nil
}

// Names fetches the relay name table, index-aligned with RTTBatchEx indices,
// plus the epoch it belongs to.
func (c *BinClient) Names() (uint64, []string, error) {
	c.req = c.req[:0]
	body, err := c.roundTrip(opNames)
	if err != nil {
		return 0, nil, err
	}
	if len(body) < 12 {
		return 0, nil, fmt.Errorf("serve: short names body (%d bytes)", len(body))
	}
	epoch := binary.BigEndian.Uint64(body)
	count := binary.BigEndian.Uint32(body[8:])
	rest := body[12:]
	names := make([]string, 0, count)
	for k := uint32(0); k < count; k++ {
		var name string
		var ok bool
		name, rest, ok = readString16(rest)
		if !ok {
			return 0, nil, fmt.Errorf("serve: truncated name %d/%d", k, count)
		}
		names = append(names, name)
	}
	return epoch, names, nil
}

// RTTEx looks up one pair by name (op 0x05). Confidence is 1 for measured
// cells, the embedding's score for predicted ones, 0 for missing.
func (c *BinClient) RTTEx(x, y string) (epoch uint64, rttMs float64, prov ting.Provenance, conf float64, err error) {
	c.req = appendString16(c.req[:0], x)
	c.req = appendString16(c.req, y)
	body, err := c.roundTrip(opRTTEx)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if len(body) != 18 {
		return 0, 0, 0, 0, fmt.Errorf("serve: rttEx body %d bytes", len(body))
	}
	return binary.BigEndian.Uint64(body),
		math.Float64frombits(binary.BigEndian.Uint64(body[8:])),
		ting.Provenance(body[16]),
		float64(body[17]) / 255, nil
}

// BatchCellEx is one answer of an RTTBatchEx call: the cell's value,
// provenance, and confidence in [0, 1].
type BatchCellEx struct {
	RTTms float64
	Prov  ting.Provenance
	Conf  float64
}

// RTTBatchEx looks up count pairs by index in one round trip (op 0x06).
// pairs is flat (i0, j0, i1, j1, …); out is reused when it has capacity,
// so a steady-state caller allocates nothing. Returns the answering epoch.
func (c *BinClient) RTTBatchEx(pairs []uint32, out []BatchCellEx) (uint64, []BatchCellEx, error) {
	if len(pairs)%2 != 0 {
		return 0, out, fmt.Errorf("serve: odd pair-index count %d", len(pairs))
	}
	count := len(pairs) / 2
	if count == 0 || count > MaxBatch {
		return 0, out, fmt.Errorf("serve: batch count %d outside [1,%d]", count, MaxBatch)
	}
	c.req = binary.BigEndian.AppendUint32(c.req[:0], uint32(count))
	for _, v := range pairs {
		c.req = binary.BigEndian.AppendUint32(c.req, v)
	}
	body, err := c.roundTrip(opRTTBatchEx)
	if err != nil {
		return 0, out, err
	}
	want := 8 + count*10
	if len(body) != want {
		return 0, out, fmt.Errorf("serve: batchEx body %d bytes, want %d", len(body), want)
	}
	epoch := binary.BigEndian.Uint64(body)
	body = body[8:]
	if cap(out) < count {
		out = make([]BatchCellEx, count)
	}
	out = out[:count]
	for k := 0; k < count; k++ {
		out[k] = BatchCellEx{
			RTTms: math.Float64frombits(binary.BigEndian.Uint64(body[k*10:])),
			Prov:  ting.Provenance(body[k*10+8]),
			Conf:  float64(body[k*10+9]) / 255,
		}
	}
	return epoch, out, nil
}
