// Package cell implements the fixed-size cell wire format of the mintor
// onion-routing overlay, modeled on Tor's link protocol: every unit on a
// relay connection is exactly 512 bytes, so traffic analysis learns nothing
// from cell sizes, and relay cells carry an encrypted, integrity-protected
// sub-header addressed to exactly one hop of a circuit.
package cell

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Wire-format sizes.
const (
	// Size is the fixed size of every cell on the wire.
	Size = 512
	// HeaderLen is CircID (4) + Command (1).
	HeaderLen = 5
	// PayloadLen is the space available to the cell body.
	PayloadLen = Size - HeaderLen // 507

	// RelayHeaderLen is RelayCmd(1) + Recognized(2) + StreamID(2) +
	// Digest(4) + Length(2).
	RelayHeaderLen = 11
	// RelayDataLen is the maximum data bytes carried by one relay cell.
	RelayDataLen = PayloadLen - RelayHeaderLen // 496
)

// Stream flow control, Tor's figures. They are protocol constants, not
// options: an end that sent more than its peer's window allows would be cut
// off as a violator.
const (
	// StreamWindow is how many DATA cells one end of a stream may have sent
	// and not yet had acknowledged.
	StreamWindow = 500
	// SendmeEvery is how many consumed DATA cells earn the sender one SENDME,
	// which restores that many cells of its window.
	SendmeEvery = 50
)

// Command is a cell command.
type Command byte

// Cell commands, mirroring the subset of Tor's link protocol that circuit
// construction and data transfer require.
const (
	Padding Command = 0
	Create  Command = 1
	Created Command = 2
	Relay   Command = 3
	Destroy Command = 4
)

// String names the command.
func (c Command) String() string {
	switch c {
	case Padding:
		return "PADDING"
	case Create:
		return "CREATE"
	case Created:
		return "CREATED"
	case Relay:
		return "RELAY"
	case Destroy:
		return "DESTROY"
	default:
		return fmt.Sprintf("CMD(%d)", byte(c))
	}
}

// Valid reports whether c is a known command.
func (c Command) Valid() bool { return c <= Destroy }

// CircID identifies a circuit on a particular relay connection. Like Tor's,
// IDs are connection-scoped, not global.
type CircID uint32

// Cell is one fixed-size unit on a relay connection.
type Cell struct {
	Circ    CircID
	Cmd     Command
	Payload [PayloadLen]byte
}

// Errors returned by decoding.
var (
	ErrShortCell   = errors.New("cell: buffer shorter than cell size")
	ErrBadCommand  = errors.New("cell: unknown command")
	ErrDataTooLong = errors.New("cell: relay data exceeds capacity")
)

// MarshalInto encodes the cell into buf, which must be at least Size bytes.
// It returns the number of bytes written.
func (c *Cell) MarshalInto(buf []byte) int {
	_ = buf[Size-1] // bounds hint
	binary.BigEndian.PutUint32(buf[0:4], uint32(c.Circ))
	buf[4] = byte(c.Cmd)
	copy(buf[HeaderLen:Size], c.Payload[:])
	return Size
}

// UnmarshalInto decodes a cell from buf, which must hold at least Size
// bytes, into c, overwriting it in place. Receive loops that reuse one Cell
// per connection avoid copying the 512-byte value through every return;
// this is the decode counterpart of MarshalInto.
func UnmarshalInto(c *Cell, buf []byte) error {
	if len(buf) < Size {
		return fmt.Errorf("%w: %d bytes", ErrShortCell, len(buf))
	}
	c.Circ = CircID(binary.BigEndian.Uint32(buf[0:4]))
	c.Cmd = Command(buf[4])
	if !c.Cmd.Valid() {
		return fmt.Errorf("%w: %d", ErrBadCommand, buf[4])
	}
	copy(c.Payload[:], buf[HeaderLen:Size])
	return nil
}

// String renders a compact description for logs.
func (c *Cell) String() string {
	return fmt.Sprintf("cell{circ=%d cmd=%s}", c.Circ, c.Cmd)
}
