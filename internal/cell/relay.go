package cell

import (
	"encoding/binary"
	"fmt"
)

// RelayCommand is the command of a relay sub-cell.
type RelayCommand byte

// Relay commands, numbered as in tor-spec. EXTEND/EXTENDED drive circuit
// construction and TRUNCATE/TRUNCATED cut a circuit back to one of its hops
// so it can be re-extended along another path; BEGIN / CONNECTED / DATA /
// END carry streams. Ting needs nothing more: its echo traffic is ordinary
// stream data.
const (
	RelayBegin     RelayCommand = 1
	RelayData      RelayCommand = 2
	RelayEnd       RelayCommand = 3
	RelayConnected RelayCommand = 4
	RelaySendme    RelayCommand = 5
	RelayExtend    RelayCommand = 6
	RelayExtended  RelayCommand = 7
	RelayTruncate  RelayCommand = 8
	RelayTruncated RelayCommand = 9
	RelayDrop      RelayCommand = 10
)

// String names the relay command.
func (rc RelayCommand) String() string {
	switch rc {
	case RelayBegin:
		return "BEGIN"
	case RelayData:
		return "DATA"
	case RelayEnd:
		return "END"
	case RelayConnected:
		return "CONNECTED"
	case RelaySendme:
		return "SENDME"
	case RelayExtend:
		return "EXTEND"
	case RelayExtended:
		return "EXTENDED"
	case RelayTruncate:
		return "TRUNCATE"
	case RelayTruncated:
		return "TRUNCATED"
	case RelayDrop:
		return "DROP"
	default:
		return fmt.Sprintf("RELAY(%d)", byte(rc))
	}
}

// Valid reports whether rc is a known relay command.
func (rc RelayCommand) Valid() bool {
	return rc >= RelayBegin && rc <= RelayDrop
}

// StreamID identifies a stream within a circuit. Stream 0 is reserved for
// circuit-level commands (EXTEND/EXTENDED).
type StreamID uint16

// RelayCell is the decrypted relay sub-header plus data. On the wire it
// occupies the full 507-byte cell payload, encrypted in onion layers.
type RelayCell struct {
	Cmd        RelayCommand
	Recognized uint16 // zero at the hop the cell is addressed to
	Stream     StreamID
	Digest     [4]byte // running-hash tag, see package onion
	Data       []byte  // at most RelayDataLen bytes
}

// MarshalPayload encodes rc into a full cell payload. The digest field is
// written as given; callers normally zero it, seal via onion.HopState, then
// re-marshal (the onion package provides helpers that operate in place).
func (rc *RelayCell) MarshalPayload() ([PayloadLen]byte, error) {
	var p [PayloadLen]byte
	err := rc.MarshalPayloadInto(&p)
	return p, err
}

// MarshalPayloadInto is MarshalPayload into a caller-owned payload, whose
// previous contents are overwritten whole (the tail past the data is
// zeroed). Send paths that keep one scratch cell per circuit use it to
// build outgoing cells without a 512-byte temporary.
func (rc *RelayCell) MarshalPayloadInto(p *[PayloadLen]byte) error {
	if len(rc.Data) > RelayDataLen {
		return fmt.Errorf("%w: %d bytes", ErrDataTooLong, len(rc.Data))
	}
	p[0] = byte(rc.Cmd)
	binary.BigEndian.PutUint16(p[1:3], rc.Recognized)
	binary.BigEndian.PutUint16(p[3:5], uint16(rc.Stream))
	copy(p[5:9], rc.Digest[:])
	binary.BigEndian.PutUint16(p[9:11], uint16(len(rc.Data)))
	n := copy(p[RelayHeaderLen:], rc.Data)
	clear(p[RelayHeaderLen+n:])
	return nil
}

// UnmarshalPayload decodes a relay cell from a decrypted cell payload.
// It fails if the recognized field is nonzero (the layer was not ours), the
// command is unknown, or the length field is inconsistent.
func UnmarshalPayload(p *[PayloadLen]byte) (RelayCell, error) {
	var rc RelayCell
	rc.Cmd = RelayCommand(p[0])
	rc.Recognized = binary.BigEndian.Uint16(p[1:3])
	rc.Stream = StreamID(binary.BigEndian.Uint16(p[3:5]))
	copy(rc.Digest[:], p[5:9])
	n := binary.BigEndian.Uint16(p[9:11])
	if rc.Recognized != 0 {
		return rc, fmt.Errorf("cell: relay cell not recognized (%d)", rc.Recognized)
	}
	if !rc.Cmd.Valid() {
		return rc, fmt.Errorf("cell: unknown relay command %d", p[0])
	}
	if int(n) > RelayDataLen {
		return rc, fmt.Errorf("cell: relay length %d exceeds %d", n, RelayDataLen)
	}
	// Pooled: the decrypted data is the overlay's hottest allocation. The
	// consumer that finishes with it (exit writer, client reader) returns
	// it via PutBuf; paths that retain it just let the GC have it.
	rc.Data = append(GetBuf(), p[RelayHeaderLen:RelayHeaderLen+int(n)]...)
	return rc, nil
}

// Recognized reports whether the recognized field of an (already decrypted)
// payload is zero, i.e. the relay cell may be addressed to this hop. The
// digest check in package onion gives the authoritative answer.
func PayloadRecognized(p *[PayloadLen]byte) bool {
	return p[1] == 0 && p[2] == 0
}

// ZeroDigest clears the digest field of a marshaled payload in place,
// returning the old value; used when computing or verifying digests.
func ZeroDigest(p *[PayloadLen]byte) [4]byte {
	var old [4]byte
	copy(old[:], p[5:9])
	p[5], p[6], p[7], p[8] = 0, 0, 0, 0
	return old
}

// SetDigest writes d into the digest field of a marshaled payload.
func SetDigest(p *[PayloadLen]byte, d [4]byte) {
	copy(p[5:9], d[:])
}
