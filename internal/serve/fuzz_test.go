package serve

import (
	"encoding/binary"
	"testing"
)

// FuzzBinaryHandle feeds the frame handler arbitrary (op, body) pairs — the
// bytes serveConn hands it straight off a socket — against a published
// snapshot and against none. Whatever arrives, the reply is well formed:
// op|0x80, a known status, and either exactly the body its op defines or a
// length-prefixed message and nothing else; it never outgrows maxFrame and
// nothing panics.
func FuzzBinaryHandle(f *testing.F) {
	pub := NewPublisher(nil)
	m := testMatrix(f, 5)
	if err := m.SetPredicted("relay01", "relay04", 55.5, 0.8); err != nil {
		f.Fatal(err)
	}
	snap, err := pub.Publish(m)
	if err != nil {
		f.Fatal(err)
	}
	served := NewBinaryServer(pub, nil)
	unpublished := NewBinaryServer(NewPublisher(nil), nil)
	namesLen := 0
	for _, name := range m.Names() {
		namesLen += 2 + len(name)
	}

	byName := appendString16(appendString16(nil, "relay00"), "relay03")
	byIndex := []byte{0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 4, 0, 0, 0, 2}
	f.Add(byte(opEpoch), []byte(nil))
	f.Add(byte(opNames), []byte(nil))
	f.Add(byte(opRTTEx), byName)
	f.Add(byte(opRTTBatchEx), byIndex)
	f.Add(byte(0x03), byName)  // retired ops, with the bodies they took
	f.Add(byte(0x04), byIndex) //
	f.Add(byte(opRTTEx), appendString16(appendString16(nil, "relay00"), "nope"))
	f.Add(byte(opRTTBatchEx), []byte{0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 5}) // index out of range
	f.Add(byte(opRTTBatchEx), []byte{0xff, 0xff, 0xff, 0xff})             // count far past MaxBatch

	f.Fuzz(func(t *testing.T, op byte, body []byte) {
		if len(body) >= maxFrame {
			return // serveConn drops the connection before handle sees it
		}
		if out := unpublished.handle(op, body, nil); len(out) < 2 || out[0] != op|respFlag || out[1] != statusNoEpoch {
			t.Fatalf("op 0x%02x with no epoch: reply % x", op, out)
		}
		out := served.handle(op, body, nil)
		if len(out) < 2 || len(out) > maxFrame || out[0] != op|respFlag {
			t.Fatalf("op 0x%02x: %d-byte reply starting % x", op, len(out), out[:min(len(out), 2)])
		}
		switch out[1] {
		case statusOK:
			var want int
			switch op {
			case opEpoch:
				want = 8 + 4 + 2 + len(snap.ETag())
			case opNames:
				want = 8 + 4 + namesLen
			case opRTTEx:
				want = 8 + 10
			case opRTTBatchEx:
				want = 8 + 10*int(binary.BigEndian.Uint32(body))
			default:
				t.Fatalf("op 0x%02x is not in the table but answered ok", op)
			}
			if len(out)-2 != want {
				t.Fatalf("op 0x%02x: ok body of %d bytes, want %d", op, len(out)-2, want)
			}
		case statusUnknownRelay, statusBadRequest, statusOutOfRange:
			if _, rest, ok := readString16(out[2:]); !ok || len(rest) != 0 {
				t.Fatalf("op 0x%02x status %d: malformed message % x", op, out[1], out[2:])
			}
		default:
			t.Fatalf("op 0x%02x: unknown status %d", op, out[1])
		}
	})
}
