package cell

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestSizes(t *testing.T) {
	if HeaderLen+PayloadLen != Size {
		t.Error("header + payload != cell size")
	}
	if RelayHeaderLen+RelayDataLen != PayloadLen {
		t.Error("relay header + data != payload size")
	}
	if Size != 512 {
		t.Errorf("Size = %d, want 512", Size)
	}
}

func TestCellRoundTrip(t *testing.T) {
	c := Cell{Circ: 0xDEADBEEF, Cmd: Relay}
	for i := range c.Payload {
		c.Payload[i] = byte(i * 7)
	}
	buf := make([]byte, Size)
	if n := c.MarshalInto(buf); n != Size {
		t.Fatalf("marshal length %d", n)
	}
	var got Cell
	if err := UnmarshalInto(&got, buf); err != nil {
		t.Fatal(err)
	}
	if got.Circ != c.Circ || got.Cmd != c.Cmd || got.Payload != c.Payload {
		t.Error("round trip mismatch")
	}
}

func TestCellRoundTripProperty(t *testing.T) {
	f := func(circ uint32, cmdRaw byte, seed []byte) bool {
		c := Cell{Circ: CircID(circ), Cmd: Command(cmdRaw % 5)}
		copy(c.Payload[:], seed)
		var buf [Size]byte
		c.MarshalInto(buf[:])
		var got Cell
		return UnmarshalInto(&got, buf[:]) == nil && got == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMarshalInto(t *testing.T) {
	c := Cell{Circ: 7, Cmd: Create}
	buf := make([]byte, Size)
	if n := c.MarshalInto(buf); n != Size {
		t.Fatalf("MarshalInto returned %d", n)
	}
	want := append([]byte{0, 0, 0, 7, byte(Create)}, make([]byte, PayloadLen)...)
	if !bytes.Equal(buf, want) {
		t.Errorf("MarshalInto wrote % x…, want circuit 7, command, zero payload", buf[:HeaderLen+2])
	}
}

func TestCommandStrings(t *testing.T) {
	cases := map[Command]string{
		Padding: "PADDING", Create: "CREATE", Created: "CREATED",
		Relay: "RELAY", Destroy: "DESTROY", Command(42): "CMD(42)",
	}
	for cmd, want := range cases {
		if cmd.String() != want {
			t.Errorf("%d.String() = %q, want %q", cmd, cmd.String(), want)
		}
	}
	c := Cell{Circ: 3, Cmd: Relay}
	if !strings.Contains(c.String(), "circ=3") || !strings.Contains(c.String(), "RELAY") {
		t.Errorf("Cell.String() = %q", c.String())
	}
}

func TestRelayCellRoundTrip(t *testing.T) {
	rc := RelayCell{
		Cmd:    RelayData,
		Stream: 42,
		Digest: [4]byte{1, 2, 3, 4},
		Data:   []byte("ping payload with some bytes"),
	}
	p, err := rc.MarshalPayload()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalPayload(&p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmd != rc.Cmd || got.Stream != rc.Stream || got.Digest != rc.Digest {
		t.Errorf("header mismatch: %+v vs %+v", got, rc)
	}
	if !bytes.Equal(got.Data, rc.Data) {
		t.Error("data mismatch")
	}
}

func TestRelayCellRoundTripProperty(t *testing.T) {
	cmds := []RelayCommand{RelayBegin, RelayData, RelayEnd, RelayConnected, RelaySendme, RelayExtend, RelayExtended, RelayTruncate, RelayTruncated, RelayDrop}
	f := func(cmdIdx uint8, stream uint16, digest [4]byte, data []byte) bool {
		if len(data) > RelayDataLen {
			data = data[:RelayDataLen]
		}
		rc := RelayCell{
			Cmd:    cmds[int(cmdIdx)%len(cmds)],
			Stream: StreamID(stream),
			Digest: digest,
			Data:   data,
		}
		p, err := rc.MarshalPayload()
		if err != nil {
			return false
		}
		got, err := UnmarshalPayload(&p)
		if err != nil {
			return false
		}
		return got.Cmd == rc.Cmd && got.Stream == rc.Stream &&
			got.Digest == rc.Digest && bytes.Equal(got.Data, rc.Data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMarshalPayloadIntoOverwrites pins the scratch-cell contract: a
// payload reused across cells carries nothing over from the previous one.
func TestMarshalPayloadIntoOverwrites(t *testing.T) {
	var p [PayloadLen]byte
	for i := range p {
		p[i] = 0xEE
	}
	rc := RelayCell{Cmd: RelayTruncated, Stream: 0, Data: []byte("xy")}
	if err := rc.MarshalPayloadInto(&p); err != nil {
		t.Fatal(err)
	}
	want, err := rc.MarshalPayload()
	if err != nil {
		t.Fatal(err)
	}
	if p != want {
		t.Error("MarshalPayloadInto over a dirty payload differs from MarshalPayload")
	}
	big := RelayCell{Cmd: RelayData, Data: make([]byte, RelayDataLen+1)}
	if err := big.MarshalPayloadInto(&p); err == nil {
		t.Error("want error for oversized data")
	}
}

func TestRelayCellDataTooLong(t *testing.T) {
	rc := RelayCell{Cmd: RelayData, Data: make([]byte, RelayDataLen+1)}
	if _, err := rc.MarshalPayload(); err == nil {
		t.Error("want error for oversized data")
	}
}

func TestRelayCellMaxData(t *testing.T) {
	rc := RelayCell{Cmd: RelayData, Data: bytes.Repeat([]byte{0xAB}, RelayDataLen)}
	p, err := rc.MarshalPayload()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalPayload(&p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Data) != RelayDataLen {
		t.Errorf("data length %d, want %d", len(got.Data), RelayDataLen)
	}
}

func TestUnmarshalPayloadRejectsUnrecognized(t *testing.T) {
	rc := RelayCell{Cmd: RelayData, Recognized: 7}
	p, err := rc.MarshalPayload()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalPayload(&p); err == nil {
		t.Error("want error for nonzero recognized")
	}
	if PayloadRecognized(&p) {
		t.Error("PayloadRecognized should be false")
	}
}

func TestUnmarshalPayloadRejectsBadLength(t *testing.T) {
	rc := RelayCell{Cmd: RelayData, Data: []byte("x")}
	p, err := rc.MarshalPayload()
	if err != nil {
		t.Fatal(err)
	}
	p[9], p[10] = 0xFF, 0xFF // absurd length
	if _, err := UnmarshalPayload(&p); err == nil {
		t.Error("want error for bad length")
	}
}

func TestUnmarshalPayloadRejectsBadCommand(t *testing.T) {
	var p [PayloadLen]byte
	p[0] = 200
	if _, err := UnmarshalPayload(&p); err == nil {
		t.Error("want error for unknown relay command")
	}
}

func TestZeroAndSetDigest(t *testing.T) {
	rc := RelayCell{Cmd: RelayData, Digest: [4]byte{9, 8, 7, 6}, Data: []byte("d")}
	p, err := rc.MarshalPayload()
	if err != nil {
		t.Fatal(err)
	}
	old := ZeroDigest(&p)
	if old != rc.Digest {
		t.Errorf("ZeroDigest returned %v, want %v", old, rc.Digest)
	}
	got, err := UnmarshalPayload(&p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest != ([4]byte{}) {
		t.Error("digest not zeroed")
	}
	SetDigest(&p, [4]byte{1, 1, 2, 2})
	got, _ = UnmarshalPayload(&p)
	if got.Digest != ([4]byte{1, 1, 2, 2}) {
		t.Error("SetDigest did not take effect")
	}
}

func TestRelayCommandStrings(t *testing.T) {
	known := map[RelayCommand]string{
		RelayBegin: "BEGIN", RelayData: "DATA", RelayEnd: "END",
		RelayConnected: "CONNECTED", RelaySendme: "SENDME",
		RelayExtend: "EXTEND", RelayExtended: "EXTENDED",
		RelayTruncate: "TRUNCATE", RelayTruncated: "TRUNCATED",
		RelayDrop: "DROP",
	}
	for cmd, want := range known {
		if cmd.String() != want {
			t.Errorf("%v.String() = %q, want %q", byte(cmd), cmd.String(), want)
		}
		if !cmd.Valid() {
			t.Errorf("%v should be valid", want)
		}
	}
	if RelayTruncate != 8 || RelayTruncated != 9 {
		t.Error("TRUNCATE/TRUNCATED must keep tor-spec's numbers 8 and 9")
	}
	if RelayCommand(0).Valid() || RelayCommand(11).Valid() || RelayCommand(99).Valid() {
		t.Error("invalid relay commands reported valid")
	}
	if RelayCommand(99).String() != "RELAY(99)" {
		t.Error("unknown relay command formatting wrong")
	}
}

func TestExtendRoundTripProperty(t *testing.T) {
	f := func(addrRaw string, skin []byte) bool {
		addr := addrRaw
		if addr == "" {
			addr = "relay"
		}
		if len(addr) > 200 {
			addr = addr[:200]
		}
		if len(skin) > 200 {
			skin = skin[:200]
		}
		body, err := EncodeExtend(addr, skin)
		if err != nil {
			return false
		}
		gotAddr, gotSkin, err := DecodeExtend(body)
		if err != nil {
			return false
		}
		return gotAddr == addr && bytes.Equal(gotSkin, skin)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExtendErrors(t *testing.T) {
	if _, err := EncodeExtend("", nil); err == nil {
		t.Error("empty address accepted")
	}
	if _, err := EncodeExtend("addr", make([]byte, RelayDataLen)); err == nil {
		t.Error("oversized extend body accepted")
	}
	for _, bad := range [][]byte{nil, {0}, {0, 10, 'a'}, {0, 1, 'a', 0}, {0, 1, 'a', 0, 9, 1}} {
		if _, _, err := DecodeExtend(bad); err == nil {
			t.Errorf("DecodeExtend(%v) accepted", bad)
		}
	}
	// Zero-length address inside a well-formed envelope.
	body := []byte{0, 0, 0, 1, 'x'}
	if _, _, err := DecodeExtend(body); err == nil {
		t.Error("empty decoded address accepted")
	}
}

func TestUnmarshalInto(t *testing.T) {
	c := Cell{Circ: 0xCAFE, Cmd: Relay}
	for i := range c.Payload {
		c.Payload[i] = byte(i * 3)
	}
	buf := make([]byte, Size)
	c.MarshalInto(buf)

	// The destination may hold stale state from a previous receive; every
	// byte must be overwritten.
	dst := Cell{Circ: 0xFFFF, Cmd: Destroy}
	for i := range dst.Payload {
		dst.Payload[i] = 0xEE
	}
	if err := UnmarshalInto(&dst, buf); err != nil {
		t.Fatal(err)
	}
	if dst != c {
		t.Error("UnmarshalInto result differs from source cell")
	}
}

func TestUnmarshalIntoErrors(t *testing.T) {
	var dst Cell
	if err := UnmarshalInto(&dst, make([]byte, Size-1)); err == nil {
		t.Error("want error for short buffer")
	}
	bad := make([]byte, Size)
	bad[4] = 99 // unknown command
	if err := UnmarshalInto(&dst, bad); err == nil {
		t.Error("want error for unknown command")
	}
}
