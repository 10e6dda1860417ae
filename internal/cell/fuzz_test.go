package cell

import (
	"bytes"
	"testing"
)

// Native fuzz targets for the wire-format parsers. `go test` runs the seed
// corpus; `go test -fuzz=FuzzUnmarshal ./internal/cell` explores further.

func FuzzUnmarshal(f *testing.F) {
	good := Cell{Circ: 7, Cmd: Relay}
	seed := make([]byte, Size)
	good.MarshalInto(seed)
	f.Add(seed)
	f.Add(make([]byte, Size))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Cell
		if err := UnmarshalInto(&c, data); err != nil {
			return
		}
		// Round trip: re-marshaling a decoded cell reproduces the first
		// Size bytes of the input.
		var again [Size]byte
		c.MarshalInto(again[:])
		if !bytes.Equal(again[:], data[:Size]) {
			t.Fatalf("round trip diverged")
		}
	})
}

func FuzzUnmarshalPayload(f *testing.F) {
	rc := RelayCell{Cmd: RelayData, Stream: 3, Data: []byte("seed")}
	p, _ := rc.MarshalPayload()
	f.Add(p[:])
	f.Add(make([]byte, PayloadLen))
	for _, cmd := range []RelayCommand{RelayTruncate, RelayTruncated} {
		ctl := RelayCell{Cmd: cmd}
		p, _ := ctl.MarshalPayload()
		f.Add(p[:])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < PayloadLen {
			return
		}
		var p [PayloadLen]byte
		copy(p[:], data)
		rc, err := UnmarshalPayload(&p)
		if err != nil {
			return
		}
		// Decoded cells always re-encode.
		p2, err := rc.MarshalPayload()
		if err != nil {
			t.Fatalf("decoded cell does not re-encode: %v", err)
		}
		rc2, err := UnmarshalPayload(&p2)
		if err != nil {
			t.Fatalf("re-encoded cell does not decode: %v", err)
		}
		if rc2.Cmd != rc.Cmd || rc2.Stream != rc.Stream || !bytes.Equal(rc2.Data, rc.Data) {
			t.Fatal("relay cell round trip diverged")
		}
	})
}

func FuzzDecodeExtend(f *testing.F) {
	seed, _ := EncodeExtend("relay7", bytes.Repeat([]byte{9}, 32))
	f.Add(seed)
	f.Add([]byte{0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		addr, skin, err := DecodeExtend(data)
		if err != nil {
			return
		}
		if addr == "" {
			t.Fatal("decoder returned empty address without error")
		}
		re, err := EncodeExtend(addr, skin)
		if err != nil {
			// Oversized fields cannot come from a valid envelope.
			t.Fatalf("decoded extend does not re-encode: %v", err)
		}
		addr2, skin2, err := DecodeExtend(re)
		if err != nil || addr2 != addr || !bytes.Equal(skin2, skin) {
			t.Fatal("extend round trip diverged")
		}
	})
}
