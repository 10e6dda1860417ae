package directory

import (
	"strings"
	"testing"
)

func FuzzParseLine(f *testing.F) {
	f.Add("relay nick addr " + strings.Repeat("ab", 32) + " 100.0 exit")
	f.Add("relay nick addr " + strings.Repeat("cd", 32) + " 0.0 noexit")
	f.Add("")
	f.Add("relay")
	f.Fuzz(func(t *testing.T, line string) {
		d, err := ParseLine(line)
		if err != nil {
			return
		}
		// Anything the parser accepts must validate and round-trip.
		if err := d.Validate(); err != nil {
			t.Fatalf("parsed descriptor fails validation: %v", err)
		}
		got, err := ParseLine(d.Line())
		if err != nil {
			t.Fatalf("canonical line does not re-parse: %v", err)
		}
		if got.Nickname != d.Nickname || got.Addr != d.Addr || got.OnionKey != d.OnionKey || got.Exit != d.Exit {
			t.Fatal("line round trip diverged")
		}
	})
}

func FuzzDecodeConsensus(f *testing.F) {
	f.Add("consensus relays=0 epoch=0\nend\n")
	f.Add("consensus relays=1 epoch=7\nrelay n a " + strings.Repeat("ab", 32) + " 1.0 exit\nend\n")
	f.Add("consensus relays=0\nend\n") // the retired epoch-free header
	f.Add("garbage")
	f.Fuzz(func(t *testing.T, doc string) {
		reg, err := DecodeConsensus(strings.NewReader(doc))
		if err != nil {
			return
		}
		// A decodable consensus re-encodes and re-decodes to the same size.
		var sb strings.Builder
		if err := reg.EncodeConsensus(&sb); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := DecodeConsensus(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("canonical consensus does not decode: %v", err)
		}
		if again.Len() != reg.Len() {
			t.Fatalf("relay count changed: %d → %d", reg.Len(), again.Len())
		}
	})
}
