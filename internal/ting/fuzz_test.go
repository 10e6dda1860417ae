package ting

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"

	"ting/internal/wal"
)

func FuzzDecodeMatrix(f *testing.F) {
	m, _ := NewMatrix([]string{"a", "b", "c"})
	m.Set("a", "b", 10)
	m.Set("a", "c", 20.5)
	m.Set("b", "c", 30)
	var buf bytes.Buffer
	m.Encode(&buf)
	f.Add(buf.String())
	f.Add(buf.String()[:buf.Len()-1]) // cut inside the end record
	m.SetProv("a", "b", ProvResumed)
	m.SetProv("a", "c", ProvRemoved)
	m.SetPredicted("b", "c", 31.5, 0.73)
	buf.Reset()
	m.Encode(&buf)
	f.Add(buf.String())
	if golden, err := os.ReadFile("testdata/matrix-v2.ting"); err == nil {
		f.Add(string(golden))
	}
	f.Add("tingmatrix/2 n=2\n")
	f.Add("tingmatrix/2 n=70000\n")
	f.Add("")
	// The older text form, valid and not, which no longer decodes.
	f.Add("tingmatrix n=2\na b\n0 1\n1 0\n")
	f.Add("tingmatrix n=9999999\n")
	f.Add("tingmatrix n=2\na b\n0 NaN\nNaN 0\n")          // non-finite cells
	f.Add("tingmatrix n=2\na b\n0 +Inf\n-Inf 0\n")        // non-finite cells
	f.Add("tingmatrix n=2\na b\n0 1\n")                   // truncated rows
	f.Add("tingmatrix n=3\na b\n0 1\n1 0\n")              // dimension/name mismatch
	f.Add("tingmatrix n=2\na b\n0 1\n1 0\ntrailing junk") // data after the rows
	f.Add("tingmatrix n=2\na b\n0 1\n2 0\n")              // (1,0) differs from (0,1)
	f.Add("tingmatrix n=3\na b c\n0 0 5\n0 0 0\n0 0 0\n") // (2,0) is zero, (0,2) is not
	f.Add("tingmatrix n=3\na b c\n0 5 0\n5 0 -1\n0 -1 0\npred 0 1 200\n")
	f.Fuzz(func(t *testing.T, doc string) {
		got, err := DecodeMatrix(strings.NewReader(doc))
		if err != nil {
			return
		}
		// Anything decodable re-encodes to its own bytes, since only the
		// canonical form decodes, and decodes to identical cells: value,
		// provenance and confidence.
		var out bytes.Buffer
		if err := got.Encode(&out); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if out.String() != doc {
			t.Fatalf("document re-encodes to other bytes (%d vs %d)", out.Len(), len(doc))
		}
		again, err := DecodeMatrix(&out)
		if err != nil {
			t.Fatalf("canonical matrix does not decode: %v", err)
		}
		if again.N() != got.N() {
			t.Fatal("size changed across round trip")
		}
		for i := 0; i < got.N(); i++ {
			for j := 0; j < got.N(); j++ {
				if a, b := got.At(i, j), again.At(i, j); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("cell (%d,%d) changed: %v → %v", i, j, a, b)
				}
				if got.ProvAt(i, j) != again.ProvAt(i, j) || got.ConfAt(i, j) != again.ConfAt(i, j) {
					t.Fatalf("cell (%d,%d) provenance changed: %v at %v → %v at %v", i, j,
						got.ProvAt(i, j), got.ConfAt(i, j), again.ProvAt(i, j), again.ConfAt(i, j))
				}
			}
		}
	})
}

// FuzzReplayCheckpoint: arbitrary bytes fed to the campaign-log replayer
// must never panic, and whatever it accepts must also survive ReplayState's
// stricter aggregation path without crashing.
func FuzzReplayCheckpoint(f *testing.F) {
	f.Add(`{"t":"campaign","names":["a","b"]}` + "\n" +
		`{"t":"pair","x":"a","y":"b","rtt":73}` + "\n" +
		`{"t":"half","path":["w","a"],"n":200,"min":41}` + "\n")
	f.Add(`{"t":"pair","x":"a","y":`) // torn tail
	f.Add("not json\n{\"t\":\"pair\"}\n")
	f.Add(`{"t":"campaign","names":["a"]}` + "\n")
	f.Add(`{"t":"pair","x":"a","y":"b","rtt":1e999}` + "\n")
	f.Add("\n\n")
	f.Fuzz(func(t *testing.T, doc string) {
		var recs []CheckpointRecord
		err := wal.Replay(strings.NewReader(doc), func(rec CheckpointRecord) error {
			recs = append(recs, rec)
			return nil
		})
		if err != nil {
			return
		}
		// Replayable logs aggregate without panicking; errors are fine
		// (ReplayState enforces semantic validity on top of syntax).
		cp := &MemCheckpoint{}
		for _, rec := range recs {
			cp.Append(rec)
		}
		if st, err := ReplayState(cp); err == nil && st.Records != len(recs) {
			t.Fatalf("aggregated %d records from %d replayed", st.Records, len(recs))
		}
	})
}
