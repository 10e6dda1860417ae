package ting

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestGoldenCheckpoint pins the checkpoint's bytes: the records below, the
// scan's form with pair records by index, write testdata/v2.ckpt. The
// parent-format file stays as a reader test: parent-format.ckpt (the same
// log, written when pair records named their relays) and a log that switches
// from that form to this one part-way replay to the same state as v2.ckpt.
func TestGoldenCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	cp, err := OpenFileCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []CheckpointRecord{
		{Kind: RecordCampaign, Names: []string{"x", "y", "u"}, Epoch: 3, Fps: map[string]string{"x": "fpx", "y": "fpy"}},
		{Kind: RecordShard, Shard: "t0-0.p0-3", Lease: 7, Worker: "w1"},
		{Kind: RecordHalf, Path: []string{"w", "x"}, Samples: 200, Min: 41.25},
		{Kind: RecordPair, I: 0, J: 1, RTT: 73},
		{Kind: RecordChurn, Op: ChurnOpRotate, Relay: "y", Fp: "fpy2", Epoch: 4},
		{Kind: RecordPair, I: 0, J: 2, RTT: 51.5},
	} {
		if err := cp.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/v2.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("checkpoint bytes moved:\n%s\nwant:\n%s", got, want)
	}
	st, err := ReplayState(cp)
	if err != nil {
		t.Fatalf("v2 checkpoint does not replay: %v", err)
	}
	if st.Records != 6 || replayedPairs(st) != 2 || len(st.Halves) != 1 || st.Fps["y"] != "fpy2" {
		t.Fatalf("replayed state: %+v", st)
	}
	if v, _ := replayed(st, "u", "x"); v != 51.5 {
		t.Fatalf("replayed (x,u) = %v, want 51.5", v)
	}
	if recs := logRecords(t, cp); recs[1].Shard != "t0-0.p0-3" || recs[1].Lease != 7 || recs[4].Epoch != 4 {
		t.Fatalf("replayed shard %+v and churn %+v", recs[1], recs[4])
	}

	parent, err := os.ReadFile("testdata/parent-format.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	lines := func(b []byte) [][]byte { return bytes.SplitAfter(b, []byte("\n")) }
	mixed := bytes.Join(append(lines(parent)[:4:4], lines(want)[4:]...), nil)
	for name, log := range map[string][]byte{"parent-format.ckpt": parent, "mixed": mixed} {
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		other, err := ReplayState(cp)
		if err != nil {
			t.Fatalf("%s does not replay: %v", name, err)
		}
		if d := stateDiff(st, other); d != "" {
			t.Fatalf("%s replays to another state than v2.ckpt: %s", name, d)
		}
	}
}

// stateDiff describes how two replayed states differ, "" when they do not:
// their matrices by encoded bytes, the rest field by field.
func stateDiff(a, b *CheckpointState) string {
	enc := func(st *CheckpointState) []byte {
		var buf bytes.Buffer
		if st.Matrix != nil {
			if err := st.Matrix.Encode(&buf); err != nil {
				return []byte(err.Error())
			}
		}
		return buf.Bytes()
	}
	switch {
	case !bytes.Equal(enc(a), enc(b)):
		return "matrices differ"
	case !reflect.DeepEqual(a.Names, b.Names), !reflect.DeepEqual(a.Halves, b.Halves),
		a.Records != b.Records, !reflect.DeepEqual(a.Fps, b.Fps):
		return fmt.Sprintf("names %v halves %+v records %d fps %v, against %v %+v %d %v",
			a.Names, a.Halves, a.Records, a.Fps, b.Names, b.Halves, b.Records, b.Fps)
	}
	return ""
}

// TestCheckpointHeaderOverOneMiB: a campaign header past the old reader's
// 1 MiB line cap — 9 000 fingerprint-named relays with their onion-key
// fingerprints — must replay from the log that accepted it.
func TestCheckpointHeaderOverOneMiB(t *testing.T) {
	names := make([]string, 9000)
	fps := make(map[string]string, len(names))
	for i := range names {
		names[i] = fmt.Sprintf("$%040X", i)
		fps[names[i]] = fmt.Sprintf("%064x", i)
	}
	path := filepath.Join(t.TempDir(), "big.ckpt")
	cp, err := OpenFileCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	if err := cp.Append(CheckpointRecord{Kind: RecordCampaign, Names: names, Fps: fps}); err != nil {
		t.Fatal(err)
	}
	if err := cp.Append(CheckpointRecord{Kind: RecordPair, X: names[0], Y: names[1], RTT: 5}); err != nil {
		t.Fatal(err)
	}
	if err := cp.Flush(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() <= 1<<20 {
		t.Fatalf("log is %d bytes (%v), want over 1 MiB", fi.Size(), err)
	}
	st, err := ReplayState(cp)
	if err != nil {
		t.Fatalf("replay refused the header the log accepted: %v", err)
	}
	if len(st.Names) != len(names) || len(st.Fps) != len(names) || replayedPairs(st) != 1 {
		t.Fatalf("replayed %d names, %d fingerprints, %d pairs", len(st.Names), len(st.Fps), replayedPairs(st))
	}
}
