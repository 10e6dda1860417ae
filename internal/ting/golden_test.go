package ting

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenCheckpoint pins the checkpoint's bytes: the records below, the
// scan's form with pair records by index, write testdata/v2.ckpt. The
// parent-format file stays as a refusal row: parent-format.ckpt (the same
// log, written when pair records named their relays) and a log that switches
// from this form to that one part-way are refused with the form named.
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

	// The named form is refused, never misread: the parent-format log, and a
	// log that switches to it part-way, each fail at their first named pair
	// record and replay to no state at all.
	parent, err := os.ReadFile("testdata/parent-format.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	lines := func(b []byte) [][]byte { return bytes.SplitAfter(b, []byte("\n")) }
	mixed := bytes.Join(append(lines(want)[:4:4], lines(parent)[4:]...), nil)
	for _, tc := range []struct {
		name string
		log  []byte
		want string
	}{
		{"parent-format.ckpt", parent, `line 4: ting: checkpoint: pair record ("x","y") is in the named form`},
		{"mixed", mixed, `line 6: ting: checkpoint: pair record ("x","u") is in the named form`},
	} {
		if err := os.WriteFile(path, tc.log, 0o644); err != nil {
			t.Fatal(err)
		}
		other, err := ReplayState(cp)
		if err == nil || !strings.Contains(err.Error(), tc.want) || other != nil {
			t.Fatalf("%s replays to %+v, %v; want no state and a refusal saying %q", tc.name, other, err, tc.want)
		}
	}
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
	if err := cp.Append(CheckpointRecord{Kind: RecordPair, J: 1, RTT: 5}); err != nil {
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
