package ting

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenCheckpoint pins the checkpoint's bytes to the format the
// parent of internal/wal wrote (testdata/parent-format.ckpt, generated at
// that commit): the same records write the same file, and it replays.
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
		{Kind: RecordPair, X: "x", Y: "y", RTT: 73},
		{Kind: RecordChurn, Op: ChurnOpRotate, Relay: "y", Fp: "fpy2", Epoch: 4},
		{Kind: RecordPair, X: "x", Y: "u", RTT: 51.5},
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
	want, err := os.ReadFile("testdata/parent-format.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("checkpoint bytes moved:\n%s\nwant:\n%s", got, want)
	}
	st, err := ReplayState(cp)
	if err != nil {
		t.Fatalf("parent-format checkpoint does not replay: %v", err)
	}
	if st.Records != 6 || replayedPairs(st) != 2 || len(st.Halves) != 1 || st.Fps["y"] != "fpy2" {
		t.Fatalf("replayed state: %+v", st)
	}
	if recs := logRecords(t, cp); recs[1].Shard != "t0-0.p0-3" || recs[1].Lease != 7 || recs[4].Epoch != 4 {
		t.Fatalf("replayed shard %+v and churn %+v", recs[1], recs[4])
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
