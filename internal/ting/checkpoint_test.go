package ting

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ting/internal/wal"
)

// MemCheckpoint is an in-memory Checkpoint: same semantics, no durability.
type MemCheckpoint struct {
	mu   sync.Mutex
	recs []CheckpointRecord
}

// Append records one entry.
func (c *MemCheckpoint) Append(rec CheckpointRecord) error {
	c.mu.Lock()
	c.recs = append(c.recs, rec)
	c.mu.Unlock()
	return nil
}

// Flush has nothing to write: an appended entry is already replayable.
func (c *MemCheckpoint) Flush() error { return nil }

// Replay streams the recorded entries.
func (c *MemCheckpoint) Replay(fn func(rec CheckpointRecord) error) error {
	c.mu.Lock()
	recs := append([]CheckpointRecord(nil), c.recs...)
	c.mu.Unlock()
	for _, rec := range recs {
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

// logRecords returns every record cp replays, in log order.
func logRecords(t *testing.T, cp Checkpoint) []CheckpointRecord {
	t.Helper()
	var out []CheckpointRecord
	if err := cp.Replay(func(rec CheckpointRecord) error {
		out = append(out, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestFileCheckpointRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	cp, err := OpenFileCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []CheckpointRecord{
		{Kind: RecordCampaign, Names: []string{"x", "y", "u"}},
		{Kind: RecordPair, X: "x", Y: "y", RTT: 73},
		{Kind: RecordHalf, Path: []string{"w", "x"}, Samples: 2, Min: 82},
		{Kind: RecordPair, X: "x", Y: "u", RTT: 51.5},
	}
	for _, rec := range recs {
		if err := cp.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cp.Append(CheckpointRecord{Kind: RecordPair, X: "a", Y: "b", RTT: 1}); err == nil {
		t.Error("Append after Close accepted")
	}

	// Recovery path: reopen the log and aggregate it.
	cp2, err := OpenFileCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	st, err := ReplayState(cp2)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Names) != 3 || st.Names[0] != "x" {
		t.Errorf("Names = %v", st.Names)
	}
	if st.Records != len(recs) {
		t.Errorf("Records = %d, want %d", st.Records, len(recs))
	}
	if v := st.Pairs[pairKey("y", "x")]; v != 73 {
		t.Errorf("pair (x,y) = %v; pair keys must be unordered", v)
	}
	if v := st.Pairs[pairKey("x", "u")]; v != 51.5 {
		t.Errorf("pair (x,u) = %v", v)
	}
	if len(st.Halves) != 1 || st.Halves[0].Min != 82 || st.Halves[0].Samples != 2 {
		t.Errorf("Halves = %+v", st.Halves)
	}

	// Appending across reopens extends the same campaign, once flushed.
	if err := cp2.Append(CheckpointRecord{Kind: RecordPair, X: "y", Y: "u", RTT: 9}); err != nil {
		t.Fatal(err)
	}
	if err := cp2.Flush(); err != nil {
		t.Fatal(err)
	}
	st2, err := ReplayState(cp2)
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.Pairs) != 3 {
		t.Errorf("pairs after reopen-append = %d, want 3", len(st2.Pairs))
	}
}

func TestFileCheckpointMissingFileReplaysEmpty(t *testing.T) {
	cp := &FileCheckpoint{path: filepath.Join(t.TempDir(), "never-written.ckpt")}
	n := 0
	if err := cp.Replay(func(CheckpointRecord) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("replayed %d records from a missing file", n)
	}
}

func TestReplayRecordsTornTailTolerated(t *testing.T) {
	in := `{"t":"campaign","names":["a","b"]}
{"t":"pair","x":"a","y":"b","rtt":5}
{"t":"pair","x":"a","y":`
	var kinds []string
	err := wal.Replay(strings.NewReader(in), func(rec CheckpointRecord) error {
		kinds = append(kinds, rec.Kind)
		return nil
	})
	if err != nil {
		t.Fatalf("torn final line not tolerated: %v", err)
	}
	if len(kinds) != 2 {
		t.Errorf("replayed %d records, want 2 (torn tail dropped)", len(kinds))
	}
}

func TestReplayRecordsCorruptMiddleErrors(t *testing.T) {
	in := `{"t":"campaign","names":["a","b"]}
this is not json
{"t":"pair","x":"a","y":"b","rtt":5}
`
	err := wal.Replay(strings.NewReader(in), func(CheckpointRecord) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("mid-file corruption not reported: %v", err)
	}
}

func TestReplayRecordsSkipsBlankLines(t *testing.T) {
	in := "\n{\"t\":\"pair\",\"x\":\"a\",\"y\":\"b\",\"rtt\":5}\n\n"
	n := 0
	if err := wal.Replay(strings.NewReader(in), func(CheckpointRecord) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("replayed %d records, want 1", n)
	}
}

func TestReplayStateLastRecordWins(t *testing.T) {
	cp := &MemCheckpoint{}
	for _, rec := range []CheckpointRecord{
		{Kind: RecordCampaign, Names: []string{"a", "b"}},
		{Kind: RecordPair, X: "a", Y: "b", RTT: 10},
		{Kind: RecordHalf, Path: []string{"w", "a"}, Samples: 3, Min: 4},
		{Kind: RecordCampaign, Names: []string{"a", "b"}}, // idempotent header
		{Kind: RecordPair, X: "b", Y: "a", RTT: 12},       // re-measured across resumes
		{Kind: RecordHalf, Path: []string{"w", "a"}, Samples: 3, Min: 5},
		{Kind: "future-kind"}, // unknown kinds skipped, not errors
	} {
		if err := cp.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if len(cp.recs) != 7 {
		t.Fatalf("%d records", len(cp.recs))
	}
	st, err := ReplayState(cp)
	if err != nil {
		t.Fatal(err)
	}
	if v := st.Pairs[pairKey("a", "b")]; v != 12 {
		t.Errorf("pair (a,b) = %v, want the newest value 12", v)
	}
	if len(st.Halves) != 1 || st.Halves[0].Min != 5 {
		t.Errorf("Halves = %+v, want one deduped series with min 5", st.Halves)
	}
}

func TestReplayStateRejectsMalformedRecords(t *testing.T) {
	cases := []CheckpointRecord{
		{Kind: RecordCampaign, Names: []string{"solo"}},
		{Kind: RecordPair, X: "", Y: "b", RTT: 1},
		{Kind: RecordPair, X: "a", Y: "a", RTT: 1},
		{Kind: RecordPair, X: "a", Y: "b", RTT: math.NaN()},
		{Kind: RecordPair, X: "a", Y: "b", RTT: math.Inf(1)},
		{Kind: RecordHalf, Path: []string{"w"}, Samples: 3, Min: 4},
		{Kind: RecordHalf, Path: []string{"w", "a"}, Samples: 0, Min: 4},
		{Kind: RecordHalf, Path: []string{"w", "a"}, Samples: 3, Min: math.Inf(-1)},
	}
	for i, bad := range cases {
		cp := &MemCheckpoint{}
		cp.Append(CheckpointRecord{Kind: RecordCampaign, Names: []string{"a", "b"}})
		cp.Append(bad)
		if _, err := ReplayState(cp); err == nil {
			t.Errorf("case %d: malformed record %+v accepted", i, bad)
		}
	}
}

func TestReplayStateRejectsConflictingCampaigns(t *testing.T) {
	cp := &MemCheckpoint{}
	cp.Append(CheckpointRecord{Kind: RecordCampaign, Names: []string{"a", "b"}})
	cp.Append(CheckpointRecord{Kind: RecordCampaign, Names: []string{"a", "c"}})
	if _, err := ReplayState(cp); err == nil {
		t.Error("log spanning two different relay sets accepted")
	}
}

func TestFileCheckpointSyncBatching(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.ckpt")
	cp, err := OpenFileCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	cp.SyncEvery = 2
	lines := func() int {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Count(string(data), "\n")
	}
	for i := 0; i < 5; i++ {
		if err := cp.Append(CheckpointRecord{Kind: RecordPair, X: "a", Y: "b", RTT: float64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	// Appends are pending until a Flush writes them; batching only affects
	// fsync, so all five lines are visible once it returns.
	if n := lines(); n != 0 {
		t.Errorf("%d lines on disk before Flush, want 0", n)
	}
	if err := cp.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := lines(); n != 5 {
		t.Errorf("%d lines on disk, want 5", n)
	}
}

func TestResumeRequiresUsableCheckpoint(t *testing.T) {
	sc := &Scanner{NewMeasurer: func(int) (*Measurer, error) {
		return NewMeasurer(Config{Prober: newFakeWorld(), W: "w", Z: "z", Samples: 1})
	}}
	if _, _, err := sc.Resume(context.Background(), nil); err == nil {
		t.Error("Resume(nil) accepted")
	}
	if _, _, err := sc.Resume(context.Background(), &MemCheckpoint{}); err == nil || !strings.Contains(err.Error(), "campaign header") {
		t.Errorf("Resume of headerless log: %v", err)
	}
	broken := &MemCheckpoint{}
	broken.Append(CheckpointRecord{Kind: RecordCampaign, Names: []string{"x"}})
	if _, _, err := sc.Resume(context.Background(), broken); err == nil {
		t.Error("Resume of malformed log accepted")
	}
}
