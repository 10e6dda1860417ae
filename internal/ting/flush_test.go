package ting

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// flushLog is a Checkpoint that holds appended records until Flush, as
// FileCheckpoint does, and counts what it flushed. Its failAt-th Flush (if
// positive) fails and drops the records it held.
type flushLog struct {
	MemCheckpoint
	failAt int

	mu      sync.Mutex
	pending []CheckpointRecord
	flushes int
	pairs   int                // pair records flushed
	dropped []CheckpointRecord // what the failed Flush held
}

func (c *flushLog) Append(rec CheckpointRecord) error {
	rec.Path = slices.Clone(rec.Path) // valid only for the call
	c.mu.Lock()
	c.pending = append(c.pending, rec)
	c.mu.Unlock()
	return nil
}

func (c *flushLog) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushes++
	run := c.pending
	c.pending = nil
	if c.flushes == c.failAt {
		c.dropped = run
		return errors.New("injected flush failure")
	}
	for _, rec := range run {
		if rec.Kind == RecordPair {
			c.pairs++
		}
		c.MemCheckpoint.Append(rec)
	}
	return nil
}

func (c *flushLog) flushedPairs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pairs
}

// TestCheckpointNoPairCountsBeforeFlush: at every Progress callback of a
// four-worker scan of cheap pairs — runs of many pairs, appends racing
// other workers' flushes — the pairs counted done have all been flushed.
func TestCheckpointNoPairCountsBeforeFlush(t *testing.T) {
	names, sc := nullScan(40)
	cp := &flushLog{}
	sc.Workers = 4
	sc.Checkpoint = cp
	var mu sync.Mutex
	calls := 0
	sc.Progress = func(done, _ int) {
		if flushed := cp.flushedPairs(); flushed < done {
			t.Errorf("progress reached %d with %d pair records flushed", done, flushed)
		}
		mu.Lock()
		calls++
		mu.Unlock()
	}
	if _, failures, err := sc.Scan(context.Background(), names); err != nil || len(failures) != 0 {
		t.Fatalf("scan = (%v, %v), want clean", failures, err)
	}
	pairs := len(names) * (len(names) - 1) / 2
	if calls != pairs || cp.flushedPairs() != pairs {
		t.Fatalf("%d progress calls and %d pair records flushed, want %d each", calls, cp.flushedPairs(), pairs)
	}
	if len(cp.pending) != 0 {
		t.Fatalf("%d records still pending after the scan returned", len(cp.pending))
	}
}

// TestCheckpointFailedFlushEndsScan: when a run's flush fails, the scan
// ends with the checkpoint error, and none of that run's pairs is written
// fresh or counted — only pairs whose records reached the log are.
func TestCheckpointFailedFlushEndsScan(t *testing.T) {
	names, sc := nullScan(12)
	cp := &flushLog{failAt: 3} // the header, one run, then the failure
	sc.Workers = 1
	sc.Checkpoint = cp
	done := 0
	sc.Progress = func(d, _ int) { done = d }
	m, _, err := sc.Scan(context.Background(), names)
	if err == nil || !strings.Contains(err.Error(), "checkpoint append") || !strings.Contains(err.Error(), "injected flush failure") {
		t.Fatalf("scan over a failing flush: %v", err)
	}
	var lost [][2]int
	for _, rec := range cp.dropped {
		if rec.Kind == RecordPair {
			lost = append(lost, [2]int{rec.I, rec.J})
		}
	}
	if len(lost) == 0 {
		t.Fatal("the failed flush held no pair record")
	}
	for _, p := range lost {
		if m.ProvAt(p[0], p[1]) == ProvFresh {
			t.Errorf("pair (%d,%d) is fresh, but its record never reached the log", p[0], p[1])
		}
	}
	st, err := ReplayState(&cp.MemCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	if logged := replayedPairs(st); done != logged || m.ProvCounts().Fresh != logged {
		t.Fatalf("%d pairs counted and %d fresh, but %d pair records in the log", done, m.ProvCounts().Fresh, logged)
	}
}

// TestCheckpointHeaderFlushedBeforeFirstPair: a FileCheckpoint scan's
// campaign header is in the file before its first series is sampled.
func TestCheckpointHeaderFlushedBeforeFirstPair(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	cp, err := OpenFileCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	var once sync.Once
	var onDisk []byte
	hook := func([]string) {
		once.Do(func() { onDisk, _ = os.ReadFile(path) })
	}
	sc := &Scanner{
		NewMeasurer: func(int) (*Measurer, error) {
			return NewMeasurer(Config{Prober: &hookProber{f: bigFakeWorld(), hook: hook}, W: "w", Z: "z", Samples: 1})
		},
		Workers:    1,
		Checkpoint: cp,
	}
	if _, _, err := sc.Scan(context.Background(), []string{"x", "y", "u", "v"}); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(onDisk, []byte(`{"t":"campaign","names":["x","y","u","v"]}`+"\n")) {
		t.Fatalf("at the first series the log held %q", onDisk)
	}
}

// countingCheckpoint counts the flushes that write something to a
// FileCheckpoint, and the pair records each carried.
type countingCheckpoint struct {
	*FileCheckpoint
	mu             sync.Mutex
	pending, pairs int
	runs           []int
}

func (c *countingCheckpoint) Append(rec CheckpointRecord) error {
	c.mu.Lock()
	c.pending++
	if rec.Kind == RecordPair {
		c.pairs++
	}
	c.mu.Unlock()
	return c.FileCheckpoint.Append(rec)
}

func (c *countingCheckpoint) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pending > 0 {
		c.runs = append(c.runs, c.pairs)
	}
	c.pending, c.pairs = 0, 0
	return c.FileCheckpoint.Flush()
}

// TestCheckpointFlushPerSlowPair: in the paper's regime — a series costs
// more than a run's 1 ms budget — every run is one pair, so a FileCheckpoint
// scan flushes once per pair, each flush one pair record (and the half
// series measured for it). The log counts each record toward SyncEvery
// (wal's TestAppendRun), so fsyncs stay one per eight records.
func TestCheckpointFlushPerSlowPair(t *testing.T) {
	file, err := OpenFileCheckpoint(filepath.Join(t.TempDir(), "campaign.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	cp := &countingCheckpoint{FileCheckpoint: file}
	slow := func([]string) { time.Sleep(1500 * time.Microsecond) }
	sc := &Scanner{
		NewMeasurer: func(int) (*Measurer, error) {
			return NewMeasurer(Config{Prober: &hookProber{f: bigFakeWorld(), hook: slow}, W: "w", Z: "z", Samples: 1})
		},
		Workers:    1,
		Checkpoint: cp,
	}
	if _, _, err := sc.Scan(context.Background(), []string{"x", "y", "u", "v"}); err != nil {
		t.Fatal(err)
	}
	// The header's write, then one per pair: six pairs, one record each.
	if want := []int{0, 1, 1, 1, 1, 1, 1}; !slices.Equal(cp.runs, want) {
		t.Fatalf("pair records per flush %v, want %v", cp.runs, want)
	}
}

// TestFileCheckpointMatchesMarshal: Append's buffered encoding writes,
// once flushed, exactly json.Marshal(rec) and a newline per record — HTML
// characters, U+2028 and non-ASCII runes included, one record of each kind.
func TestFileCheckpointMatchesMarshal(t *testing.T) {
	odd := "<a&b>\u2028\u2029ünïcødé 中继 \"q\" \\ \x01"
	recs := []CheckpointRecord{
		{Kind: RecordCampaign, Names: []string{odd, "relay<1>", "x&y"}, Epoch: 9, Fps: map[string]string{odd: "fp<&>", "x&y": " "}},
		{Kind: RecordPair, I: 1, J: 2, RTT: 1.0 / 3},
		{Kind: RecordPair, J: 1, RTT: math.SmallestNonzeroFloat64},
		{Kind: RecordHalf, Path: []string{"w", odd}, Samples: 200, Min: 1e21},
		{Kind: RecordChurn, Op: ChurnOpJoin, Relay: odd, Fp: "fp ", Epoch: 3},
		{Kind: RecordShard, Shard: "t0-0.p0-3", Lease: 7, Worker: "wörker<&>"},
		{Kind: "future-kind"},
	}
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	cp, err := OpenFileCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for i, rec := range recs {
		if err := cp.Append(rec); err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		want.Write(append(b, '\n'))
		if i == 2 { // flushed in two runs: the file is their concatenation
			if err := cp.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := cp.Append(CheckpointRecord{Kind: RecordPair, J: 1, RTT: math.NaN()}); err == nil {
		t.Fatal("a NaN RTT was encoded")
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("file\n%q\nwant json.Marshal's\n%q", got, want.Bytes())
	}
}
