package ting

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// mustMatrix is NewMatrix(names) for tests.
func mustMatrix(t *testing.T, names []string) *Matrix {
	t.Helper()
	m, err := NewMatrix(names)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestScanPairsRestrictsToListedPairs(t *testing.T) {
	f := bigFakeWorld()
	sc := &Scanner{
		NewMeasurer: func(worker int) (*Measurer, error) {
			return NewMeasurer(Config{Prober: f, W: "w", Z: "z", Samples: 1})
		},
		Workers: 2,
	}
	names := []string{"x", "y", "u", "v"}
	m := mustMatrix(t, names)
	// A cell the caller already holds is the caller's: left as it is.
	if err := m.Set("x", "u", 7); err != nil {
		t.Fatal(err)
	}
	if err := m.SetProv("x", "u", ProvResumed); err != nil {
		t.Fatal(err)
	}
	failures, err := sc.ScanPairs(context.Background(), m, [][2]int{{0, 1}, {3, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 0 {
		t.Fatalf("failures = %v", failures)
	}
	if len(m.Names()) != 4 {
		t.Fatalf("matrix over %d relays, want the full name set 4", len(m.Names()))
	}
	for _, p := range [][2]string{{"x", "y"}, {"u", "v"}} {
		if prov := m.Prov(p[0], p[1]); prov != ProvFresh {
			t.Errorf("pair %v prov = %v, want fresh", p, prov)
		}
		if v, _ := m.RTT(p[0], p[1]); v <= 0 {
			t.Errorf("pair %v rtt = %g, want measured", p, v)
		}
	}
	for _, p := range [][2]string{{"x", "v"}, {"y", "u"}, {"y", "v"}} {
		if prov := m.Prov(p[0], p[1]); prov != ProvMissing {
			t.Errorf("unlisted pair %v prov = %v, want missing", p, prov)
		}
	}
	if v, _ := m.RTT("x", "u"); v != 7 || m.Prov("x", "u") != ProvResumed {
		t.Errorf("the caller's cell (x,u) became %g, %v", v, m.Prov("x", "u"))
	}
}

func TestScanPairsValidation(t *testing.T) {
	f := bigFakeWorld()
	sc := &Scanner{
		NewMeasurer: func(worker int) (*Measurer, error) {
			return NewMeasurer(Config{Prober: f, W: "w", Z: "z", Samples: 1})
		},
	}
	m := mustMatrix(t, []string{"x", "y", "u"})
	if _, err := sc.ScanPairs(context.Background(), m, [][2]int{{0, 0}}); err == nil || !strings.Contains(err.Error(), "self-pair (x,x)") {
		t.Errorf("self-pair err = %v", err)
	}
	for _, bad := range [][2]int{{0, 3}, {3, 0}, {0, -1}, {-1, 1}, {-1, -1}, {7, 7}} {
		if _, err := sc.ScanPairs(context.Background(), m, [][2]int{{0, 1}, bad}); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("pair %v: err = %v, want out of range", bad, err)
		}
	}
	// A pair listed twice would be measured, counted and logged twice.
	for _, dup := range [][][2]int{{{0, 1}, {0, 1}}, {{0, 1}, {1, 0}}, {{1, 2}, {0, 1}, {2, 1}}} {
		if _, err := sc.ScanPairs(context.Background(), m, dup); err == nil || !strings.Contains(err.Error(), "listed twice") {
			t.Errorf("pairs %v: err = %v, want the duplicate refused", dup, err)
		}
	}
	if n := m.ProvCounts().Missing; n != 3 {
		t.Fatalf("refused lists measured %d pairs", 3-n)
	}
	// An explicitly empty restriction measures nothing — and is not an
	// all-pairs scan.
	failures, err := sc.ScanPairs(context.Background(), m, [][2]int{})
	if err != nil || len(failures) != 0 {
		t.Fatalf("empty restriction: %v %v", failures, err)
	}
	if n := m.ProvCounts().Missing; n != 3 {
		t.Errorf("empty restriction measured %d pairs", 3-n)
	}
	// A nil list is every pair.
	failures, err = sc.ScanPairs(context.Background(), m, nil)
	if err != nil || len(failures) != 0 {
		t.Fatalf("nil restriction: %v %v", failures, err)
	}
	if n := m.ProvCounts().Fresh; n != 3 {
		t.Errorf("nil restriction measured %d of 3 pairs", n)
	}
}

func TestScanPairsCheckpointsLikeScan(t *testing.T) {
	f := bigFakeWorld()
	cp := &MemCheckpoint{}
	sc := &Scanner{
		NewMeasurer: func(worker int) (*Measurer, error) {
			return NewMeasurer(Config{Prober: f, W: "w", Z: "z", Samples: 1})
		},
		Checkpoint: cp,
	}
	names := []string{"x", "y", "u", "v"}
	if _, err := sc.ScanPairs(context.Background(), mustMatrix(t, names), [][2]int{{0, 1}}); err != nil {
		t.Fatal(err)
	}
	st, err := ReplayState(cp)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(st.Names, names) {
		t.Errorf("checkpoint header names = %v, want the full campaign set %v", st.Names, names)
	}
	if _, ok := replayed(st, "x", "y"); !ok {
		t.Error("measured pair not in checkpoint")
	}
	if n := replayedPairs(st); n != 1 {
		t.Errorf("checkpoint has %d pairs, want 1", n)
	}
}

func TestReplayShardRecords(t *testing.T) {
	cp := &MemCheckpoint{}
	recs := []CheckpointRecord{
		{Kind: RecordCampaign, Names: []string{"a", "b", "c"}},
		{Kind: RecordShard, Shard: "t0-0.p0-3", Lease: 1, Worker: "w1"},
		{Kind: RecordPair, X: "a", Y: "b", RTT: 5},
		// Re-granted at a higher epoch after an expiry: the log keeps both.
		{Kind: RecordShard, Shard: "t0-0.p0-3", Lease: 4, Worker: "w1"},
		{Kind: RecordShard, Shard: "t0-0.p0-3", Lease: 2, Worker: "w1"},
	}
	for _, r := range recs {
		if err := cp.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	st, err := ReplayState(cp)
	if err != nil {
		t.Fatal(err)
	}
	var leases []uint64
	for _, rec := range logRecords(t, cp) {
		if rec.Kind == RecordShard && rec.Shard == "t0-0.p0-3" {
			leases = append(leases, rec.Lease)
		}
	}
	if fmt.Sprint(leases) != "[1 4 2]" {
		t.Errorf("shard lease epochs in the log = %v, want [1 4 2]", leases)
	}
	if n := replayedPairs(st); n != 1 {
		t.Errorf("pairs = %d, want 1 (shard records must not eat pair records)", n)
	}
	// A shard record without an ID is malformed.
	bad := &MemCheckpoint{}
	_ = bad.Append(CheckpointRecord{Kind: RecordCampaign, Names: []string{"a", "b"}})
	_ = bad.Append(CheckpointRecord{Kind: RecordShard, Lease: 1})
	if _, err := ReplayState(bad); err == nil {
		t.Error("shard record without ID replayed, want error")
	}
}
