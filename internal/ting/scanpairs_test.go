package ting

import (
	"context"
	"strings"
	"testing"
)

func TestScanPairsRestrictsToListedPairs(t *testing.T) {
	f := bigFakeWorld()
	sc := &Scanner{
		NewMeasurer: func(worker int) (*Measurer, error) {
			return NewMeasurer(Config{Prober: f, W: "w", Z: "z", Samples: 1})
		},
		Workers: 2,
	}
	names := []string{"x", "y", "u", "v"}
	m, failures, err := sc.ScanPairs(context.Background(), names, [][2]string{{"x", "y"}, {"u", "v"}})
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
	for _, p := range [][2]string{{"x", "u"}, {"x", "v"}, {"y", "u"}, {"y", "v"}} {
		if prov := m.Prov(p[0], p[1]); prov != ProvMissing {
			t.Errorf("unlisted pair %v prov = %v, want missing", p, prov)
		}
	}
}

func TestScanPairsValidation(t *testing.T) {
	f := bigFakeWorld()
	sc := &Scanner{
		NewMeasurer: func(worker int) (*Measurer, error) {
			return NewMeasurer(Config{Prober: f, W: "w", Z: "z", Samples: 1})
		},
	}
	names := []string{"x", "y"}
	if _, _, err := sc.ScanPairs(context.Background(), names, [][2]string{{"x", "x"}}); err == nil || !strings.Contains(err.Error(), "self-pair") {
		t.Errorf("self-pair err = %v", err)
	}
	if _, _, err := sc.ScanPairs(context.Background(), names, [][2]string{{"x", "nope"}}); err == nil || !strings.Contains(err.Error(), "not in names") {
		t.Errorf("unknown endpoint err = %v", err)
	}
	// A pair listed twice would be measured, counted and logged twice.
	for _, dup := range [][][2]string{{{"x", "y"}, {"x", "y"}}, {{"x", "y"}, {"y", "x"}}} {
		if _, _, err := sc.ScanPairs(context.Background(), names, dup); err == nil || !strings.Contains(err.Error(), "listed twice") {
			t.Errorf("pairs %v: err = %v, want the duplicate refused", dup, err)
		}
	}
	// An explicitly empty restriction measures nothing — and is not an
	// all-pairs scan.
	m, failures, err := sc.ScanPairs(context.Background(), names, [][2]string{})
	if err != nil || len(failures) != 0 {
		t.Fatalf("empty restriction: %v %v", failures, err)
	}
	if prov := m.Prov("x", "y"); prov != ProvMissing {
		t.Errorf("empty restriction measured x-y (prov %v)", prov)
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
	if _, _, err := sc.ScanPairs(context.Background(), names, [][2]string{{"x", "y"}}); err != nil {
		t.Fatal(err)
	}
	st, err := ReplayState(cp)
	if err != nil {
		t.Fatal(err)
	}
	if !equalNames(st.Names, names) {
		t.Errorf("checkpoint header names = %v, want the full campaign set %v", st.Names, names)
	}
	if _, ok := st.Pairs[pairKey("x", "y")]; !ok {
		t.Error("measured pair not in checkpoint")
	}
	if len(st.Pairs) != 1 {
		t.Errorf("checkpoint has %d pairs, want 1", len(st.Pairs))
	}
}

func TestReplayShardRecords(t *testing.T) {
	cp := &MemCheckpoint{}
	recs := []CheckpointRecord{
		{Kind: RecordCampaign, Names: []string{"a", "b", "c"}},
		{Kind: RecordShard, Shard: "t0-0.p0-3", Lease: 1, Worker: "w1"},
		{Kind: RecordPair, X: "a", Y: "b", RTT: 5},
		// Re-granted at a higher epoch after an expiry: the highest wins.
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
	if got := st.Shards["t0-0.p0-3"]; got != 4 {
		t.Errorf("shard lease epoch = %d, want the highest seen (4)", got)
	}
	if len(st.Pairs) != 1 {
		t.Errorf("pairs = %d, want 1 (shard records must not eat pair records)", len(st.Pairs))
	}
	// A shard record without an ID is malformed.
	bad := &MemCheckpoint{}
	_ = bad.Append(CheckpointRecord{Kind: RecordCampaign, Names: []string{"a", "b"}})
	_ = bad.Append(CheckpointRecord{Kind: RecordShard, Lease: 1})
	if _, err := ReplayState(bad); err == nil {
		t.Error("shard record without ID replayed, want error")
	}
}
