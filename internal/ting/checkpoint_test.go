package ting

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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
	if v, _ := replayed(st, "y", "x"); v != 73 {
		t.Errorf("pair (x,y) = %v; pairs must be unordered", v)
	}
	if v, _ := replayed(st, "x", "u"); v != 51.5 {
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
	if n := replayedPairs(st2); n != 3 {
		t.Errorf("pairs after reopen-append = %d, want 3", n)
	}
}

// replayed reads pair (x, y) off a replayed log's matrix: its RTT, and
// whether the log held the pair.
func replayed(st *CheckpointState, x, y string) (float64, bool) {
	if st.Matrix == nil || st.Matrix.Prov(x, y) != ProvResumed {
		return 0, false
	}
	v, _ := st.Matrix.RTT(x, y)
	return v, true
}

// replayedPairs counts the pairs a replayed log seeds.
func replayedPairs(st *CheckpointState) int {
	if st.Matrix == nil {
		return 0
	}
	return st.Matrix.ProvCounts().Resumed
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
	if v, _ := replayed(st, "a", "b"); v != 12 {
		t.Errorf("pair (a,b) = %v, want the newest value 12", v)
	}
	if len(st.Halves) != 1 || st.Halves[0].Min != 5 {
		t.Errorf("Halves = %+v, want one deduped series with min 5", st.Halves)
	}
}

// pairKey is the canonical (ordered) map key of an unordered pair of names.
func pairKey(x, y string) [2]string {
	if x > y {
		x, y = y, x
	}
	return [2]string{x, y}
}

// replayOracle is ReplayState as it was when a replayed log was a
// name-keyed pair map with a join list beside the header, and Resume framed
// its matrix over the header and the joins: the oracle the replayed matrix
// must match. names is that matrix's relay order, nil without a header;
// pairs holds every pair record's last RTT.
func replayOracle(recs []CheckpointRecord) (names []string, pairs map[[2]string]float64, fps map[string]string, halves []HalfSeries) {
	pairs, fps = make(map[[2]string]float64), make(map[string]string)
	var header, joined []string
	halfAt := make(map[string]int)
	for _, rec := range recs {
		switch rec.Kind {
		case RecordCampaign:
			header = rec.Names
			maps.Copy(fps, rec.Fps)
		case RecordPair:
			pairs[pairKey(rec.X, rec.Y)] = rec.RTT
		case RecordHalf:
			key := halfKey(rec.Path, rec.Samples)
			if i, ok := halfAt[key]; ok {
				halves[i].Min = rec.Min
			} else {
				halfAt[key] = len(halves)
				halves = append(halves, HalfSeries{Path: rec.Path, Samples: rec.Samples, Min: rec.Min})
			}
		case RecordChurn:
			if rec.Op == ChurnOpJoin && !slices.Contains(joined, rec.Relay) {
				joined = append(joined, rec.Relay)
			}
			if rec.Op != ChurnOpLeave && rec.Fp != "" {
				fps[rec.Relay] = rec.Fp
			}
		}
	}
	if header == nil {
		return nil, pairs, fps, halves
	}
	names = slices.Clone(header)
	for _, n := range joined {
		if !slices.Contains(names, n) {
			names = append(names, n)
		}
	}
	return names, pairs, fps, halves
}

// randomLog writes a random valid campaign log: repeated headers, pairs
// re-measured, relays joining (often with a pair logged before the join, as
// a live scan can log it), leaving, rotating and rejoining, shard and half
// records, pairs of relays the log never introduces, and now and then
// records before the first header or no header at all.
func randomLog(rng *rand.Rand) []CheckpointRecord {
	header := make([]string, 2+rng.Intn(5))
	for i := range header {
		header[i] = fmt.Sprintf("h%d", i)
	}
	joiners := []string{"j0", "j1", "j2", "j3"}
	ghosts := []string{"g0", "g1"}
	known := slices.Clone(header) // relays pairs are mostly drawn from
	var logged [][2]string
	var recs []CheckpointRecord
	pick := func(pool []string) string { return pool[rng.Intn(len(pool))] }
	pair := func(x, y string) {
		if x == y {
			return
		}
		recs = append(recs, CheckpointRecord{Kind: RecordPair, X: x, Y: y, RTT: float64(rng.Intn(4000)) / 8})
		logged = append(logged, [2]string{x, y})
	}
	fp := func(relay string) string {
		if rng.Intn(3) == 0 {
			return ""
		}
		return fmt.Sprintf("fp-%s-%d", relay, rng.Intn(3))
	}
	writeHeader := func() {
		fps := make(map[string]string)
		for _, n := range header {
			if f := fp(n); f != "" {
				fps[n] = f
			}
		}
		recs = append(recs, CheckpointRecord{Kind: RecordCampaign, Names: header, Epoch: uint64(rng.Intn(9)), Fps: fps})
	}
	headed := rng.Intn(20) == 0 // true: the log never gets a header
	if rng.Intn(3) > 0 {
		writeHeader()
		headed = true
	}
	for steps := 5 + rng.Intn(40); steps > 0; steps-- {
		if !headed && rng.Intn(4) == 0 {
			writeHeader()
			headed = true
		}
		switch rng.Intn(11) {
		case 0, 1:
			pair(pick(known), pick(known))
		case 2:
			if len(logged) > 0 {
				p := logged[rng.Intn(len(logged))]
				pair(p[1], p[0])
			}
		case 3:
			j := pick(joiners)
			for k := rng.Intn(3); k > 0; k-- {
				pair(j, pick(known)) // logged before the join
			}
			recs = append(recs, CheckpointRecord{Kind: RecordChurn, Op: ChurnOpJoin, Relay: j, Fp: fp(j)})
			if !slices.Contains(known, j) {
				known = append(known, j)
			}
		case 4:
			recs = append(recs, CheckpointRecord{Kind: RecordChurn, Op: ChurnOpLeave, Relay: pick(known)})
		case 5:
			r := pick(known)
			recs = append(recs, CheckpointRecord{Kind: RecordChurn, Op: ChurnOpRotate, Relay: r, Fp: fp(r)})
		case 6:
			r := pick(known) // a rejoin, or a header relay's join
			recs = append(recs, CheckpointRecord{Kind: RecordChurn, Op: ChurnOpJoin, Relay: r, Fp: fp(r)})
		case 7:
			recs = append(recs, CheckpointRecord{Kind: RecordShard, Shard: fmt.Sprintf("s%d", rng.Intn(3)), Lease: 1})
		case 8:
			path := []string{"w", pick(known)}
			recs = append(recs, CheckpointRecord{Kind: RecordHalf, Path: path, Samples: 1 + rng.Intn(2), Min: float64(rng.Intn(100))})
		case 9:
			pair(pick(ghosts), pick(append(slices.Clone(ghosts), known...)))
		case 10:
			if headed {
				writeHeader()
			}
		}
	}
	return recs
}

// TestReplayStateMatchesMapOracle: over random logs, the replayed matrix
// holds exactly the relays, in order, and the pairs the name-keyed
// aggregation seeded, and the fingerprints, half series and record count
// agree.
func TestReplayStateMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		recs := randomLog(rand.New(rand.NewSource(seed)))
		st, err := ReplayState(&MemCheckpoint{recs: recs})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		names, pairs, fps, halves := replayOracle(recs)
		if st.Records != len(recs) || !maps.Equal(st.Fps, fps) || !reflect.DeepEqual(st.Halves, halves) {
			t.Fatalf("seed %d: replayed %d records, fps %v, halves %+v; oracle %d, %v, %+v",
				seed, st.Records, st.Fps, st.Halves, len(recs), fps, halves)
		}
		var got []string // nil without a header, like the oracle's
		if st.Matrix != nil {
			got = st.Matrix.Names()
		}
		if !slices.Equal(got, names) {
			t.Fatalf("seed %d: replayed matrix over %v, oracle names %v", seed, got, names)
		}
		if names == nil {
			continue
		}
		for i := range names {
			for j := i + 1; j < len(names); j++ {
				rtt, ok := pairs[pairKey(names[i], names[j])]
				prov, got := st.Matrix.ProvAt(i, j), st.Matrix.At(i, j)
				if ok && (prov != ProvResumed || got != rtt) || !ok && prov != ProvMissing {
					t.Fatalf("seed %d: pair (%s,%s) replayed %v %v; oracle holds it %v at %v",
						seed, names[i], names[j], prov, got, ok, rtt)
				}
			}
		}
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
