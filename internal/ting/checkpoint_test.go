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

// Append records one entry. rec.Path is valid only for the call, so it
// keeps a copy.
func (c *MemCheckpoint) Append(rec CheckpointRecord) error {
	rec.Path = slices.Clone(rec.Path)
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

// indexSpace is a log's relay index space as ReplayState builds it: the
// first header's names, then each relay a join introduces, in log order.
// Feed it every record in order with add.
type indexSpace struct{ names []string }

func (s *indexSpace) add(rec CheckpointRecord) {
	switch {
	case rec.Kind == RecordCampaign && s.names == nil:
		s.names = slices.Clone(rec.Names)
	case rec.Kind == RecordChurn && rec.Op == ChurnOpJoin && s.names != nil && !slices.Contains(s.names, rec.Relay):
		s.names = append(s.names, rec.Relay)
	}
}

// pair names a pair record's relays, its indices looked up in the space so
// far, and reports whether the space holds them.
func (s *indexSpace) pair(rec CheckpointRecord) (x, y string, ok bool) {
	if rec.I < 0 || rec.J < 0 || rec.I >= len(s.names) || rec.J >= len(s.names) {
		return "", "", false
	}
	return s.names[rec.I], s.names[rec.J], true
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
		{Kind: RecordPair, J: 1, RTT: 73},
		{Kind: RecordHalf, Path: []string{"w", "x"}, Samples: 2, Min: 82},
		{Kind: RecordPair, J: 2, RTT: 51.5},
	}
	for _, rec := range recs {
		if err := cp.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cp.Append(CheckpointRecord{Kind: RecordPair, J: 1, RTT: 1}); err == nil {
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
	if err := cp2.Append(CheckpointRecord{Kind: RecordPair, I: 1, J: 2, RTT: 9}); err != nil {
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
{"t":"pair","j":1,"rtt":5}
{"t":"pair","j":`
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
{"t":"pair","j":1,"rtt":5}
`
	err := wal.Replay(strings.NewReader(in), func(CheckpointRecord) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("mid-file corruption not reported: %v", err)
	}
}

func TestReplayRecordsSkipsBlankLines(t *testing.T) {
	in := "\n{\"t\":\"pair\",\"j\":1,\"rtt\":5}\n\n"
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
		{Kind: RecordPair, J: 1, RTT: 10},
		{Kind: RecordHalf, Path: []string{"w", "a"}, Samples: 3, Min: 4},
		{Kind: RecordCampaign, Names: []string{"a", "b"}}, // idempotent header
		{Kind: RecordPair, J: 1, RTT: 12},                 // re-measured across resumes
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
// pairs holds every pair record's last RTT, keyed by the names its indices
// had when it was logged.
func replayOracle(recs []CheckpointRecord) (names []string, pairs map[[2]string]float64, fps map[string]string, halves []HalfSeries) {
	pairs, fps = make(map[[2]string]float64), make(map[string]string)
	var space indexSpace
	halfAt := make(map[halfKey]int)
	for _, rec := range recs {
		space.add(rec)
		switch rec.Kind {
		case RecordCampaign:
			maps.Copy(fps, rec.Fps)
		case RecordPair:
			x, y, _ := space.pair(rec)
			pairs[pairKey(x, y)] = rec.RTT
		case RecordHalf:
			key := keyOf(rec.Path, rec.Samples)
			if i, ok := halfAt[key]; ok {
				halves[i].Min = rec.Min
			} else {
				halfAt[key] = len(halves)
				halves = append(halves, HalfSeries{Path: rec.Path, Samples: rec.Samples, Min: rec.Min})
			}
		case RecordChurn:
			if rec.Op != ChurnOpLeave && rec.Fp != "" {
				fps[rec.Relay] = rec.Fp
			}
		}
	}
	return space.names, pairs, fps, halves
}

// randomLog writes a random valid campaign log, as the scan writes one:
// repeated headers, pairs by index re-measured, relays joining, leaving,
// rotating and rejoining, shard and half records, and now and then leaves,
// rotations, shard and half records before the first header, or no header
// at all. Every pair record names relays the log has introduced before it.
func randomLog(rng *rand.Rand) []CheckpointRecord {
	header := make([]string, 2+rng.Intn(5))
	for i := range header {
		header[i] = fmt.Sprintf("h%d", i)
	}
	joiners := []string{"j0", "j1", "j2", "j3"}
	var space indexSpace
	var logged [][2]int
	var recs []CheckpointRecord
	add := func(rec CheckpointRecord) {
		space.add(rec)
		recs = append(recs, rec)
	}
	// known is the relays records other than pairs draw from: the header's
	// until the log has an index space.
	known := func() []string {
		if space.names == nil {
			return header
		}
		return space.names
	}
	pick := func(pool []string) string { return pool[rng.Intn(len(pool))] }
	pair := func(i, j int) {
		if i == j {
			return
		}
		add(CheckpointRecord{Kind: RecordPair, I: min(i, j), J: max(i, j), RTT: float64(rng.Intn(4000)) / 8})
		logged = append(logged, [2]int{i, j})
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
		add(CheckpointRecord{Kind: RecordCampaign, Names: header, Epoch: uint64(rng.Intn(9)), Fps: fps})
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
		n := len(space.names)
		switch rng.Intn(10) {
		case 0, 1:
			if n > 0 {
				pair(rng.Intn(n), rng.Intn(n))
			}
		case 2:
			if len(logged) > 0 {
				p := logged[rng.Intn(len(logged))]
				pair(p[1], p[0])
			}
		case 3:
			if n > 0 {
				j := pick(joiners)
				add(CheckpointRecord{Kind: RecordChurn, Op: ChurnOpJoin, Relay: j, Fp: fp(j)})
			}
		case 4:
			add(CheckpointRecord{Kind: RecordChurn, Op: ChurnOpLeave, Relay: pick(known())})
		case 5:
			r := pick(known())
			add(CheckpointRecord{Kind: RecordChurn, Op: ChurnOpRotate, Relay: r, Fp: fp(r)})
		case 6:
			if n > 0 {
				r := pick(space.names) // a rejoin, or a header relay's join
				add(CheckpointRecord{Kind: RecordChurn, Op: ChurnOpJoin, Relay: r, Fp: fp(r)})
			}
		case 7:
			add(CheckpointRecord{Kind: RecordShard, Shard: fmt.Sprintf("s%d", rng.Intn(3)), Lease: 1})
		case 8:
			path := []string{"w", pick(known())}
			add(CheckpointRecord{Kind: RecordHalf, Path: path, Samples: 1 + rng.Intn(2), Min: float64(rng.Intn(100))})
		case 9:
			if headed {
				writeHeader()
			}
		}
	}
	return recs
}

// matchesOracle reports how st, the replay of recs, differs from what the
// name-keyed oracle makes of recs, "" when it does not: the same relays in
// the same order, exactly the oracle's pairs, and the same fingerprints,
// half series and record count.
func matchesOracle(recs []CheckpointRecord, st *CheckpointState) string {
	names, pairs, fps, halves := replayOracle(recs)
	if st.Records != len(recs) || !maps.Equal(st.Fps, fps) || !reflect.DeepEqual(st.Halves, halves) {
		return fmt.Sprintf("replayed %d records, fps %v, halves %+v; oracle %d, %v, %+v",
			st.Records, st.Fps, st.Halves, len(recs), fps, halves)
	}
	var got []string // nil without a header, like the oracle's
	if st.Matrix != nil {
		got = st.Matrix.Names()
	}
	if !slices.Equal(got, names) {
		return fmt.Sprintf("replayed matrix over %v, oracle names %v", got, names)
	}
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			rtt, ok := pairs[pairKey(names[i], names[j])]
			prov, got := st.Matrix.ProvAt(i, j), st.Matrix.At(i, j)
			if ok && (prov != ProvResumed || got != rtt) || !ok && prov != ProvMissing {
				return fmt.Sprintf("pair (%s,%s) replayed %v %v; oracle holds it %v at %v",
					names[i], names[j], prov, got, ok, rtt)
			}
		}
	}
	return ""
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
		if d := matchesOracle(recs, st); d != "" {
			t.Fatalf("seed %d: %s", seed, d)
		}
	}
}

func TestReplayStateRejectsMalformedRecords(t *testing.T) {
	cases := []CheckpointRecord{
		{Kind: RecordCampaign, Names: []string{"solo"}},
		{Kind: RecordPair, I: 0, J: 0, RTT: 1},
		{Kind: RecordPair, I: 0, J: 1, RTT: math.Inf(1)},
		{Kind: RecordHalf, Path: []string{"w"}, Samples: 3, Min: 4},
		{Kind: RecordHalf, Path: []string{"w", "a"}, Samples: 0, Min: 4},
		{Kind: RecordHalf, Path: []string{"w", "a"}, Samples: 3, Min: math.Inf(-1)},
		{Kind: RecordPair, I: 0, J: 1, RTT: math.NaN()},
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

// TestReplayStateRefusesBadPairForms: a pair record names, by index, two
// distinct relays among those introduced so far, none negative, and a pair
// record that names its relays — the named form, alone or beside indices —
// is refused as such, never read. Each refusal says which rule refused it.
func TestReplayStateRefusesBadPairForms(t *testing.T) {
	const named, pair = "in the named form", "not a pair of the 2 relays"
	for _, tc := range []struct {
		rec  CheckpointRecord
		want string
	}{
		{CheckpointRecord{Kind: RecordPair, I: 1, J: 1, RTT: 1}, pair},
		{CheckpointRecord{Kind: RecordPair, I: -1, J: 1, RTT: 1}, pair},
		{CheckpointRecord{Kind: RecordPair, I: 1, J: -1, RTT: 1}, pair},
		{CheckpointRecord{Kind: RecordPair, I: 0, J: 2, RTT: 1}, pair},
		{CheckpointRecord{Kind: RecordPair, I: 2, J: 0, RTT: 1}, pair},
		{CheckpointRecord{Kind: RecordPair, RTT: 1}, pair},
		{CheckpointRecord{Kind: RecordPair, X: "a", Y: "b", RTT: 1}, named},
		{CheckpointRecord{Kind: RecordPair, X: "a", Y: "b", RTT: math.NaN()}, named},
		{CheckpointRecord{Kind: RecordPair, X: "a", Y: "b", I: 0, J: 1, RTT: 1}, named},
		{CheckpointRecord{Kind: RecordPair, X: "a", I: 0, J: 1, RTT: 1}, named},
		{CheckpointRecord{Kind: RecordPair, Y: "b", J: 1, RTT: 1}, named},
	} {
		cp := &MemCheckpoint{}
		cp.Append(CheckpointRecord{Kind: RecordCampaign, Names: []string{"a", "b"}})
		cp.Append(tc.rec)
		if st, err := ReplayState(cp); err == nil || !strings.Contains(err.Error(), tc.want) || st != nil {
			t.Errorf("record %+v: %v, want a refusal saying %q", tc.rec, err, tc.want)
		}
	}
}

// TestReplayStateIndexSpace: a pair record by index names relays the log
// has introduced before it — the first header's relays, then each join in
// log order — so one before the header, or of a relay whose join comes
// later, is refused, and so is a join before the header, which no writer
// logs; after the join it is that relay's pair, and a second header does
// not move the space.
func TestReplayStateIndexSpace(t *testing.T) {
	header := CheckpointRecord{Kind: RecordCampaign, Names: []string{"a", "b"}}
	join := CheckpointRecord{Kind: RecordChurn, Op: ChurnOpJoin, Relay: "c"}
	pair := CheckpointRecord{Kind: RecordPair, I: 0, J: 2, RTT: 7}
	for _, tc := range []struct {
		name string
		recs []CheckpointRecord
		want string
	}{
		{"before the header", []CheckpointRecord{{Kind: RecordPair, I: 0, J: 1, RTT: 7}, header}, "(0,1) is not a pair of the 0 relays"},
		{"before the relay joins", []CheckpointRecord{header, pair, join}, "(0,2) is not a pair of the 2 relays"},
		{"an early join", []CheckpointRecord{join, header, pair}, "join of c before the campaign header"},
	} {
		cp := &MemCheckpoint{}
		for _, rec := range tc.recs {
			cp.Append(rec)
		}
		if st, err := ReplayState(cp); err == nil || st != nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want a refusal saying %q", tc.name, err, tc.want)
		}
	}
	cp := &MemCheckpoint{}
	for _, rec := range []CheckpointRecord{header, join, header, pair, {Kind: RecordPair, I: 2, J: 1, RTT: 9}} {
		cp.Append(rec)
	}
	st, err := ReplayState(cp)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := replayed(st, "a", "c"); v != 7 {
		t.Errorf("(a,c) = %v, want 7", v)
	}
	if v, _ := replayed(st, "c", "b"); v != 9 {
		t.Errorf("(b,c) = %v, want 9", v)
	}
}

// TestReplayStateMixedForms: a log whose pair records switch from indices
// to names part-way — an older scan appending to a newer log — is refused
// at its first named record, with the form named, and replays to no state;
// the same log all by index replays to the oracle's state. Each seed is a
// random log of headers, joins, leaves, rotations, shard and half records
// and pairs of introduced relays.
func TestReplayStateMixedForms(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		header := []string{"h0", "h1", "h2", "h3"}[:2+rng.Intn(3)]
		space := indexSpace{}
		var recs []CheckpointRecord
		add := func(rec CheckpointRecord) {
			space.add(rec)
			recs = append(recs, rec)
		}
		add(CheckpointRecord{Kind: RecordCampaign, Names: header, Fps: map[string]string{header[0]: "fp"}})
		for steps := 10 + rng.Intn(40); steps > 0; steps-- {
			switch n := len(space.names); rng.Intn(8) {
			case 0:
				add(CheckpointRecord{Kind: RecordChurn, Op: ChurnOpJoin, Relay: fmt.Sprintf("j%d", rng.Intn(4)), Fp: "fpj"})
			case 1:
				add(CheckpointRecord{Kind: RecordChurn, Op: ChurnOpLeave, Relay: space.names[rng.Intn(n)]})
			case 2:
				add(CheckpointRecord{Kind: RecordChurn, Op: ChurnOpRotate, Relay: space.names[rng.Intn(n)], Fp: "fpr"})
			case 3:
				add(CheckpointRecord{Kind: RecordHalf, Path: []string{"w", space.names[rng.Intn(n)]}, Samples: 3, Min: float64(rng.Intn(50))})
			case 4:
				add(CheckpointRecord{Kind: RecordCampaign, Names: header})
			default:
				i, j := rng.Intn(n), rng.Intn(n)
				if i != j {
					add(CheckpointRecord{Kind: RecordPair, I: min(i, j), J: max(i, j), RTT: float64(rng.Intn(4000)) / 8})
				}
			}
		}
		st, err := ReplayState(&MemCheckpoint{recs: recs})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if d := matchesOracle(recs, st); d != "" {
			t.Fatalf("seed %d: the all-index log: %s", seed, d)
		}
		// The pair records from a random one on spelled by name, as the
		// older scan logged them: the first of them is the one refused.
		cut := rng.Intn(len(recs))
		mixed := &MemCheckpoint{}
		var s indexSpace
		refused := ""
		for k, rec := range recs {
			s.add(rec)
			if rec.Kind == RecordPair && k >= cut {
				x, y, _ := s.pair(rec)
				if rng.Intn(2) == 0 {
					x, y = y, x
				}
				rec = CheckpointRecord{Kind: RecordPair, X: x, Y: y, RTT: rec.RTT}
				if refused == "" {
					refused = fmt.Sprintf("pair record (%q,%q) is in the named form", x, y)
				}
			}
			mixed.Append(rec)
		}
		if refused == "" {
			continue
		}
		got, err := ReplayState(mixed)
		if err == nil || got != nil || !strings.Contains(err.Error(), refused) {
			t.Fatalf("seed %d: the log named from record %d replays to %v, %v; want a refusal saying %s",
				seed, cut+1, got, err, refused)
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
		if err := cp.Append(CheckpointRecord{Kind: RecordPair, J: 1, RTT: float64(i + 1)}); err != nil {
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
