package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"ting/internal/ting"
	"ting/internal/wal"
)

// FuzzDecodeLease: arbitrary lease lines must never panic, and anything
// DecodeLease accepts must re-encode and re-decode to the identical lease
// (the wire is canonical: one lease, one line).
func FuzzDecodeLease(f *testing.F) {
	f.Add(EncodeLease(Lease{Shard: NewShard(0, 0, 0, 6), Epoch: 1, TTL: time.Second}))
	f.Add(EncodeLease(Lease{Shard: NewShard(1, 3, 10, 2016), Epoch: 999, TTL: 30 * time.Second}))
	f.Add("lease id=t0-0.p0-1 ti=0 tj=0 lo=0 hi=1 epoch=1 ttl_ms=100")
	f.Add("lease id=wrong ti=0 tj=0 lo=0 hi=1 epoch=1 ttl_ms=100")
	f.Add("lease id=t0-0.p0-1 ti=0 tj=0 lo=0 hi=1 epoch=0 ttl_ms=0")
	f.Add("lease id=t9-9.p9-9 ti=9 tj=9 lo=9 hi=9 epoch=9 ttl_ms=9")
	f.Add("lease id=t0-0.p0-1 ti=-1 tj=-2 lo=-3 hi=-4 epoch=1 ttl_ms=-5")
	f.Add("lease id= ti= tj= lo= hi= epoch= ttl_ms=")
	f.Add("lease lease lease lease lease lease lease lease")
	f.Add("")
	f.Add("done")
	f.Add("none")
	// TTLs past what a time.Duration holds in nanoseconds: these decoded to
	// -1 ms and to 192 µs before DecodeLease bounded them.
	f.Add("lease id=t0-0.p0-1 ti=0 tj=0 lo=0 hi=1 epoch=1 ttl_ms=9223372036854775807")
	f.Add("lease id=t0-0.p0-1 ti=0 tj=0 lo=0 hi=1 epoch=1 ttl_ms=9223372036854776")
	f.Fuzz(func(t *testing.T, line string) {
		l, err := DecodeLease(line)
		if err != nil {
			return
		}
		if err := l.Shard.Validate(); err != nil {
			t.Fatalf("accepted lease fails validation: %v", err)
		}
		if l.Epoch == 0 || l.TTL <= 0 {
			t.Fatalf("accepted lease with epoch %d ttl %v", l.Epoch, l.TTL)
		}
		again, err := DecodeLease(EncodeLease(l))
		if err != nil {
			t.Fatalf("canonical lease does not decode: %v", err)
		}
		if again != l {
			t.Fatalf("round trip changed the lease: %+v → %+v", l, again)
		}
	})
}

// decodeJournal decodes raw as journal lines the way recovery does:
// wal.Replay's decoding, then each record's own check.
func decodeJournal(raw []byte) (recs []journalRecord, err error) {
	err = wal.Replay(bytes.NewReader(append(raw[:len(raw):len(raw)], '\n')), func(r journalRecord) error {
		recs = append(recs, r)
		return r.check()
	})
	return recs, err
}

// FuzzDecodeJournal: arbitrary journals must never panic recovery, and
// anything recovery's decoding (wal.Replay, then journalRecord.check)
// accepts must re-encode and re-decode to the identical record — the
// journal is canonical JSONL — and is no complete record in the named
// form. A journal recovery accepts compacts to a snapshot that recovers the
// same ledger: compaction can never change what a journal means. The named
// seeds exercise refusal.
func FuzzDecodeJournal(f *testing.F) {
	line := func(rec journalRecord) []byte {
		b, err := json.Marshal(rec) // the journal's bytes for rec (TestGoldenJournal)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	seed := func(rec journalRecord) { f.Add(line(rec)) }
	seed(journalHeader(fakeNames(3), []Shard{NewShard(0, 0, 0, 3)}, time.Second, 0))
	seed(journalHeader(fakeNames(5), Partition(5, 3), 30*time.Second, 42))
	seed(journalRecord{Kind: journalGrant, Shard: "t0-0.p0-3", Worker: "w1", Epoch: 1, Deadline: 1700000000000000000})
	seed(journalRecord{Kind: journalGrant, Shard: "t0-0.p0-3", Worker: "w2", Epoch: 7, Deadline: 1, Regrants: 3})
	f.Add([]byte(`{"t":"complete","shard":"t0-0.p0-3","worker":"w1","epoch":1,"results":[{"x":"a","y":"b","rtt":1.25},{"x":"a","y":"c","failed":true}]}`))
	// A retired kind older journals carry: skipped like any unknown one.
	f.Add([]byte(`{"t":"lost","shard":"t0-0.p0-3","worker":"w1","epoch":1,"x":"a","y":"c"}`))
	f.Add([]byte(`{"t":"campaign","names":["a"],"shards":[],"ttl_ms":0}`))
	f.Add([]byte(`{"t":"grant","shard":"","epoch":0}`))
	f.Add([]byte(`{"t":"complete","shard":"s","epoch":1,"results":[{"x":"a","y":"a"}]}`))
	f.Add([]byte(`{"t":"lost","shard":"s"}`))
	f.Add([]byte(`{"t":"future-kind","whatever":1}`))
	f.Add([]byte(`{"t":"complete","shard":"s","epo`)) // torn tail
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	// The index form, alone and in whole journals: all by index, and mixed
	// with the named form, which recovery refuses.
	seed(journalRecord{Kind: journalComplete, Shard: "t0-0.p0-3", Worker: "w1", Epoch: 1, RTTs: []float64{1.25, 0, 3}, Failed: []int{1}})
	f.Add([]byte(`{"t":"complete","shard":"s","epoch":1,"rtts":[1],"results":[{"x":"a","y":"b"}]}`))
	names := fakeNames(4)
	head := line(journalHeader(names, Partition(4, 2), time.Second, 0))
	grants := append(append(line(journalRecord{Kind: journalGrant, Shard: "t0-0.p0-3", Worker: "w1", Epoch: 1, Deadline: 1}), '\n'),
		line(journalRecord{Kind: journalGrant, Shard: "t0-0.p3-6", Worker: "w2", Epoch: 2, Deadline: 1})...)
	byIndex := line(journalRecord{Kind: journalComplete, Shard: "t0-0.p3-6", Worker: "w2", Epoch: 2, RTTs: []float64{4, 5.5, 0}, Failed: []int{2}})
	named := []byte(fmt.Sprintf(`{"t":"complete","shard":"t0-0.p0-3","worker":"w1","epoch":1,"results":[{"x":%q,"y":%q,"rtt":1},{"x":%q,"y":%q,"failed":true},{"x":%q,"y":%q,"rtt":3}]}`,
		names[0], names[1], names[0], names[2], names[0], names[3]))
	f.Add(bytes.Join([][]byte{head, grants, byIndex}, []byte("\n")))
	f.Add(bytes.Join([][]byte{head, grants, named, byIndex}, []byte("\n")))
	for _, golden := range []string{"testdata/v2.journal", "testdata/parent-format.journal"} {
		raw, err := os.ReadFile(golden)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		recs, err := decodeJournal(raw)
		if err != nil {
			return
		}
		// omitempty drops empty-but-non-nil slices, so "[]" canonicalizes to
		// absent — same meaning, different Go representation.
		norm := func(r journalRecord) journalRecord {
			if len(r.Names) == 0 {
				r.Names = nil
			}
			if len(r.Shards) == 0 {
				r.Shards = nil
			}
			if len(r.Named) == 0 {
				r.Named = nil
			}
			if len(r.RTTs) == 0 {
				r.RTTs = nil
			}
			if len(r.Failed) == 0 {
				r.Failed = nil
			}
			return r
		}
		for _, rec := range recs {
			if rec.Kind == journalComplete && rec.Named != nil {
				t.Fatalf("accepted a complete record in the named form: %+v", rec)
			}
			b, err := json.Marshal(rec)
			if err != nil {
				t.Fatalf("accepted record does not re-encode: %v", err)
			}
			again, err := decodeJournal(b)
			if err != nil || len(again) != 1 {
				t.Fatalf("canonical record does not decode to one: %v", err)
			}
			if !reflect.DeepEqual(norm(rec), norm(again[0])) {
				t.Fatalf("round trip changed the record:\n%+v\n%+v", rec, again[0])
			}
		}
		c, _, err := replayJournal(bytes.NewReader(raw), nil)
		if err != nil {
			return
		}
		var snap bytes.Buffer
		for _, rec := range c.snapshotLocked() {
			snap.Write(append(line(rec), '\n'))
		}
		c2, _, err := replayJournal(&snap, nil)
		if err != nil {
			t.Fatalf("the snapshot of an accepted journal does not recover: %v\n%s", err, snap.Bytes())
		}
		// Snapshot expires leases by the clock: one fixed instant for both.
		fixed := func() time.Time { return time.Unix(0, 0) }
		c.clock, c2.clock = fixed, fixed
		var a, b bytes.Buffer
		if err := c.ledger.Encode(&a); err != nil {
			t.Fatal(err)
		}
		if err := c2.ledger.Encode(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) || !reflect.DeepEqual(c.Snapshot(), c2.Snapshot()) {
			t.Fatalf("the snapshot recovers another ledger:\n%+v\n%+v", c.Snapshot(), c2.Snapshot())
		}
	})
}

// completeReference is the check Complete made before it walked the shard's
// geometry: the results cover the shard's pairs as a set — each pair once,
// nothing extra — in any order.
func completeReference(pairs [][2]string, results []PairResult) bool {
	want := make(map[[2]string]bool, len(pairs))
	for _, p := range pairs {
		want[p] = false
	}
	for _, r := range results {
		k := [2]string{r.X, r.Y}
		seen, ok := want[k]
		if !ok || seen {
			return false
		}
		want[k] = true
	}
	return len(results) == len(pairs)
}

// blockPairs lists a shard's pairs by brute force — every pair (i < j) of
// its tile block, row-major, then [Lo, Hi) of that — independently of the
// cursor Shard.Pairs walks.
func blockPairs(sh Shard, names []string) [][2]string {
	var block [][2]string
	iLo, jLo := sh.TI*ting.TileDim, sh.TJ*ting.TileDim
	for i := iLo; i < min(iLo+ting.TileDim, len(names)); i++ {
		for j := max(jLo, i+1); j < min(jLo+ting.TileDim, len(names)); j++ {
			block = append(block, [2]string{names[i], names[j]})
		}
	}
	return block[sh.Lo:sh.Hi]
}

// FuzzComplete: Complete accepts a submission exactly when the set check
// it replaced accepts it, it lists the pairs in canonical order and every
// RTT is finite. Each submission starts as one shard's canonical list, then
// each 3-byte step of ops permutes, drops, duplicates, renames, adds or
// flips a pair, or gives one a NaN or infinite RTT.
func FuzzComplete(f *testing.F) {
	f.Add(uint8(4), uint8(1), uint8(0), []byte{})
	f.Add(uint8(4), uint8(2), uint8(1), []byte{0, 0, 1})
	f.Add(uint8(10), uint8(3), uint8(2), []byte{1, 3, 0})
	f.Add(uint8(10), uint8(3), uint8(0), []byte{2, 1, 0})
	f.Add(uint8(10), uint8(5), uint8(1), []byte{3, 0, 7})
	f.Add(uint8(70), uint8(4), uint8(3), []byte{4, 2, 69})
	f.Add(uint8(70), uint8(9), uint8(5), []byte{5, 1, 0, 5, 1, 0})
	f.Add(uint8(130), uint8(20), uint8(11), []byte{0, 3, 5, 0, 3, 5})
	f.Add(uint8(10), uint8(3), uint8(2), []byte{6, 1, 0})
	f.Add(uint8(70), uint8(4), uint8(3), []byte{6, 0, 1, 5, 0, 0, 6, 2, 2})
	f.Fuzz(func(t *testing.T, n, target, pick uint8, ops []byte) {
		names := fakeNames(2 + int(n)%150)
		shards := Partition(len(names), 1+int(target)%40)
		sh := shards[int(pick)%len(shards)]
		pairs := blockPairs(sh, names)
		if got, err := sh.Pairs(names); err != nil || !slices.Equal(got, pairs) {
			t.Fatalf("shard %s: Pairs = %v (%v), want %v", sh.ID, got, err, pairs)
		}
		results := make([]PairResult, len(pairs))
		for k, p := range pairs {
			results[k] = PairResult{X: p[0], Y: p[1], RTT: float64(k + 1)}
		}
		for ; len(ops) >= 3; ops = ops[3:] {
			a, b := int(ops[1]), int(ops[2])
			if len(results) == 0 && ops[0]%7 != 4 {
				continue
			}
			switch ops[0] % 7 {
			case 0: // permute
				a, b = a%len(results), b%len(results)
				results[a], results[b] = results[b], results[a]
			case 1: // drop
				a %= len(results)
				results = append(results[:a], results[a+1:]...)
			case 2: // duplicate
				results = append(results, results[a%len(results)])
			case 3: // rename one endpoint, to any relay or a ghost
				r := &results[a%len(results)]
				if b%len(names) == 0 {
					r.Y = "ghost"
				} else {
					r.Y = names[b%len(names)]
				}
			case 4: // add any pair
				results = append(results, PairResult{X: names[a%len(names)], Y: names[b%len(names)]})
			case 5: // flip
				r := &results[a%len(results)]
				r.X, r.Y = r.Y, r.X
			case 6: // a value no journal or matrix document can hold
				results[a%len(results)].RTT = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[b%3]
			}
		}
		canonical := slices.EqualFunc(results, pairs, func(r PairResult, p [2]string) bool {
			return r.X == p[0] && r.Y == p[1]
		})
		finite := !slices.ContainsFunc(results, func(r PairResult) bool {
			return math.IsNaN(r.RTT) || math.IsInf(r.RTT, 0)
		})
		want := completeReference(pairs, results) && canonical && finite

		c, err := NewCoordinator(names, shards, time.Hour, nil)
		if err != nil {
			t.Fatal(err)
		}
		var lease Lease
		for lease.Shard.ID != sh.ID {
			if lease, _, err = c.Acquire("w"); err != nil {
				t.Fatal(err)
			}
		}
		err = c.Complete("w", sh.ID, lease.Epoch, results)
		if got := err == nil; got != want {
			t.Fatalf("shard %s: Complete(%v) = %v, want accepted %v", sh.ID, results, err, want)
		}
		wantDone := 0
		if want {
			wantDone = 1
		}
		if done := c.Snapshot().Done; done != wantDone {
			t.Fatalf("%d shards done after Complete returned %v", done, err)
		}
	})
}
