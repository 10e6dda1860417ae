package campaign

import (
	"bytes"
	"reflect"
	"testing"
	"time"
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

// FuzzDecodeJournal: arbitrary journal lines must never panic, and
// anything decodeJournalRecord accepts must re-encode and re-decode to the
// identical record — the journal is canonical JSONL, so compaction
// (re-encoding replayed records) can never change their meaning.
func FuzzDecodeJournal(f *testing.F) {
	seed := func(rec journalRecord) {
		b, err := encodeJournalRecord(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(journalHeader(fakeNames(3), []Shard{NewShard(0, 0, 0, 3)}, time.Second, 0))
	seed(journalHeader(fakeNames(5), Partition(5, 3), 30*time.Second, 42))
	seed(journalRecord{Kind: journalGrant, Shard: "t0-0.p0-3", Worker: "w1", Epoch: 1, Deadline: 1700000000000000000})
	seed(journalRecord{Kind: journalGrant, Shard: "t0-0.p0-3", Worker: "w2", Epoch: 7, Deadline: 1, Regrants: 3})
	seed(journalRecord{
		Kind: journalComplete, Shard: "t0-0.p0-3", Worker: "w1", Epoch: 1,
		Results: []PairResult{{X: "a", Y: "b", RTT: 1.25}, {X: "a", Y: "c", Failed: true}},
	})
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
	f.Fuzz(func(t *testing.T, raw []byte) {
		rec, err := decodeJournalRecord(raw)
		if err != nil {
			return
		}
		b, err := encodeJournalRecord(rec)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		again, err := decodeJournalRecord(bytes.TrimSpace(b))
		if err != nil {
			t.Fatalf("canonical record does not decode: %v", err)
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
			if len(r.Results) == 0 {
				r.Results = nil
			}
			return r
		}
		if !reflect.DeepEqual(norm(rec), norm(again)) {
			t.Fatalf("round trip changed the record:\n%+v\n%+v", rec, again)
		}
	})
}
