package campaign

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ting/internal/ting"
	"ting/internal/wal"
)

func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "campaign.journal")
}

// newJournaled builds a journaled coordinator on a fake clock.
func newJournaled(t *testing.T, names []string, shards []Shard, path string, clock *fakeClock) *Coordinator {
	t.Helper()
	c, err := NewJournaledCoordinator(names, shards, time.Second, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.clock = clock.now
	return c
}

// recover rebuilds a coordinator from its journal, keeping the fake clock
// attached before anything can run an expiry pass against the real one.
func recoverJournaled(t *testing.T, path string, clock *fakeClock) *Coordinator {
	t.Helper()
	c, err := RecoverCoordinator(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.clock = clock.now
	return c
}

// TestRecoverResumesEpochWatermark is the invariant everything rests on: a
// coordinator rebuilt from its journal can never grant an epoch at or
// below any epoch the dead coordinator ever handed out.
func TestRecoverResumesEpochWatermark(t *testing.T) {
	names := fakeNames(4)
	shards := Partition(len(names), 2)
	path := journalPath(t)
	clock := newFakeClock()
	c1 := newJournaled(t, names, shards, path, clock)

	l1, res, err := c1.Acquire("w1")
	if err != nil || res != AcquireGranted {
		t.Fatal(res, err)
	}
	l2, res, err := c1.Acquire("w2")
	if err != nil || res != AcquireGranted {
		t.Fatal(res, err)
	}
	if l1.Epoch != 1 || l2.Epoch != 2 {
		t.Fatalf("epochs %d, %d; want 1, 2", l1.Epoch, l2.Epoch)
	}
	// Crash: the coordinator vanishes without closing its journal.

	c2 := recoverJournaled(t, path, clock)
	st := c2.Snapshot()
	if st.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", st.Recoveries)
	}
	if st.EpochWatermark != 2 {
		t.Fatalf("EpochWatermark = %d, want 2", st.EpochWatermark)
	}
	if st.Leased != 2 || st.Pending != 0 {
		t.Fatalf("recovered ledger: %d leased, %d pending; want 2, 0", st.Leased, st.Pending)
	}

	// Expire both pre-crash leases; the re-grants must sit strictly above
	// the watermark.
	clock.advance(2 * time.Second)
	l3, res, err := c2.Acquire("w3")
	if err != nil || res != AcquireGranted {
		t.Fatal(res, err)
	}
	if l3.Epoch <= 2 {
		t.Fatalf("post-recovery epoch %d not above pre-crash watermark 2", l3.Epoch)
	}
}

// TestRecoverCrashBetweenGrantAndComplete: the coordinator dies after
// granting but before the submission lands. The recovered coordinator
// honors the pre-crash lease — the worker, which never noticed anything,
// completes at its recorded epoch and the results merge normally.
func TestRecoverCrashBetweenGrantAndComplete(t *testing.T) {
	names := fakeNames(3)
	shards := []Shard{NewShard(0, 0, 0, 3)}
	path := journalPath(t)
	clock := newFakeClock()
	c1 := newJournaled(t, names, shards, path, clock)

	l, res, err := c1.Acquire("w1")
	if err != nil || res != AcquireGranted {
		t.Fatal(res, err)
	}

	c2 := recoverJournaled(t, path, clock)
	clock.advance(300 * time.Millisecond) // inside the TTL: lease still live
	if err := c2.Heartbeat("w1", l.Shard.ID, l.Epoch); err != nil {
		t.Fatalf("pre-crash lease heartbeat after recovery: %v", err)
	}
	if err := c2.Complete("w1", l.Shard.ID, l.Epoch, fullResults(t, l.Shard, names)); err != nil {
		t.Fatalf("pre-crash lease complete after recovery: %v", err)
	}
	select {
	case <-c2.Done():
	default:
		t.Fatal("Done not closed after last shard completed")
	}
	if _, err := c2.Merged(); err != nil {
		t.Fatalf("merge after recovery: %v", err)
	}
}

// TestRecoverFencesLateCompleteAfterRegrant: a pre-crash holder that shows
// up only after the recovered coordinator re-granted its shard is fenced —
// last writer wins, exactly as without a crash in between.
func TestRecoverFencesLateCompleteAfterRegrant(t *testing.T) {
	names := fakeNames(3)
	shards := []Shard{NewShard(0, 0, 0, 3)}
	path := journalPath(t)
	clock := newFakeClock()
	c1 := newJournaled(t, names, shards, path, clock)

	l1, res, err := c1.Acquire("w1")
	if err != nil || res != AcquireGranted {
		t.Fatal(res, err)
	}

	c2 := recoverJournaled(t, path, clock)
	clock.advance(2 * time.Second) // journaled deadline passes
	l2, res, err := c2.Acquire("w2")
	if err != nil || res != AcquireGranted {
		t.Fatal(res, err)
	}
	if l2.Epoch <= l1.Epoch {
		t.Fatalf("re-grant epoch %d not above pre-crash epoch %d", l2.Epoch, l1.Epoch)
	}
	if err := c2.Complete("w1", l1.Shard.ID, l1.Epoch, fullResults(t, l1.Shard, names)); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale pre-crash complete: %v, want ErrFenced", err)
	}
	if err := c2.Complete("w2", l2.Shard.ID, l2.Epoch, fullResults(t, l2.Shard, names)); err != nil {
		t.Fatalf("new holder complete: %v", err)
	}
}

// TestDoubleRecovery: recover, make progress, crash again, recover again.
// Done shards survive both hops with their full submissions, and the
// journal the second recovery appends to is not corrupted by the first.
func TestDoubleRecovery(t *testing.T) {
	names := fakeNames(4)
	shards := Partition(len(names), 2)
	path := journalPath(t)
	clock := newFakeClock()
	c1 := newJournaled(t, names, shards, path, clock)

	l1, res, err := c1.Acquire("w1")
	if err != nil || res != AcquireGranted {
		t.Fatal(res, err)
	}

	c2 := recoverJournaled(t, path, clock)
	if err := c2.Complete("w1", l1.Shard.ID, l1.Epoch, fullResults(t, l1.Shard, names)); err != nil {
		t.Fatal(err)
	}
	l2, res, err := c2.Acquire("w2")
	if err != nil || res != AcquireGranted {
		t.Fatal(res, err)
	}

	c3 := recoverJournaled(t, path, clock)
	st := c3.Snapshot()
	if st.Done != 1 || st.Leased != 1 {
		t.Fatalf("after second recovery: %d done, %d leased; want 1, 1", st.Done, st.Leased)
	}
	if st.EpochWatermark != l2.Epoch {
		t.Fatalf("watermark %d, want %d", st.EpochWatermark, l2.Epoch)
	}
	if err := c3.Complete("w2", l2.Shard.ID, l2.Epoch, fullResults(t, l2.Shard, names)); err != nil {
		t.Fatal(err)
	}
	m, err := c3.Merged()
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != len(names) {
		t.Fatalf("merged matrix over %d relays, want %d", m.N(), len(names))
	}
}

// TestTornTailSurvivesTwoResumes pins wal's repair-on-open through both
// record schemas: a crash mid-append leaves a partial record with no
// newline; the first reopen drops it from the replay and cuts it off the
// file, so the records appended next start on a fresh line and the second
// reopen replays everything — rather than finding the fragment glued to an
// acknowledged record in mid-file. (Before internal/wal only the journal
// trimmed; a scan checkpoint refused its second resume.)
func TestTornTailSurvivesTwoResumes(t *testing.T) {
	names := fakeNames(4)
	shards := Partition(len(names), 2)
	clock := newFakeClock()
	var held Lease

	pairs := func(t *testing.T, path string) int {
		t.Helper()
		cp, err := ting.OpenFileCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		defer cp.Close()
		st, err := ting.ReplayState(cp)
		if err != nil {
			t.Fatalf("resume refused: %v", err)
		}
		return st.Matrix.ProvCounts().Resumed
	}
	appendPairs := func(t *testing.T, path string, recs ...ting.CheckpointRecord) {
		t.Helper()
		cp, err := ting.OpenFileCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if err := cp.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := cp.Close(); err != nil {
			t.Fatal(err)
		}
	}
	pair := func(x, y int) ting.CheckpointRecord {
		return ting.CheckpointRecord{Kind: ting.RecordPair, X: names[x], Y: names[y], RTT: float64(10*x + y)}
	}

	for _, tc := range []struct {
		name     string
		fragment func() string
		// start writes the log's first records; first and second are the two
		// resumes — each checks what the log holds, first also appends twice.
		start, first, second func(t *testing.T, path string)
	}{
		{
			name:     "checkpoint",
			fragment: func() string { return `{"t":"pair","x":"relay003","y":` },
			start: func(t *testing.T, path string) {
				appendPairs(t, path, ting.CheckpointRecord{Kind: ting.RecordCampaign, Names: names}, pair(0, 1))
			},
			first: func(t *testing.T, path string) {
				if n := pairs(t, path); n != 1 {
					t.Fatalf("first resume sees %d pairs, want 1", n)
				}
				appendPairs(t, path, pair(0, 2), pair(1, 2))
			},
			second: func(t *testing.T, path string) {
				if n := pairs(t, path); n != 3 {
					t.Fatalf("second resume sees %d pairs, want 3", n)
				}
			},
		},
		{
			name:     "journal",
			fragment: func() string { return `{"t":"complete","shard":"` + held.Shard.ID + `","epo` },
			start: func(t *testing.T, path string) {
				c := newJournaled(t, names, shards, path, clock)
				var res AcquireResult
				var err error
				if held, res, err = c.Acquire("w1"); err != nil || res != AcquireGranted {
					t.Fatal(res, err)
				}
			},
			first: func(t *testing.T, path string) {
				c := recoverJournaled(t, path, clock)
				if st := c.Snapshot(); st.Done != 0 || st.Leased != 1 {
					t.Fatalf("torn complete not dropped: %d done, %d leased", st.Done, st.Leased)
				}
				if err := c.Complete("w1", held.Shard.ID, held.Epoch, fullResults(t, held.Shard, names)); err != nil {
					t.Fatal(err)
				}
				if _, res, err := c.Acquire("w2"); err != nil || res != AcquireGranted {
					t.Fatal(res, err)
				}
			},
			second: func(t *testing.T, path string) {
				c := recoverJournaled(t, path, clock)
				if st := c.Snapshot(); st.Done != 1 || st.Leased != 1 {
					t.Fatalf("after second recovery: %d done, %d leased, want 1 and 1", st.Done, st.Leased)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log")
			tc.start(t, path)
			// The crash lands mid-way through writing a record.
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(tc.fragment()); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			tc.first(t, path)
			tc.second(t, path)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Contains(data, []byte(tc.fragment())) || !bytes.HasSuffix(data, []byte("}\n")) {
				t.Fatalf("the fragment is still in the file:\n%s", data)
			}
		})
	}
}

// TestRecoverRejectsMidFileCorruption: an undecodable record with records
// after it is not a torn tail — it is corruption, and recovery must refuse
// rather than silently drop acknowledged state.
func TestRecoverRejectsMidFileCorruption(t *testing.T) {
	names := fakeNames(3)
	shards := []Shard{NewShard(0, 0, 0, 3)}
	path := journalPath(t)
	clock := newFakeClock()
	c1 := newJournaled(t, names, shards, path, clock)
	if _, res, err := c1.Acquire("w1"); err != nil || res != AcquireGranted {
		t.Fatal(res, err)
	}

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(b), "\n")
	// Corrupt the header (line 1) while the grant (line 2) survives.
	lines[0] = "{\"t\":\"campaign\",garbage\n"
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RecoverCoordinator(path, nil); err == nil {
		t.Fatal("recovery accepted a journal with mid-file corruption")
	}
}

// TestRecoverRejectsOverlappingShards: a journal whose header lists two
// shards sharing pairs (one an older coordinator accepted, or a doctored
// one) must not come back as a campaign that measures those pairs twice.
func TestRecoverRejectsOverlappingShards(t *testing.T) {
	path := journalPath(t)
	j, err := wal.Open[journalRecord](path)
	if err != nil {
		t.Fatal(err)
	}
	shards := []Shard{NewShard(0, 0, 0, 4), NewShard(0, 0, 2, 6)}
	if err := j.Append(journalHeader(fakeNames(4), shards, time.Second, 0)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := RecoverCoordinator(path, nil); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("recovery of overlapping shards: err = %v, want an overlap error", err)
	}
}

// TestCompactJournalPreservesState: compaction must be invisible to
// recovery — same done set (bytewise same submissions), same leases, same
// reassignment counts, same epoch watermark — while the post-compaction
// journal keeps accepting appends.
func TestCompactJournalPreservesState(t *testing.T) {
	names := fakeNames(5)
	shards := Partition(len(names), 3)
	path := journalPath(t)
	clock := newFakeClock()
	c1 := newJournaled(t, names, shards, path, clock)

	// Shard 1 granted and completed.
	lA, res, err := c1.Acquire("w1")
	if err != nil || res != AcquireGranted {
		t.Fatal(res, err)
	}
	if err := c1.Complete("w1", lA.Shard.ID, lA.Epoch, fullResults(t, lA.Shard, names)); err != nil {
		t.Fatal(err)
	}
	// Shard 2 granted, expired, re-granted: a reassignment to preserve.
	lB, res, err := c1.Acquire("w1")
	if err != nil || res != AcquireGranted {
		t.Fatal(res, err)
	}
	clock.advance(2 * time.Second)
	lB2, res, err := c1.Acquire("w2")
	if err != nil || res != AcquireGranted {
		t.Fatal(res, err)
	}
	if lB2.Shard.ID != lB.Shard.ID {
		// With all other shards pending this cannot happen; guard anyway.
		t.Fatalf("expected re-grant of %s, got %s", lB.Shard.ID, lB2.Shard.ID)
	}

	before := c1.Snapshot()
	if err := c1.CompactJournal(); err != nil {
		t.Fatal(err)
	}

	c2 := recoverJournaled(t, path, clock)
	after := c2.Snapshot()
	after.Recoveries = before.Recoveries // the one field allowed to differ
	if len(before.Shards) != len(after.Shards) {
		t.Fatalf("shard rows: %d vs %d", len(before.Shards), len(after.Shards))
	}
	for i := range before.Shards {
		if before.Shards[i] != after.Shards[i] {
			t.Fatalf("shard %d: %+v vs %+v", i, before.Shards[i], after.Shards[i])
		}
	}
	if before.EpochWatermark != after.EpochWatermark {
		t.Fatalf("watermark %d vs %d", before.EpochWatermark, after.EpochWatermark)
	}
	if before.Reassigned != after.Reassigned {
		t.Fatalf("reassigned %d vs %d", before.Reassigned, after.Reassigned)
	}

	// The compacted journal still takes appends: finish the campaign and
	// recover once more.
	if err := c2.Complete("w2", lB2.Shard.ID, lB2.Epoch, fullResults(t, lB2.Shard, names)); err != nil {
		t.Fatal(err)
	}
	for {
		l, res, err := c2.Acquire("w3")
		if err != nil {
			t.Fatal(err)
		}
		if res != AcquireGranted {
			break
		}
		if err := c2.Complete("w3", l.Shard.ID, l.Epoch, fullResults(t, l.Shard, names)); err != nil {
			t.Fatal(err)
		}
	}
	c3 := recoverJournaled(t, path, clock)
	if st := c3.Snapshot(); st.Done != st.Total {
		t.Fatalf("after compaction + appends + recovery: %d/%d done", st.Done, st.Total)
	}
	wantM, err := c2.Merged()
	if err != nil {
		t.Fatal(err)
	}
	gotM, err := c3.Merged()
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := wantM.Encode(&want); err != nil {
		t.Fatal(err)
	}
	if err := gotM.Encode(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("recovered merge differs from live merge after compaction")
	}
}

// TestCreateJournalRefusesExisting: starting a "new" campaign over an
// existing journal would orphan acknowledged state — that is a recovery
// situation, and CreateJournal must say so.
func TestCreateJournalRefusesExisting(t *testing.T) {
	names := fakeNames(3)
	shards := []Shard{NewShard(0, 0, 0, 3)}
	path := journalPath(t)
	clock := newFakeClock()
	newJournaled(t, names, shards, path, clock)
	if _, err := NewJournaledCoordinator(names, shards, time.Second, path, nil); err == nil {
		t.Fatal("second campaign over an existing journal was allowed")
	}
}

// TestRecoveredDoneCampaign: recovering a finished campaign yields a
// coordinator whose Done channel is already closed and whose Acquire says
// done — a restarted tingcamp falls straight through to the merge.
func TestRecoveredDoneCampaign(t *testing.T) {
	names := fakeNames(3)
	shards := []Shard{NewShard(0, 0, 0, 3)}
	path := journalPath(t)
	clock := newFakeClock()
	c1 := newJournaled(t, names, shards, path, clock)
	l, res, err := c1.Acquire("w1")
	if err != nil || res != AcquireGranted {
		t.Fatal(res, err)
	}
	if err := c1.Complete("w1", l.Shard.ID, l.Epoch, fullResults(t, l.Shard, names)); err != nil {
		t.Fatal(err)
	}

	c2 := recoverJournaled(t, path, clock)
	select {
	case <-c2.Done():
	default:
		t.Fatal("recovered done campaign: Done not closed")
	}
	if _, res, _ := c2.Acquire("w2"); res != AcquireDone {
		t.Fatalf("acquire on recovered done campaign: %v, want done", res)
	}
	if _, err := c2.Merged(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverRefusesBadCompleteRecord: replay checks a complete record as
// Complete checks a submission. A record that misses a pair of its shard
// would recover a hole LostPairs never counts, one carrying another shard's
// pair would overwrite that shard's cell in Merged, and one out of canonical
// order is a submission Complete never accepted. Each is refused by name.
func TestRecoverRefusesBadCompleteRecord(t *testing.T) {
	const head = `{"t":"campaign","names":["relayA","relayB","relayC","relayD"],"shards":[{"ti":0,"tj":0,"lo":0,"hi":3},{"ti":0,"tj":0,"lo":3,"hi":6}],"ttl_ms":30000}
{"t":"grant","shard":"t0-0.p0-3","worker":"w1","epoch":1,"deadline":1700000030000000000}
`
	complete := func(results string) string {
		return `{"t":"complete","shard":"t0-0.p0-3","worker":"w1","epoch":1,"results":[` + results + "]}\n"
	}
	for _, tc := range []struct{ name, results string }{
		{"missing pair", `{"x":"relayA","y":"relayB","rtt":10.5},{"x":"relayA","y":"relayD","rtt":12.5}`},
		{"foreign pair", `{"x":"relayA","y":"relayB","rtt":10.5},{"x":"relayA","y":"relayC","rtt":11.5},{"x":"relayB","y":"relayC","rtt":9}`},
		{"out of order", `{"x":"relayA","y":"relayC","rtt":11.5},{"x":"relayA","y":"relayB","rtt":10.5},{"x":"relayA","y":"relayD","rtt":12.5}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := journalPath(t)
			if err := os.WriteFile(path, []byte(head+complete(tc.results)), 0o644); err != nil {
				t.Fatal(err)
			}
			c, err := RecoverCoordinator(path, nil)
			if err == nil {
				c.Journal().Close()
				t.Fatalf("recovered a journal with a bad complete record (%s): %+v", tc.name, c.Snapshot())
			}
			if !strings.Contains(err.Error(), "t0-0.p0-3") {
				t.Errorf("refusal %q does not name the shard", err)
			}
		})
	}
	// The shard's pairs in canonical order recover.
	path := journalPath(t)
	ok := `{"x":"relayA","y":"relayB","rtt":10.5},{"x":"relayA","y":"relayC","rtt":11.5},{"x":"relayA","y":"relayD","rtt":12.5}`
	if err := os.WriteFile(path, []byte(head+complete(ok)), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := RecoverCoordinator(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Journal().Close()
	if st := c.Snapshot(); st.Done != 1 || st.LostPairs != 0 {
		t.Errorf("recovered ledger %+v, want one done shard", st)
	}
}
