package wal_test

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ting/internal/campaign"
	"ting/internal/directory"
	"ting/internal/wal"
)

// These tests drive the campaign coordinator — the log's strictest client:
// nothing may be acknowledged that a recovered coordinator would not know —
// with its journal rerouted through the injectable filesystem. They live
// here because the seam is unexported.

func results(t *testing.T, sh campaign.Shard, names []string) []campaign.PairResult {
	t.Helper()
	pairs, err := sh.Pairs(names)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]campaign.PairResult, len(pairs))
	for i, p := range pairs {
		out[i] = campaign.PairResult{X: p[0], Y: p[1], RTT: float64(10 + i)}
	}
	return out
}

// TestCoordinatorJournalFailure: when the journal write or fsync behind a
// grant fails, the grant is refused and no epoch is burned; the journal
// stays failed, so no later grant or completion can concatenate onto the
// fragment; and RecoverCoordinator on the file left behind succeeds and
// grants strictly above every epoch a worker was ever told.
func TestCoordinatorJournalFailure(t *testing.T) {
	names := []string{"relay0", "relay1", "relay2", "relay3"}
	for _, tc := range []struct {
		name  string
		op    string
		fault wal.Fault
	}{
		{"short write", "write", wal.Fault{Err: io.ErrShortWrite, Partial: 9}},
		{"ENOSPC", "write", wal.Fault{Err: wal.ErrNoSpace, Partial: 1}},
		{"fsync", "sync", wal.Fault{Err: wal.ErrInjected}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "campaign.journal")
			shards := campaign.Partition(len(names), 6)
			coord, err := campaign.NewJournaledCoordinator(names, shards, time.Minute, path, nil)
			if err != nil {
				t.Fatal(err)
			}
			held, res, err := coord.Acquire("w1")
			if err != nil || res != campaign.AcquireGranted {
				t.Fatal(res, err)
			}

			fs := &wal.FaultFS{}
			fs.FailAt(tc.op, 1, tc.fault)
			coord.Journal().InjectFaults(fs)
			if l, res, err := coord.Acquire("w2"); !errors.Is(err, tc.fault.Err) || res == campaign.AcquireGranted {
				t.Fatalf("grant over a failing journal: lease %+v, result %v, err %v", l, res, err)
			}
			if st := coord.Snapshot(); st.EpochWatermark != held.Epoch || st.Leased != 1 {
				t.Fatalf("refused grant changed the ledger: watermark %d, %d leased", st.EpochWatermark, st.Leased)
			}
			// Sticky: the journal takes nothing more, so neither does the ledger.
			if _, res, err := coord.Acquire("w2"); !errors.Is(err, tc.fault.Err) || res == campaign.AcquireGranted {
				t.Fatalf("second grant over the failed journal: %v, %v", res, err)
			}
			if err := coord.Complete("w1", held.Shard.ID, held.Epoch, results(t, held.Shard, names)); !errors.Is(err, tc.fault.Err) {
				t.Fatalf("completion over the failed journal: %v", err)
			}
			if st := coord.Snapshot(); st.Done != 0 || st.EpochWatermark != held.Epoch {
				t.Fatalf("failed journal, yet %d done, watermark %d", st.Done, st.EpochWatermark)
			}
			if err := coord.Journal().Close(); !errors.Is(err, tc.fault.Err) {
				t.Fatalf("Close of the failed journal: %v", err)
			}

			rec, err := campaign.RecoverCoordinator(path, nil)
			if err != nil {
				t.Fatalf("recovery after %s: %v", tc.name, err)
			}
			defer rec.Journal().Close()
			// w1 was told epoch 1; a grant whose fsync failed may be in the file
			// (nobody was told), so the watermark is 1 or 2 — never below 1.
			st := rec.Snapshot()
			if st.EpochWatermark < held.Epoch || st.Done != 0 {
				t.Fatalf("recovered watermark %d, %d done", st.EpochWatermark, st.Done)
			}
			if err := rec.Complete("w1", held.Shard.ID, held.Epoch, results(t, held.Shard, names)); err != nil {
				t.Fatalf("w1's lease did not survive: %v", err)
			}
			l, res, err := rec.Acquire("w3")
			if err != nil || res != campaign.AcquireGranted || l.Epoch <= st.EpochWatermark {
				t.Fatalf("post-recovery grant: %+v, %v, %v", l, res, err)
			}
			// And the file the three of them wrote replays once more.
			rec.Journal().Close()
			again, err := campaign.RecoverCoordinator(path, nil)
			if err != nil {
				t.Fatalf("second recovery: %v", err)
			}
			defer again.Journal().Close()
			if st := again.Snapshot(); st.Done != 1 || st.EpochWatermark != l.Epoch {
				t.Fatalf("second recovery: %d done, watermark %d, want 1 and %d", st.Done, st.EpochWatermark, l.Epoch)
			}
		})
	}
}

// TestCoordinatorCompactionFailure: a compaction whose rename fails leaves
// the old journal in place and the handle failed; recovery reads the old
// journal.
func TestCoordinatorCompactionFailure(t *testing.T) {
	names := []string{"relay0", "relay1", "relay2", "relay3"}
	path := filepath.Join(t.TempDir(), "campaign.journal")
	coord, err := campaign.NewJournaledCoordinator(names, campaign.Partition(len(names), 2), time.Minute, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	held, res, err := coord.Acquire("w1")
	if err != nil || res != campaign.AcquireGranted {
		t.Fatal(res, err)
	}
	fs := &wal.FaultFS{}
	fs.FailAt("rename", 1, wal.Fault{Err: wal.ErrInjected})
	coord.Journal().InjectFaults(fs)
	if err := coord.CompactJournal(); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("compaction over a failing rename: %v", err)
	}
	if _, _, err := coord.Acquire("w2"); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("grant after the failed compaction: %v", err)
	}
	coord.Journal().Close()
	rec, err := campaign.RecoverCoordinator(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Journal().Close()
	if st := rec.Snapshot(); st.EpochWatermark != held.Epoch || st.Leased != 1 {
		t.Fatalf("recovered watermark %d, %d leased", st.EpochWatermark, st.Leased)
	}
}

// TestCoordinatorSyncsPerRecord: same syncs as before the logs were
// unified — one fsync per grant and per completion, whose one record
// carries its failed pairs — plus one directory fsync per compaction.
func TestCoordinatorSyncsPerRecord(t *testing.T) {
	names := []string{"relay0", "relay1", "relay2", "relay3"}
	path := filepath.Join(t.TempDir(), "campaign.journal")
	coord, err := campaign.NewJournaledCoordinator(names, campaign.Partition(len(names), 2), time.Minute, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Journal().Close()
	fs := &wal.FaultFS{}
	coord.Journal().InjectFaults(fs)
	var leases []campaign.Lease
	for {
		l, res, err := coord.Acquire("w1")
		if err != nil {
			t.Fatal(err)
		}
		if res != campaign.AcquireGranted {
			break
		}
		leases = append(leases, l)
	}
	if got := fs.Count("sync"); got != len(leases) || fs.Count("write") != len(leases) {
		t.Fatalf("%d fsyncs, %d writes for %d grants", got, fs.Count("write"), len(leases))
	}
	// One completion with a failed pair, as a worker sends it over the CAMP
	// wire: one record, synced.
	ds := directory.NewServer(directory.NewRegistry())
	campaign.NewServer(coord).Register(ds)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ds.Serve(ln)
	defer ds.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	l := leases[0]
	body := "fail\n" + strings.Repeat("11\n", l.Shard.PairCount()-1) + "end\n"
	fmt.Fprintf(conn, "%s complete w1 %s %d\n%s", campaign.Verb, l.Shard.ID, l.Epoch, body)
	if verdict, err := bufio.NewReader(conn).ReadString('\n'); verdict != "ok\n" {
		t.Fatalf("completion with a failed pair: %q, %v", verdict, err)
	}
	if syncs, writes := fs.Count("sync"), fs.Count("write"); syncs != len(leases)+1 || writes != len(leases)+1 {
		t.Fatalf("after a completion with one failed pair: %d fsyncs, %d writes", syncs, writes)
	}
	before := len(fs.Ops)
	if err := coord.CompactJournal(); err != nil {
		t.Fatal(err)
	}
	tail := fs.Ops[len(fs.Ops)-3:]
	if len(fs.Ops) == before || tail[0] != "sync" || tail[1] != "rename" || tail[2] != "syncdir" {
		t.Fatalf("compaction ended with %v, want sync, rename, syncdir", tail)
	}
}
