package campaign

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"ting/internal/telemetry"
)

// TestGoldenJournal pins the journal's bytes to the format the parent of
// internal/wal wrote (testdata/parent-format*.journal, generated at that
// commit): the same calls write the same file but for the "lost" line,
// a kind no longer written; that file, lost line and all, recovers to the
// same ledger; compaction rewrites it to the same snapshot, which recovers
// too.
func TestGoldenJournal(t *testing.T) {
	names := []string{"relayA", "relayB", "relayC", "relayD"}
	path := journalPath(t)
	now := func() time.Time { return time.Unix(1700000000, 0) }
	c, err := NewJournaledCoordinator(names, Partition(len(names), 2), 30*time.Second, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.clock = now
	l1, _, err := c.Acquire("w1")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Acquire("w2"); err != nil {
		t.Fatal(err)
	}
	res := fullResults(t, l1.Shard, names)
	for i := range res {
		res[i].RTT = 10.5 + float64(i)
	}
	res[1] = PairResult{X: res[1].X, Y: res[1].Y, Failed: true}
	if err := c.Complete("w1", l1.Shard.ID, l1.Epoch, res); err != nil {
		t.Fatal(err)
	}
	if err := c.Journal().Close(); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/parent-format.journal")
	if err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var kept [][]byte
	for _, line := range bytes.SplitAfter(golden, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte(`{"t":"lost"`)) {
			kept = append(kept, line)
		}
	}
	if want := bytes.Join(kept, nil); !bytes.Equal(written, want) || len(want) == len(golden) {
		t.Fatalf("journal differs from the parent's minus its lost line:\n%s\nwant:\n%s", written, want)
	}

	// The parent's own file is what must keep recovering.
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	treg := telemetry.New()
	c2, err := RecoverCoordinator(path, treg)
	if err != nil {
		t.Fatalf("parent-format journal does not recover: %v", err)
	}
	c2.clock = now
	// One pass: every record is decoded where it is counted, and nowhere else.
	if n := treg.Counter("campaign.journal.replayed").Value(); n != 5 {
		t.Fatalf("recovery replayed %d records of a 5-record journal", n)
	}
	if st := c2.Snapshot(); st.Done != 1 || st.Leased != 1 || st.LostPairs != 1 || st.EpochWatermark != 2 {
		t.Fatalf("recovered ledger: %+v", st)
	}
	if err := c2.CompactJournal(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Journal().Close(); err != nil {
		t.Fatal(err)
	}
	sameFile(t, path, "testdata/parent-format-compacted.journal")
	c3, err := RecoverCoordinator(path, nil)
	if err != nil {
		t.Fatalf("parent-format snapshot does not recover: %v", err)
	}
	defer c3.Journal().Close()
	if st := c3.Snapshot(); st.Done != 1 || st.EpochWatermark != 2 {
		t.Fatalf("ledger recovered from the snapshot: %+v", st)
	}
}

func sameFile(t *testing.T, got, golden string) {
	t.Helper()
	g, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Fatalf("%s differs from %s:\n%s\nwant:\n%s", got, golden, g, w)
	}
}

// TestJournalHeaderOverOneMiB: a header past the old reader's 1 MiB line
// cap (a 16 000-relay campaign's is 1.3 MB) must recover from the file
// NewJournaledCoordinator just fsynced. Long names reach the size without
// the minutes of pair enumeration 16 000 relays would cost here.
func TestJournalHeaderOverOneMiB(t *testing.T) {
	names := make([]string, 300)
	for i := range names {
		names[i] = fmt.Sprintf("relay%04d-%s", i, strings.Repeat("f", 4000))
	}
	path := journalPath(t)
	c, err := NewJournaledCoordinator(names, Partition(len(names), 4), time.Second, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Journal().Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() <= 1<<20 {
		t.Fatalf("header is %d bytes (%v), want over 1 MiB", fi.Size(), err)
	}
	c2, err := RecoverCoordinator(path, nil)
	if err != nil {
		t.Fatalf("recovery refused the header the coordinator wrote: %v", err)
	}
	defer c2.Journal().Close()
	if got := c2.Names(); len(got) != len(names) || got[len(got)-1] != names[len(names)-1] {
		t.Fatalf("recovered %d names", len(got))
	}
}
