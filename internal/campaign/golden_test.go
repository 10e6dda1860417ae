package campaign

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"ting/internal/telemetry"
	"ting/internal/ting"
)

// TestGoldenJournal pins the journal's bytes: the calls below write
// testdata/v2.journal, whose complete record carries the shard's values by
// index; it recovers, and its compaction recovers to the same ledger. The
// parent-format files stay as refusal rows: parent-format.journal (the same
// calls, written when a complete record listed named results, with a
// retired "lost" line) and parent-format-compacted.journal (its compaction
// as written then) are each refused at their complete record, with the
// form named, and recover no coordinator.
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
	if err := c.completeValues("w1", l1.Shard.ID, l1.Epoch, []float64{10.5, 0, 12.5}, []int{1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Journal().Close(); err != nil {
		t.Fatal(err)
	}
	sameFile(t, path, "testdata/v2.journal")

	data, err := os.ReadFile("testdata/v2.journal")
	if err != nil {
		t.Fatal(err)
	}
	treg := telemetry.New()
	c2, err := RecoverCoordinator(path, treg)
	if err != nil {
		t.Fatalf("v2.journal does not recover: %v", err)
	}
	c2.clock = now
	// One pass: every record is decoded where it is counted, and nowhere else.
	if n, lines := treg.Counter("campaign.journal.replayed").Value(), bytes.Count(data, []byte("\n")); n != int64(lines) {
		t.Fatalf("recovery replayed %d records of a %d-record journal", n, lines)
	}
	if st := c2.Snapshot(); st.Done != 1 || st.Leased != 1 || st.LostPairs != 1 || st.EpochWatermark != 2 {
		t.Fatalf("recovered ledger: %+v", st)
	}
	if v, p := c2.ledger.At(0, 3), c2.ledger.ProvAt(0, 2); v != 12.5 || p != ting.ProvMissing {
		t.Fatalf("recovered (A,D) = %v and (A,C) %v", v, p)
	}
	var ledger bytes.Buffer
	if err := c2.ledger.Encode(&ledger); err != nil {
		t.Fatal(err)
	}
	if err := c2.CompactJournal(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Journal().Close(); err != nil {
		t.Fatal(err)
	}
	snapshot, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c3, err := RecoverCoordinator(path, nil)
	if err != nil {
		t.Fatalf("the snapshot does not recover: %v", err)
	}
	c3.Journal().Close()
	var again bytes.Buffer
	if err := c3.ledger.Encode(&again); err != nil {
		t.Fatal(err)
	}
	if st := c3.Snapshot(); st.Done != 1 || st.LostPairs != 1 || st.EpochWatermark != 2 || !bytes.Equal(again.Bytes(), ledger.Bytes()) {
		t.Fatalf("ledger recovered from the snapshot: %+v", st)
	}
	// The snapshot's complete record is the one the live coordinator wrote.
	last := data[bytes.LastIndexByte(data[:len(data)-1], '\n')+1:]
	if !bytes.HasSuffix(snapshot, last) {
		t.Fatalf("snapshot\n%s\ndoes not end in v2.journal's complete record\n%s", snapshot, last)
	}

	for _, golden := range []string{"testdata/parent-format.journal", "testdata/parent-format-compacted.journal"} {
		data, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		const want = "line 4: campaign: journal complete t0-0.p0-3 lists named results: the named form is refused"
		if c, err := RecoverCoordinator(path, nil); err == nil || c != nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s recovers %v, %v; want a refusal saying %q", golden, c, err, want)
		}
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
