package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// replayFile returns the records of the log at path, read as strings.
func replayFile(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := replayBytes[string](data)
	if err != nil {
		t.Fatalf("replay %s: %v", path, err)
	}
	return recs
}

func replayBytes[T any](data []byte) ([]T, error) {
	var recs []T
	err := Replay(bytes.NewReader(data), func(rec T) error {
		recs = append(recs, rec)
		return nil
	})
	return recs, err
}

// put appends recs as one run and flushes it.
func put[T any](l *Log[T], syncEvery int, recs ...T) error {
	for _, rec := range recs {
		if err := l.Append(rec); err != nil {
			return err
		}
	}
	return l.Flush(syncEvery)
}

// TestSyncPolicy counts fsyncs through the fake: syncEvery 1 syncs every
// record, n syncs every nth, Close syncs a partial batch, and the only
// directory fsync is the one that follows a new file's first fsync.
func TestSyncPolicy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	fs := &FaultFS{}
	l, err := open[string](fs, path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := put(l, 1, "forced"); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"write", "sync", "syncdir", "write", "sync", "write", "sync"}
	if !reflect.DeepEqual(fs.Ops, want) {
		t.Fatalf("forced appends: ops %v, want %v", fs.Ops, want)
	}
	for i := 0; i < 2*DefaultSyncEvery+1; i++ {
		if err := put(l, 0, "batched"); err != nil {
			t.Fatal(err)
		}
	}
	if got := fs.Count("sync"); got != 3+2 {
		t.Fatalf("%d fsyncs after %d default-batched appends, want 2 more than 3", got, 2*DefaultSyncEvery+1)
	}
	// A forced record flushes the batch it joins.
	if err := put(l, 1, "forced"); err != nil {
		t.Fatal(err)
	}
	if err := put(l, 4, "tail"); err != nil {
		t.Fatal(err)
	}
	if err := put(l, 4, "last"); err != nil {
		t.Fatal(err)
	}
	if got := fs.Count("sync"); got != 6 {
		t.Fatalf("%d fsyncs with two of a batch of four unsynced, want 6", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if got, dirs := fs.Count("sync"), fs.Count("syncdir"); got != 7 || dirs != 1 {
		t.Fatalf("%d fsyncs and %d directory fsyncs after Close, want 7 and 1", got, dirs)
	}
	if err := l.Append("late"); err == nil {
		t.Fatal("Append after Close accepted")
	}

	// Reopening an existing log creates nothing: no directory fsync. Close
	// writes what is pending and syncs it.
	fs2 := &FaultFS{}
	l2, err := open[string](fs2, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := put(l2, 1, "again"); err != nil {
		t.Fatal(err)
	}
	if err := l2.Append("unflushed"); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"write", "sync", "write", "sync"}; !reflect.DeepEqual(fs2.Ops, want) {
		t.Fatalf("reopened log: ops %v, want %v", fs2.Ops, want)
	}
	if n := len(replayFile(t, path)); n != 3+2*DefaultSyncEvery+1+5 {
		t.Fatalf("replayed %d records", n)
	}
}

// TestAppendRun: a flushed run of records is one write, each of its
// records counts toward syncEvery as one flushed alone would, a record that
// cannot be one is refused without failing the log or the run it joins,
// and flushing nothing touches nothing.
func TestAppendRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	fs := &FaultFS{}
	l, err := open[any](fs, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(1); err != nil || len(fs.Ops) != 0 {
		t.Fatalf("empty run: %v, ops %v", err, fs.Ops)
	}
	for i := 0; i < 3; i++ {
		if err := put(l, 8, "a", "b", "c"); err != nil {
			t.Fatal(err)
		}
	}
	// Nine records in three writes: the third run crosses eight and fsyncs.
	if want := []string{"write", "write", "write", "sync", "syncdir"}; !reflect.DeepEqual(fs.Ops, want) {
		t.Fatalf("three runs of three: ops %v, want %v", fs.Ops, want)
	}
	// json.Marshal refuses a NaN; the second record encodes one byte over.
	for _, bad := range []any{math.NaN(), strings.Repeat("r", MaxRecord-1)} {
		if err := l.Append("ok"); err != nil {
			t.Fatal(err)
		}
		if err := l.Append(bad); err == nil {
			t.Fatal("a record that cannot be one accepted")
		}
		if err := l.Flush(1); err != nil {
			t.Fatalf("a refused record failed the log: %v", err)
		}
	}
	if err := put(l, 2, "d", "e"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := replayFile(t, path), []string{"a", "b", "c", "a", "b", "c", "a", "b", "c", "ok", "ok", "d", "e"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
	if w := fs.Count("write"); w != 6 {
		t.Fatalf("%d writes for six flushed runs", w)
	}
}

// TestRecordsAreMarshal: a record's line is exactly json.Marshal's bytes
// and a newline — HTML characters, line separators and control characters
// escaped as Marshal escapes them — so no value can put a newline inside a
// record, and Replay decodes every record back.
func TestRecordsAreMarshal(t *testing.T) {
	type rec struct {
		S string            `json:"s"`
		F float64           `json:"f,omitempty"`
		M map[string]string `json:"m,omitempty"`
	}
	recs := []rec{
		{S: "a\nb\r\n"},
		{S: "<a&b>\u2028\u2029ünïcødé \"q\" \\ \x01", F: 1.0 / 3},
		{S: "", F: math.SmallestNonzeroFloat64, M: map[string]string{"k\n": "v<"}},
	}
	path := filepath.Join(t.TempDir(), "log")
	l, err := Open[rec](path)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, r := range recs {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		want = append(append(want, b...), '\n')
	}
	if err := put(l, 1, recs...); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("file\n%q\nwant json.Marshal's\n%q", got, want)
	}
	back, err := replayBytes[rec](got)
	if err != nil || !reflect.DeepEqual(back, recs) {
		t.Fatalf("replayed %+v (%v), want %+v", back, err, recs)
	}
}

// TestRewriteOrderAndSwap: the snapshot is written and fsynced, renamed
// over the log, and the directory fsynced — in that order — and appends
// afterwards land in the new file.
func TestRewriteOrderAndSwap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, err := Open[string](path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []string{"a", "b", "c"} {
		if err := put(l, 1, r); err != nil {
			t.Fatal(err)
		}
	}
	fs := &FaultFS{}
	l.InjectFaults(fs)
	if err := l.Rewrite([]string{"snap1", "snap2"}); err != nil {
		t.Fatal(err)
	}
	if want := []string{"write", "write", "sync", "rename", "syncdir"}; !reflect.DeepEqual(fs.Ops, want) {
		t.Fatalf("rewrite ops %v, want %v", fs.Ops, want)
	}
	if err := put(l, 1, "after"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := replayFile(t, path), []string{"snap1", "snap2", "after"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after rewrite: %v, want %v", got, want)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

// TestWriteFileOrderAndFaults: WriteFile's replacement writes the temporary
// file, fsyncs it, renames it onto path and fsyncs the directory, in that
// order. A fault before the rename leaves path as it was with no temporary
// file and returns no handle; a directory fsync fault comes back after the
// rename, with path holding the new content.
func TestWriteFileOrderAndFaults(t *testing.T) {
	write := func(w io.Writer) error {
		for _, s := range []string{"new ", "content\n"} {
			if _, err := io.WriteString(w, s); err != nil {
				return err
			}
		}
		return nil
	}
	for _, tc := range []struct{ op, want string }{
		{"", "new content\n"},
		{"write", "old\n"},
		{"sync", "old\n"},
		{"rename", "old\n"},
		{"syncdir", "new content\n"},
	} {
		path := filepath.Join(t.TempDir(), "file")
		if err := os.WriteFile(path, []byte("old\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		fs := &FaultFS{}
		if tc.op != "" {
			fs.FailAt(tc.op, 1, Fault{Err: ErrInjected})
		}
		f, err := replace(fs, path, write)
		if f != nil {
			f.Close()
		}
		switch {
		case tc.op == "" && err != nil:
			t.Fatalf("fault-free replace: %v", err)
		case tc.op != "" && !errors.Is(err, ErrInjected):
			t.Errorf("%s fault: replace returned %v, want the fault", tc.op, err)
		}
		if renamed := tc.op == "" || tc.op == "syncdir"; (f != nil) != renamed {
			t.Errorf("%q fault: handle returned %v, want %v", tc.op, f != nil, renamed)
		}
		if want := []string{"write", "write", "sync", "rename", "syncdir"}; tc.op == "" && !reflect.DeepEqual(fs.Ops, want) {
			t.Errorf("replace ops %v, want %v", fs.Ops, want)
		}
		if got, _ := os.ReadFile(path); string(got) != tc.want {
			t.Errorf("%q fault: path reads %q, want %q", tc.op, got, tc.want)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Errorf("%q fault: temporary file left behind: %v", tc.op, err)
		}
	}

	path := filepath.Join(t.TempDir(), "file")
	if err := WriteFile(path, write); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new content\n" {
		t.Errorf("WriteFile wrote %q", got)
	}
}

// TestOpenCutsTornTail: whatever follows the last newline goes, and
// nothing else does.
func TestOpenCutsTornTail(t *testing.T) {
	big := strings.Repeat("x", 200<<10) // a final line longer than one read chunk
	for _, tc := range []struct{ name, in, want string }{
		{"clean", "a\nb\n", "a\nb\n"},
		{"fragment", "a\nb\nfrag", "a\nb\n"},
		{"only a fragment", "frag", ""},
		{"empty", "", ""},
		{"blank tail", "a\n\n", "a\n\n"},
		{"long fragment", "a\n" + big, "a\n"},
		{"long final record", "a\n" + big + "\n", "a\n" + big + "\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log")
			if err := os.WriteFile(path, []byte(tc.in), 0o644); err != nil {
				t.Fatal(err)
			}
			l, err := Open[string](path)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != tc.want {
				t.Fatalf("file is %d bytes %.40q, want %d bytes %.40q", len(got), got, len(tc.want), tc.want)
			}
		})
	}
}

// TestMaxRecord pins the limit on both sides: Append refuses a longer
// record without writing a byte, Replay calls a longer line corruption and
// names the limit, and a record of exactly MaxRecord bytes round-trips.
func TestMaxRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, err := Open[string](path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	exact := strings.Repeat("r", MaxRecord-2) // and its two quotes
	if err := l.Append(exact + "r"); err == nil || !strings.Contains(err.Error(), fmt.Sprint(MaxRecord)) {
		t.Fatalf("over-long Append: %v", err)
	}
	if err := l.Flush(1); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Fatalf("refused append wrote %d bytes (%v)", fi.Size(), err)
	}
	// The refusal is the caller's mistake, not a log failure.
	if err := put(l, DefaultSyncEvery, exact, "next"); err != nil {
		t.Fatalf("MaxRecord-byte record refused: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if recs := replayFile(t, path); len(recs) != 2 || recs[0] != exact || recs[1] != "next" {
		t.Fatalf("replayed %d records", len(recs))
	}

	long := bytes.Repeat([]byte("r"), MaxRecord+1)
	doc := io.MultiReader(strings.NewReader(`"ok"`+"\n"), bytes.NewReader(long), strings.NewReader("\n"+`"ok"`+"\n"))
	err = Replay(doc, func(string) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), fmt.Sprint(MaxRecord)) {
		t.Fatalf("over-long line replayed: %v", err)
	}
}

// TestReplayLinesAndErrors: blank lines are skipped but counted, a line
// that does not decode as the record type is corruption at its line, and
// an error the callback returns comes back as itself with its line.
func TestReplayLinesAndErrors(t *testing.T) {
	doc := "\n" + `{"i":1}` + "\n  \n" + `{"i":2}` + "\n"
	var got []propRecord
	if err := Replay(strings.NewReader(doc), func(r propRecord) error { got = append(got, r); return nil }); err != nil ||
		!slices.Equal(got, []propRecord{{I: 1}, {I: 2}}) {
		t.Fatalf("replayed %v (%v)", got, err)
	}
	err := Replay(strings.NewReader(doc+`{"i":"three"}`+"\n"), func(propRecord) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "corrupt record at line 5") {
		t.Fatalf("a record of the wrong type: %v", err)
	}
	n := 0
	err = Replay(strings.NewReader(doc), func(propRecord) error {
		if n++; n == 2 {
			return ErrInjected
		}
		return nil
	})
	if !errors.Is(err, ErrInjected) || !strings.Contains(err.Error(), "line 4") {
		t.Fatalf("callback error: %v", err)
	}
}

// TestFailureIsSticky: after a failed write, fsync, rename or directory
// fsync, the handle refuses everything with that first error — it cannot
// know what reached the file — and reopening yields a clean log holding
// every record that was acknowledged.
func TestFailureIsSticky(t *testing.T) {
	for _, tc := range []struct {
		name    string
		op      string
		fault   Fault
		rewrite bool // the failing call is a Rewrite, not a Flush
	}{
		{"short write", "write", Fault{Err: io.ErrShortWrite, Partial: 4}, false},
		{"ENOSPC", "write", Fault{Err: ErrNoSpace}, false},
		{"fsync", "sync", Fault{Err: ErrInjected}, false},
		{"rewrite write", "write", Fault{Err: ErrNoSpace, Partial: 2}, true},
		{"rewrite fsync", "sync", Fault{Err: ErrInjected}, true},
		{"rename", "rename", Fault{Err: ErrInjected}, true},
		{"directory fsync", "syncdir", Fault{Err: ErrInjected}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log")
			l, err := Open[string](path)
			if err != nil {
				t.Fatal(err)
			}
			acked := []string{"one", "two"}
			for _, r := range acked {
				if err := put(l, 1, r); err != nil {
					t.Fatal(err)
				}
			}
			fs := &FaultFS{}
			fs.FailAt(tc.op, 1, tc.fault)
			l.InjectFaults(fs)
			var first error
			if tc.rewrite {
				first = l.Rewrite([]string{"snapshot"})
			} else {
				first = put(l, 1, "three")
			}
			if !errors.Is(first, tc.fault.Err) {
				t.Fatalf("failing call returned %v, want %v", first, tc.fault.Err)
			}
			ops := len(fs.Ops)
			for name, err := range map[string]error{
				"Append":  l.Append("four"),
				"Flush":   l.Flush(1),
				"Rewrite": l.Rewrite([]string{"again"}),
				"Close":   l.Close(),
			} {
				if err != first {
					t.Errorf("%s after the failure returned %v, want the first error %v", name, err, first)
				}
			}
			if len(fs.Ops) != ops {
				t.Errorf("a failed handle still touched the file: %v", fs.Ops[ops:])
			}

			l2, err := Open[string](path)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if err := put(l2, 1, "five"); err != nil {
				t.Fatal(err)
			}
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
			got := replayFile(t, path)
			// A record whose write completed but whose fsync failed may be
			// there; one whose write failed must not be, nor any fragment of it.
			// A directory fsync fails after the rename: the snapshot is the log.
			want := []string{"one", "two", "five"}
			switch tc.name {
			case "fsync":
				want = []string{"one", "two", "three", "five"}
			case "directory fsync":
				want = []string{"snapshot", "five"}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("after reopen: %v, want %v", got, want)
			}
		})
	}
}

// TestConcurrentAppend: appenders on several goroutines, forced and batched
// syncs interleaved, each flushing whatever run it finds pending, never
// tear or lose one another's records.
func TestConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, err := Open[string](path)
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				rec := fmt.Sprintf("writer %d record %d %s", w, i, strings.Repeat("-", i))
				if err := put(l, 1+i%3*4, rec); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	next := make([]int, writers)
	for _, rec := range replayFile(t, path) {
		var w, i int
		var pad string
		if n, _ := fmt.Sscanf(rec, "writer %d record %d %s", &w, &i, &pad); n < 2 || i != next[w] || len(pad) != i {
			t.Fatalf("record %q out of place: writer %d is at %d", rec, w, next[w])
		}
		next[w]++
	}
	for w, n := range next {
		if n != each {
			t.Fatalf("writer %d: %d of %d records", w, n, each)
		}
	}
}

// propRecord is the schema of the property test's logs; any strict prefix
// of its encoding is not JSON, so cutting a line short makes it undecodable.
type propRecord struct {
	I   int    `json:"i"`
	Pad string `json:"pad,omitempty"`
}

// memFS is a one-directory filesystem in memory: the properties below are
// about which bytes end up in the file, and tens of thousands of real
// creates, truncates and flushes would dominate tier 1. The tests above
// cover the same calls against the real one.
type memFS map[string]*memFile

type memFile struct{ data []byte }

func (fs memFS) OpenFile(name string, flag int, _ os.FileMode) (file, error) {
	if fs[name] == nil || flag&os.O_TRUNC != 0 {
		fs[name] = &memFile{}
	}
	return fs[name], nil
}
func (fs memFS) Rename(oldpath, newpath string) error {
	fs[newpath] = fs[oldpath]
	delete(fs, oldpath)
	return nil
}
func (memFS) SyncDir(string) error { return nil }

func (f *memFile) ReadAt(b []byte, off int64) (int, error) {
	if n := copy(b, f.data[off:]); n < len(b) {
		return n, io.EOF
	}
	return len(b), nil
}
func (f *memFile) Write(b []byte) (int, error)    { f.data = append(f.data, b...); return len(b), nil }
func (f *memFile) Seek(int64, int) (int64, error) { return int64(len(f.data)), nil } // only ever to the end
func (f *memFile) Truncate(size int64) error      { f.data = f.data[:size]; return nil }
func (f *memFile) Sync() error                    { return nil }
func (f *memFile) Close() error                   { return nil }

// TestCrashPointProperty: for random valid logs, a crash that leaves any
// prefix of the file — every byte offset — loses exactly the records whose
// newline did not make it, open + Replay never errors on it, and the next
// Append lands on a record boundary. A line that has its newline but does
// not decode is corruption at its line number, never skipped, wherever it
// sits and however the log is reopened and appended to.
func TestCrashPointProperty(t *testing.T) {
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	const logs, path = 500, "log"
	added := propRecord{I: -1}
	for n := 0; n < logs; n++ {
		// The log itself writes the file: one run, flushed or left to Close.
		var recs []propRecord
		written := memFS{}
		wl, err := open[propRecord](written, path)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := 0, 1+rng.Intn(4); i < k; i++ {
			rec := propRecord{I: rng.Intn(1000), Pad: strings.Repeat("p", rng.Intn(8))}
			recs = append(recs, rec)
			if err := wl.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if rng.Intn(2) == 0 {
			if err := wl.Flush(0); err != nil {
				t.Fatal(err)
			}
		}
		if err := wl.Close(); err != nil {
			t.Fatal(err)
		}
		data := written[path].data
		var ends []int // ends[i] is the offset just past record i's newline
		for i, c := range data {
			if c == '\n' {
				ends = append(ends, i+1)
			}
		}
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d, log %d %q: %s", seed, n, data, fmt.Sprintf(format, args...))
		}
		if len(ends) != len(recs) {
			fail("%d lines for %d records", len(ends), len(recs))
		}
		for off := 0; off <= len(data); off++ {
			fs := memFS{path: {data: append([]byte(nil), data[:off]...)}}
			whole := 0
			for whole < len(ends) && ends[whole] <= off {
				whole++
			}
			want := append([]propRecord(nil), recs[:whole]...)
			// Replay tolerates the crash as it is found, before any repair.
			if got, err := replayBytes[propRecord](data[:off]); err != nil || !slices.Equal(got, want) {
				fail("cut at %d: replayed %v (%v), want %v", off, got, err, want)
			}
			l, err := open[propRecord](fs, path)
			if err != nil {
				fail("cut at %d: open: %v", off, err)
			}
			if err := put(l, 1, added); err != nil {
				fail("cut at %d: append: %v", off, err)
			}
			if err := l.Close(); err != nil {
				fail("cut at %d: close: %v", off, err)
			}
			want = append(want, added)
			if got, err := replayBytes[propRecord](fs[path].data); err != nil || !slices.Equal(got, want) {
				fail("cut at %d: after append replayed %v (%v), want %v", off, got, err, want)
			}
		}

		// Cut one line short in place, keeping its newline and at least a byte.
		i := rng.Intn(len(recs))
		start := 0
		if i > 0 {
			start = ends[i-1]
		}
		keep := 1 + rng.Intn(ends[i]-start-2)
		bad := append(append(append([]byte(nil), data[:start+keep]...), '\n'), data[ends[i]:]...)
		fs := memFS{path: {data: bad}}
		wantLine := fmt.Sprintf("line %d:", i+1)
		for round := 0; round < 2; round++ {
			if got, err := replayBytes[propRecord](fs[path].data); err == nil || !strings.Contains(err.Error(), wantLine) || len(got) != i {
				fail("line %d cut to %d bytes: replayed %v, err %v", i+1, keep, got, err)
			}
			l, err := open[propRecord](fs, path)
			if err != nil {
				fail("open over corruption: %v", err)
			}
			if err := put(l, 1, added); err != nil {
				fail("append over corruption: %v", err)
			}
			l.Close()
		}
	}
}

// reuseRecord is a Reusable record: Vals keeps its array from one line to
// the next, Names does not. freshRecord is the same record without the
// methods, decoded fresh per line.
type reuseRecord struct {
	Kind  string    `json:"t"`
	Names []string  `json:"names,omitempty"`
	Vals  []float64 `json:"vals,omitempty"`
}

type freshRecord reuseRecord

func (r *reuseRecord) Reset() { *r = reuseRecord{Vals: Emptied(r.Vals)} }

func (r *reuseRecord) Settle() { r.Vals = Unfilled(r.Vals) }

// FuzzReplay: arbitrary bytes never panic Replay; every record it delivers
// comes from a whole non-blank line of the input within MaxRecord, and an
// error is corruption at a line that exists; a callback's error comes back
// as itself; and a log built by Open + Append from the delivered records
// holds exactly json.Marshal's bytes for each and replays to them. A
// Reusable record replays deep-equal, line by line, to a fresh decode of
// each line, and fails where it fails.
func FuzzReplay(f *testing.F) {
	f.Add([]byte(`"a"` + "\n" + `"b"` + "\n"))
	f.Add([]byte(`"a"` + "\n" + `"b"` + "\nfrag"))
	f.Add([]byte("\n\n  \n"))
	f.Add([]byte(`{"t":"pair","x":"a","y":` + "\n" + `{"t":"pair"}` + "\n"))
	f.Add([]byte(`[1, 2,	3]` + "\r\n" + `{"s":"<&> "}` + "\n"))
	f.Add([]byte("\r\n\x00\n"))
	f.Add([]byte("a\nb\n"))
	f.Add([]byte(""))
	f.Add([]byte(`{"t":"v","vals":[1,2,3]}` + "\n" + `{"t":"g"}` + "\n" + `{"vals":[4]}` + "\n" +
		`{"t":"h","names":["a","b"]}` + "\n" + `{"vals":[]}` + "\n" + `{"vals":null,"t":"n"}` + "\n" + `{"vals":[5],"vals":[6,7]}` + "\n"))
	f.Fuzz(func(t *testing.T, doc []byte) {
		fresh, freshErr := replayBytes[freshRecord](doc)
		k := 0
		reuseErr := Replay(bytes.NewReader(doc), func(rec reuseRecord) error {
			if k >= len(fresh) || !reflect.DeepEqual(rec, reuseRecord(fresh[k])) {
				t.Fatalf("record %d replays as %#v through the reused record; fresh: %#v", k, rec, fresh)
			}
			k++
			return nil
		})
		if (freshErr == nil) != (reuseErr == nil) || k != len(fresh) {
			t.Fatalf("reused replay: %d records, %v; fresh: %d records, %v", k, reuseErr, len(fresh), freshErr)
		}

		lines := bytes.Count(doc, []byte("\n"))
		var recs []json.RawMessage
		err := Replay(bytes.NewReader(doc), func(rec json.RawMessage) error {
			if len(rec) == 0 || len(rec) > MaxRecord || bytes.IndexByte(rec, '\n') >= 0 || !json.Valid(rec) {
				t.Fatalf("delivered %q", rec)
			}
			recs = append(recs, append(json.RawMessage(nil), rec...))
			return nil
		})
		if len(recs) > lines {
			t.Fatalf("%d records from %d newline-terminated lines", len(recs), lines)
		}
		if err != nil {
			var at int
			if _, serr := fmt.Sscanf(err.Error(), "wal: corrupt record at line %d:", &at); serr != nil || at < 1 || at > lines+1 {
				t.Fatalf("Replay failed other than as corruption at a line: %v", err)
			}
		}
		// A callback that rejects everything fails at the first record.
		rerr := Replay(bytes.NewReader(doc), func(json.RawMessage) error { return ErrInjected })
		if len(recs) > 0 && !errors.Is(rerr, ErrInjected) {
			t.Fatalf("rejecting callback over %d records: %v", len(recs), rerr)
		}
		if len(recs) == 0 && err == nil && rerr != nil {
			t.Fatalf("rejecting callback over no records: %v", rerr)
		}

		fs := memFS{}
		l, err := open[json.RawMessage](fs, "log")
		if err != nil {
			t.Fatal(err)
		}
		var want []byte
		for _, rec := range recs {
			if err := l.Append(rec); err != nil {
				t.Fatalf("Append refused a record Replay delivered: %v", err)
			}
			b, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			want = append(append(want, b...), '\n')
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fs["log"].data, want) {
			t.Fatalf("rebuilt log\n%q\nwant json.Marshal's\n%q", fs["log"].data, want)
		}
		got, err := replayBytes[json.RawMessage](fs["log"].data)
		if err != nil || len(got) != len(recs) {
			t.Fatalf("rebuilt log replayed %d of %d records: %v", len(got), len(recs), err)
		}
		for i, line := range bytes.SplitAfter(want, []byte("\n"))[:len(got)] {
			if string(got[i]) != string(bytes.TrimSuffix(line, []byte("\n"))) {
				t.Fatalf("record %d changed: %q → %q", i, line, got[i])
			}
		}
	})
}
