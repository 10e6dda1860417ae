package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

// replayFile returns the records of the log at path.
func replayFile(t *testing.T, path string) []string {
	t.Helper()
	recs, err := tryReplayFile(path, func([]byte) error { return nil })
	if err != nil {
		t.Fatalf("replay %s: %v", path, err)
	}
	return recs
}

func tryReplayFile(path string, decode func([]byte) error) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return replayBytes(data, decode)
}

func replayBytes(data []byte, decode func([]byte) error) ([]string, error) {
	var recs []string
	err := Replay(bytes.NewReader(data), func(rec []byte) error {
		if err := decode(rec); err != nil {
			return &DecodeError{Err: err}
		}
		recs = append(recs, string(rec))
		return nil
	})
	return recs, err
}

// TestSyncPolicy counts fsyncs through the fake: syncEvery 1 syncs every
// record, n syncs every nth, Close syncs a partial batch, and the only
// directory fsync is the one that follows a new file's first fsync.
func TestSyncPolicy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	fs := &FaultFS{}
	l, err := open(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append([][]byte{[]byte("forced")}, 1); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"write", "sync", "syncdir", "write", "sync", "write", "sync"}
	if !reflect.DeepEqual(fs.Ops, want) {
		t.Fatalf("forced appends: ops %v, want %v", fs.Ops, want)
	}
	for i := 0; i < 2*DefaultSyncEvery+1; i++ {
		if err := l.Append([][]byte{[]byte("batched")}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := fs.Count("sync"); got != 3+2 {
		t.Fatalf("%d fsyncs after %d default-batched appends, want 2 more than 3", got, 2*DefaultSyncEvery+1)
	}
	// A forced record flushes the batch it joins.
	if err := l.Append([][]byte{[]byte("forced")}, 1); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([][]byte{[]byte("tail")}, 4); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([][]byte{[]byte("last")}, 4); err != nil {
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
	if err := l.Append([][]byte{[]byte("late")}, 1); err == nil {
		t.Fatal("Append after Close accepted")
	}

	// Reopening an existing log creates nothing: no directory fsync.
	fs2 := &FaultFS{}
	l2, err := open(fs2, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append([][]byte{[]byte("again")}, 1); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"write", "sync"}; !reflect.DeepEqual(fs2.Ops, want) {
		t.Fatalf("reopened log: ops %v, want %v", fs2.Ops, want)
	}
	if n := len(replayFile(t, path)); n != 3+2*DefaultSyncEvery+1+4 {
		t.Fatalf("replayed %d records", n)
	}
}

// TestAppendRun: a run of records is one write, each of its records counts
// toward syncEvery as one appended alone would, a run holding a record that
// cannot be one is refused whole without failing the log, and an empty run
// touches nothing.
func TestAppendRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	fs := &FaultFS{}
	l, err := open(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	run := func(recs ...string) [][]byte {
		out := make([][]byte, len(recs))
		for i, r := range recs {
			out[i] = []byte(r)
		}
		return out
	}
	if err := l.Append(nil, 1); err != nil || len(fs.Ops) != 0 {
		t.Fatalf("empty run: %v, ops %v", err, fs.Ops)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(run("a", "b", "c"), 8); err != nil {
			t.Fatal(err)
		}
	}
	// Nine records in three writes: the third run crosses eight and fsyncs.
	if want := []string{"write", "write", "write", "sync", "syncdir"}; !reflect.DeepEqual(fs.Ops, want) {
		t.Fatalf("three runs of three: ops %v, want %v", fs.Ops, want)
	}
	for _, bad := range [][][]byte{run("ok", "a\nb"), {[]byte("ok"), make([]byte, MaxRecord+1)}} {
		if err := l.Append(bad, 1); err == nil {
			t.Fatal("run with a bad record accepted")
		}
	}
	if err := l.Append(run("d", "e"), 2); err != nil {
		t.Fatalf("a refused run failed the log: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := replayFile(t, path), []string{"a", "b", "c", "a", "b", "c", "a", "b", "c", "d", "e"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
	if w := fs.Count("write"); w != 4 {
		t.Fatalf("%d writes for four accepted runs", w)
	}
}

// TestRewriteOrderAndSwap: the snapshot is written and fsynced, renamed
// over the log, and the directory fsynced — in that order — and appends
// afterwards land in the new file.
func TestRewriteOrderAndSwap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []string{"a", "b", "c"} {
		if err := l.Append([][]byte{[]byte(r)}, 1); err != nil {
			t.Fatal(err)
		}
	}
	fs := &FaultFS{}
	l.InjectFaults(fs)
	if err := l.Rewrite([][]byte{[]byte("snap1"), []byte("snap2")}); err != nil {
		t.Fatal(err)
	}
	if want := []string{"write", "write", "sync", "rename", "syncdir"}; !reflect.DeepEqual(fs.Ops, want) {
		t.Fatalf("rewrite ops %v, want %v", fs.Ops, want)
	}
	if err := l.Append([][]byte{[]byte("after")}, 1); err != nil {
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
			l, err := Open(path)
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
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	long := bytes.Repeat([]byte("r"), MaxRecord+1)
	if err := l.Append([][]byte{long}, 1); err == nil || !strings.Contains(err.Error(), fmt.Sprint(MaxRecord)) {
		t.Fatalf("over-long Append: %v", err)
	}
	if err := l.Append([][]byte{[]byte("a\nb")}, 1); err == nil {
		t.Fatal("record containing a newline accepted")
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Fatalf("refused appends wrote %d bytes (%v)", fi.Size(), err)
	}
	// The refusals are the caller's mistakes, not log failures.
	if err := l.Append([][]byte{long[:MaxRecord]}, DefaultSyncEvery); err != nil {
		t.Fatalf("MaxRecord-byte record refused: %v", err)
	}
	if err := l.Append([][]byte{[]byte("next")}, DefaultSyncEvery); err != nil {
		t.Fatal(err)
	}
	if recs := replayFile(t, path); len(recs) != 2 || len(recs[0]) != MaxRecord || recs[1] != "next" {
		t.Fatalf("replayed %d records", len(recs))
	}

	doc := io.MultiReader(strings.NewReader("ok\n"), bytes.NewReader(long), strings.NewReader("\nok\n"))
	err = Replay(doc, func([]byte) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), fmt.Sprint(MaxRecord)) {
		t.Fatalf("over-long line replayed: %v", err)
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
		rewrite bool // the failing call is a Rewrite, not an Append
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
			l, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			acked := []string{"one", "two"}
			for _, r := range acked {
				if err := l.Append([][]byte{[]byte(r)}, 1); err != nil {
					t.Fatal(err)
				}
			}
			fs := &FaultFS{}
			fs.FailAt(tc.op, 1, tc.fault)
			l.InjectFaults(fs)
			var first error
			if tc.rewrite {
				first = l.Rewrite([][]byte{[]byte("snapshot")})
			} else {
				first = l.Append([][]byte{[]byte("three")}, 1)
			}
			if !errors.Is(first, tc.fault.Err) {
				t.Fatalf("failing call returned %v, want %v", first, tc.fault.Err)
			}
			ops := len(fs.Ops)
			for name, err := range map[string]error{
				"Append":  l.Append([][]byte{[]byte("four")}, 1),
				"Rewrite": l.Rewrite([][]byte{[]byte("again")}),
				"Close":   l.Close(),
			} {
				if err != first {
					t.Errorf("%s after the failure returned %v, want the first error %v", name, err, first)
				}
			}
			if len(fs.Ops) != ops {
				t.Errorf("a failed handle still touched the file: %v", fs.Ops[ops:])
			}

			l2, err := Open(path)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if err := l2.Append([][]byte{[]byte("five")}, 1); err != nil {
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
// syncs interleaved, never tear or lose one another's records.
func TestConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, err := Open(path)
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
				if err := l.Append([][]byte{[]byte(rec)}, 1+i%3*4); err != nil {
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

func decodeProp(raw []byte) error {
	var r propRecord
	return json.Unmarshal(raw, &r)
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
	for n := 0; n < logs; n++ {
		var data []byte
		var recs []string
		var ends []int // ends[i] is the offset just past record i's newline
		for i, k := 0, 1+rng.Intn(4); i < k; i++ {
			b, err := json.Marshal(propRecord{I: rng.Intn(1000), Pad: strings.Repeat("p", rng.Intn(8))})
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, string(b))
			data = append(append(data, b...), '\n')
			ends = append(ends, len(data))
		}
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d, log %d %q: %s", seed, n, data, fmt.Sprintf(format, args...))
		}
		added, err := json.Marshal(propRecord{I: -1})
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off <= len(data); off++ {
			fs := memFS{path: {data: append([]byte(nil), data[:off]...)}}
			whole := 0
			for whole < len(ends) && ends[whole] <= off {
				whole++
			}
			want := append([]string(nil), recs[:whole]...)
			// Replay tolerates the crash as it is found, before any repair.
			if got, err := replayBytes(data[:off], decodeProp); err != nil || !slices.Equal(got, want) {
				fail("cut at %d: replayed %v (%v), want %v", off, got, err, want)
			}
			l, err := open(fs, path)
			if err != nil {
				fail("cut at %d: open: %v", off, err)
			}
			if err := l.Append([][]byte{added}, 1); err != nil {
				fail("cut at %d: append: %v", off, err)
			}
			if err := l.Close(); err != nil {
				fail("cut at %d: close: %v", off, err)
			}
			want = append(want, string(added))
			if got, err := replayBytes(fs[path].data, decodeProp); err != nil || !slices.Equal(got, want) {
				fail("cut at %d: after append replayed %v (%v), want %v", off, got, err, want)
			}
		}

		// Cut one line short in place, keeping its newline and at least a byte.
		i := rng.Intn(len(recs))
		start := ends[i] - len(recs[i]) - 1
		keep := 1 + rng.Intn(len(recs[i])-1)
		bad := append(append(append([]byte(nil), data[:start+keep]...), '\n'), data[ends[i]:]...)
		fs := memFS{path: {data: bad}}
		wantLine := fmt.Sprintf("line %d:", i+1)
		for round := 0; round < 2; round++ {
			if got, err := replayBytes(fs[path].data, decodeProp); err == nil || !strings.Contains(err.Error(), wantLine) || len(got) != i {
				fail("line %d cut to %d bytes: replayed %v, err %v", i+1, keep, got, err)
			}
			l, err := open(fs, path)
			if err != nil {
				fail("open over corruption: %v", err)
			}
			if err := l.Append([][]byte{added}, 1); err != nil {
				fail("append over corruption: %v", err)
			}
			l.Close()
		}
	}
}

// FuzzReplay: arbitrary bytes never panic Replay, every record it delivers
// is a whole non-blank line of the input within MaxRecord, and a log built
// by Open + Append from those records replays to exactly them.
func FuzzReplay(f *testing.F) {
	f.Add([]byte("a\nb\n"))
	f.Add([]byte("a\nb\nfrag"))
	f.Add([]byte("\n\n  \n"))
	f.Add([]byte(`{"t":"pair","x":"a","y":` + "\n" + `{"t":"pair"}` + "\n"))
	f.Add([]byte("\r\n\x00\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, doc []byte) {
		var recs [][]byte
		err := Replay(bytes.NewReader(doc), func(rec []byte) error {
			if len(rec) == 0 || len(rec) > MaxRecord || bytes.IndexByte(rec, '\n') >= 0 {
				t.Fatalf("delivered %q", rec)
			}
			recs = append(recs, append([]byte(nil), rec...))
			return nil
		})
		if err != nil {
			t.Fatalf("no callback error, no over-long line, yet Replay failed: %v", err)
		}
		if lines := bytes.Count(doc, []byte("\n")); len(recs) > lines {
			t.Fatalf("%d records from %d newline-terminated lines", len(recs), lines)
		}
		// A decoder that rejects everything turns the first record into
		// corruption at a line that exists.
		err = Replay(bytes.NewReader(doc), func([]byte) error { return &DecodeError{Err: ErrInjected} })
		if (err != nil) != (len(recs) > 0) || (err != nil && !errors.Is(err, ErrInjected)) {
			t.Fatalf("rejecting decoder over %d records: %v", len(recs), err)
		}

		fs := memFS{}
		l, err := open(fs, "log")
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if err := l.Append([][]byte{rec}, 0); err != nil {
				t.Fatalf("Append refused a record Replay delivered: %v", err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := replayBytes(fs["log"].data, func([]byte) error { return nil })
		if err != nil || len(got) != len(recs) {
			t.Fatalf("rebuilt log replayed %d of %d records: %v", len(got), len(recs), err)
		}
		for i := range got {
			if got[i] != string(recs[i]) {
				t.Fatalf("record %d changed: %q → %q", i, recs[i], got[i])
			}
		}
	})
}
