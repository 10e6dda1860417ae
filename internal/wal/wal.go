// Package wal is the repo's one durable log: records of one Go type, each
// a JSON line, in an append-only file. It owns the record codec — encoding
// straight into a pending run, the size limit, decoding on replay — and the
// file discipline — one write(2) per Flush, the fsync policy, torn-tail
// repair and replay, atomic rewrite. What a record means is its caller's:
// the scan checkpoint (internal/ting) and the coordinator journal
// (internal/campaign) each choose a record type and when to flush. A log
// has no version: a caller that changes what a record carries tells the
// forms apart by each record's own fields, and keeps reading the older
// form, because one file can hold both — a checkpoint's pair records and a
// journal's complete records went from relay names to matrix indices so.
// WriteFile is the same atomic rewrite for any file: the matrix document,
// the commands' address and state files.
// DESIGN.md, "Write-ahead log", states the contract.
package wal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// MaxRecord is the longest record, newline excluded, a log holds. Append
// refuses a longer one before writing a byte and Replay reports one as
// corruption, so the writer cannot produce a file the reader refuses.
const MaxRecord = 16 << 20

// DefaultSyncEvery is the fsync batch size a non-positive syncEvery means.
const DefaultSyncEvery = 8

var errClosed = errors.New("wal: closed")

// Log is an open log of T records, safe for concurrent use. A record is
// the bytes json.Marshal gives for it and a newline; encoding/json escapes
// every newline inside a value, so a record is always one line. Its first
// write, fsync or rename error is sticky: a failed write may have left a
// fragment in the file and a failed fsync may have dropped the dirty pages,
// so nothing more goes through this handle — every later call returns that
// error — and reopening repairs the tail.
type Log[T any] struct {
	path string
	fs   fsys

	mu sync.Mutex
	f  file
	// rec is the record enc encodes: a field, so Encode's argument is a
	// pointer into the log rather than a boxed copy of the record.
	rec      T
	enc      *json.Encoder // writes into pending
	pending  bytes.Buffer  // records appended since the last Flush, each ending in its newline
	queued   int           // records in pending
	unsynced int
	fresh    bool  // created empty: the first fsync also syncs the directory
	err      error // the sticky failure, or errClosed
}

// Open opens the log at path for appending, creating it if absent. A
// record is in the log once its newline is, so whatever follows the file's
// last newline is a torn tail — the partial write of a crash — and is cut
// off here, before a new record can land behind it and turn it into
// mid-file corruption.
func Open[T any](path string) (*Log[T], error) { return open[T](osFS{}, path) }

func open[T any](fs fsys, path string) (*Log[T], error) {
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	size, err := repairTail(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %s: %w", path, err)
	}
	l := &Log[T]{path: path, fs: fs, f: f, fresh: size == 0}
	l.enc = json.NewEncoder(&l.pending)
	return l, nil
}

// repairTail truncates f to just after its last newline and returns the
// resulting size. It reads backwards from the end, and no further than the
// longest fragment a Flush can leave.
func repairTail(f file) (int64, error) {
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, err
	}
	chunk := make([]byte, min(size, 64<<10))
	for end := size; end > 0; {
		b := chunk[:min(end, int64(len(chunk)))]
		end -= int64(len(b))
		if _, err := f.ReadAt(b, end); err != nil {
			return 0, err
		}
		if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
			end += int64(i) + 1
			if end == size {
				return size, nil
			}
			return end, f.Truncate(end)
		}
		if size-end > MaxRecord+1 {
			return 0, fmt.Errorf("no record boundary in the final %d bytes", size-end)
		}
	}
	if size == 0 {
		return 0, nil
	}
	return 0, f.Truncate(0) // no newline anywhere: the whole file is one fragment
}

// fail latches the handle's first failure and returns it.
func (l *Log[T]) fail(err error) error {
	l.err = fmt.Errorf("wal: %s: %w", l.path, err)
	return l.err
}

// encode appends rec's line to buf through enc, which writes into buf. A
// record that does not encode, or is longer than MaxRecord, leaves buf as
// it was.
func encode[T any](enc *json.Encoder, buf *bytes.Buffer, rec *T) error {
	n := buf.Len()
	if err := enc.Encode(rec); err != nil { // writes nothing on failure
		return fmt.Errorf("wal: %w", err)
	}
	if size := buf.Len() - n - 1; size > MaxRecord {
		buf.Truncate(n)
		return fmt.Errorf("wal: record of %d bytes exceeds the %d-byte limit", size, MaxRecord)
	}
	return nil
}

// Append encodes rec onto the pending run; nothing reaches the file until
// the next Flush or Close. A record that cannot be one — it does not
// encode, or is longer than MaxRecord — is refused and leaves the run as it
// was, and refusing it does not fail the log.
func (l *Log[T]) Append(rec T) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	l.rec = rec
	err := encode(l.enc, &l.pending, &l.rec)
	var zero T
	l.rec = zero // hold nothing of rec past the call
	if err != nil {
		return err
	}
	l.queued++
	return nil
}

// Flush writes the pending run with a single write(2), so a killed process
// loses nothing the kernel accepted. Each record counts toward syncEvery,
// and the log fsyncs once that many are unsynced: 1 makes the run durable
// before Flush returns, n batches (a machine crash loses at most n-1
// records some Flush returned for), and a non-positive value means
// DefaultSyncEvery. A failed Flush drops the run; the log is short of it.
func (l *Log[T]) Flush(syncEvery int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.queued == 0 {
		return nil
	}
	if err := l.write(); err != nil {
		return err
	}
	if syncEvery <= 0 {
		syncEvery = DefaultSyncEvery
	}
	if l.unsynced < syncEvery {
		return nil
	}
	return l.sync()
}

// write hands the pending run to the file.
func (l *Log[T]) write() error {
	_, err := l.f.Write(l.pending.Bytes())
	l.unsynced += l.queued
	l.pending.Reset()
	l.queued = 0
	if err != nil {
		return l.fail(err)
	}
	return nil
}

func (l *Log[T]) sync() error {
	if err := l.f.Sync(); err != nil {
		return l.fail(err)
	}
	l.unsynced = 0
	if l.fresh {
		// A new file's directory entry must be as durable as its first record.
		if err := l.fs.SyncDir(filepath.Dir(l.path)); err != nil {
			return l.fail(err)
		}
		l.fresh = false
	}
	return nil
}

// Close writes the pending run, syncs whatever is unsynced and closes the
// handle; a failed handle reports its failure. Appending afterwards errors;
// closing again does not.
func (l *Log[T]) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.err
	if err == nil && l.queued > 0 {
		err = l.write()
	}
	if err == nil && l.unsynced > 0 {
		err = l.sync()
	}
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wal: %s: %w", l.path, cerr)
	}
	l.f, l.err = nil, errClosed
	return err
}

// Rewrite atomically replaces the log's content with recs (a compacting
// snapshot) through replace, one write per record, and swaps the append
// handle for the new file's. A crash at any point leaves either the old log
// or the new one, never a mix. A pending run stays pending, to follow the
// snapshot.
func (l *Log[T]) Rewrite(recs []T) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	f, err := replace(l.fs, l.path, func(w io.Writer) error {
		for i := range recs {
			buf.Reset()
			if err := encode(enc, &buf, &recs[i]); err != nil {
				return err
			}
			if _, err := w.Write(buf.Bytes()); err != nil {
				return err
			}
		}
		return nil
	})
	if f != nil {
		l.f.Close() // the old handle points at an unlinked inode
		l.f, l.unsynced, l.fresh = f, 0, false
	}
	if err != nil {
		return l.fail(err)
	}
	return nil
}

// WriteFile replaces the file at path with what write writes, the way
// Rewrite replaces a log: a reader of path sees the old content or the new,
// never part of either, and a crash leaves one of them. A failure before
// the rename returns its error and leaves path as it was, with no temporary
// file beside it. A failed directory fsync is reported though the rename
// happened: path holds the new content, which power loss could yet undo.
// Writers of one path must not overlap; each writes through path + ".tmp".
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := replace(osFS{}, path, write)
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// replace writes write's output to path + ".tmp", fsyncs it, renames it
// onto path and fsyncs path's directory — or power loss could resurrect the
// old file, beneath whatever was appended to the new one and acknowledged.
// A failure before the rename closes and removes the temporary file and
// returns no handle. Once the rename is done it returns the new file's
// handle, open for appending, with the directory fsync's error if that
// failed.
func replace(fs fsys, path string, write func(io.Writer) error) (file, error) {
	tmp := path + ".tmp"
	f, err := fs.OpenFile(tmp, os.O_CREATE|os.O_RDWR|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = fs.Rename(tmp, path)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp) // best effort: the next replace truncates a leftover
		return nil, err
	}
	return f, fs.SyncDir(filepath.Dir(path))
}

// Reusable is a record type that keeps the backing arrays of some of its
// slices from one replayed line to the next, so a log of long records does
// not regrow them from nil on every line. Replay decodes every line into
// one value of such a type, where it gives any other type a fresh zero
// value per line. Reset readies that value for the next line: it zeroes
// every field — encoding/json leaves a field whose key the line lacks as it
// was — except that a slice it keeps is emptied to Emptied's, array and
// all. Settle is called on the copy fn gets, after the decode: it sets each
// kept slice the line did not fill (Unfilled) back to nil, so the copy is
// deep-equal to a fresh decode of the line, and the reused value keeps its
// arrays. A kept slice is valid only for fn's call; a caller that keeps it
// longer keeps a copy.
type Reusable interface {
	Reset()
	Settle()
}

// Emptied is s emptied for Reusable.Reset: its array kept at length zero,
// or nil when it has none, as a fresh decode starts.
func Emptied[S ~[]E, E any](s S) S {
	if cap(s) == 0 {
		return nil
	}
	return s[:0]
}

// Unfilled is s for Reusable.Settle: nil if it is Emptied's and the line
// left it so, as a fresh decode leaves a slice whose key is absent. A line
// that holds the slice leaves it non-empty, nil (null) or with no array
// ([]).
func Unfilled[S ~[]E, E any](s S) S {
	if len(s) == 0 && cap(s) > 0 {
		return nil
	}
	return s
}

// Replay decodes a log's records in order and hands each to fn. Blank lines
// are skipped. A final line with no newline is a torn tail and is dropped
// unseen: its write never completed, so nobody was told it happened. Every
// line that has its newline was written whole, so one that does not decode
// as a T, or is longer than MaxRecord, is corruption wherever it sits —
// dropping it would forget a record that may have been acknowledged — and
// Replay reports it with its line number. An error fn returns comes back
// wrapped with the line number too. Memory is bounded by MaxRecord. Every
// line is decoded into one record: a fresh zero T each time, unless *T is
// Reusable.
func Replay[T any](r io.Reader, fn func(rec T) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, MaxRecord+1) // room for a record and its newline
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			return i + 1, data[:i], nil
		}
		if atEOF {
			return len(data), nil, nil // the torn tail, if any
		}
		return 0, nil, nil
	})
	var rec, out T
	reuse, _ := any(&rec).(Reusable)
	settle, _ := any(&out).(Reusable)
	line := 1
	for ; sc.Scan(); line++ {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if reuse != nil {
			reuse.Reset()
		} else {
			var zero T
			rec = zero
		}
		if err := json.Unmarshal(raw, &rec); err != nil {
			return fmt.Errorf("wal: corrupt record at line %d: %w", line, err)
		}
		out = rec
		if reuse != nil {
			settle.Settle()
		}
		if err := fn(out); err != nil {
			return fmt.Errorf("wal: line %d: %w", line, err)
		}
	}
	if errors.Is(sc.Err(), bufio.ErrTooLong) {
		return fmt.Errorf("wal: corrupt record at line %d: longer than the %d-byte limit", line, MaxRecord)
	}
	if sc.Err() != nil {
		return fmt.Errorf("wal: replay: %w", sc.Err())
	}
	return nil
}
