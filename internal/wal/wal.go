// Package wal is the repo's one durable log: newline-framed records in an
// append-only file. It owns the file discipline — one write(2) per Append,
// which may carry a run of records, the fsync policy, torn-tail repair and
// replay, atomic rewrite — and knows nothing of what a record means: the
// scan checkpoint (internal/ting) and the coordinator journal
// (internal/campaign) are record schemas over it. DESIGN.md, "Write-ahead
// log", states the contract.
package wal

import (
	"bufio"
	"bytes"
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

// Log is an open log's append handle, safe for concurrent use. Its first
// write, fsync or rename error is sticky: a failed write may have left a
// fragment in the file and a failed fsync may have dropped the dirty pages,
// so nothing more goes through this handle — every later Append and Rewrite
// returns that error — and reopening repairs the tail.
type Log struct {
	path string
	fs   fsys

	mu       sync.Mutex
	f        file
	buf      []byte // the run being written, each record's newline appended
	unsynced int
	fresh    bool  // created empty: the first fsync also syncs the directory
	err      error // the sticky failure, or errClosed
}

// Open opens the log at path for appending, creating it if absent. A
// record is in the log once its newline is, so whatever follows the file's
// last newline is a torn tail — the partial write of a crash — and is cut
// off here, before a new record can land behind it and turn it into
// mid-file corruption.
func Open(path string) (*Log, error) { return open(osFS{}, path) }

func open(fs fsys, path string) (*Log, error) {
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	size, err := repairTail(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %s: %w", path, err)
	}
	return &Log{path: path, fs: fs, f: f, fresh: size == 0}, nil
}

// repairTail truncates f to just after its last newline and returns the
// resulting size. It reads backwards from the end, and no further than the
// longest fragment an Append can leave.
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
func (l *Log) fail(err error) error {
	l.err = fmt.Errorf("wal: %s: %w", l.path, err)
	return l.err
}

// frame returns recs, each followed by its newline, in l.buf, or why one of
// them cannot be a record.
func (l *Log) frame(recs [][]byte) ([]byte, error) {
	buf := l.buf[:0]
	for _, rec := range recs {
		if len(rec) > MaxRecord {
			return nil, fmt.Errorf("wal: record of %d bytes exceeds the %d-byte limit", len(rec), MaxRecord)
		}
		if bytes.IndexByte(rec, '\n') >= 0 {
			return nil, errors.New("wal: record contains a newline")
		}
		buf = append(append(buf, rec...), '\n')
	}
	l.buf = buf
	return buf, nil
}

// Append writes a run of records, each followed by its newline, with a
// single write(2), so a killed process loses nothing the kernel accepted. A
// run with a record that cannot be one is refused whole, before a byte is
// written. Each record counts toward syncEvery, and the log fsyncs once that
// many are unsynced: 1 makes the run durable before Append returns, n
// batches (a machine crash loses at most n-1 records some Append returned
// for), and a non-positive value means DefaultSyncEvery.
func (l *Log) Append(recs [][]byte, syncEvery int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	b, err := l.frame(recs)
	if err != nil || len(b) == 0 {
		return err
	}
	if _, err := l.f.Write(b); err != nil {
		return l.fail(err)
	}
	l.unsynced += len(recs)
	if syncEvery <= 0 {
		syncEvery = DefaultSyncEvery
	}
	if l.unsynced < syncEvery {
		return nil
	}
	return l.sync()
}

func (l *Log) sync() error {
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

// Close syncs any unsynced batch and closes the handle; a failed handle
// reports its failure. Appending afterwards errors; closing again does not.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.err
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
// snapshot): write a temp file, fsync it, rename it over the log, fsync the
// directory — or power loss could resurrect the old file beneath records
// appended, and acknowledged, afterwards — and swap the append handle. A
// crash at any point leaves either the old log or the new one, never a mix.
func (l *Log) Rewrite(recs [][]byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	tmp := l.path + ".tmp"
	tf, err := l.fs.OpenFile(tmp, os.O_CREATE|os.O_RDWR|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return l.fail(err)
	}
	for i := range recs {
		var b []byte
		if b, err = l.frame(recs[i : i+1]); err != nil {
			break
		}
		if _, err = tf.Write(b); err != nil {
			break
		}
	}
	if err == nil {
		err = tf.Sync()
	}
	if err == nil {
		err = l.fs.Rename(tmp, l.path)
	}
	if err != nil {
		tf.Close()
		os.Remove(tmp) // best effort: the next Rewrite truncates a leftover
		return l.fail(err)
	}
	l.f.Close() // the old handle points at an unlinked inode
	l.f, l.unsynced, l.fresh = tf, 0, false
	if err := l.fs.SyncDir(filepath.Dir(l.path)); err != nil {
		return l.fail(err)
	}
	return nil
}

// DecodeError is how a Replay callback says "this line is not a record of
// my schema": Replay reports it as corruption, with the line number. Any
// other error a callback returns is the caller's own and comes back as-is.
type DecodeError struct{ Err error }

func (e *DecodeError) Error() string { return e.Err.Error() }
func (e *DecodeError) Unwrap() error { return e.Err }

// Replay streams a log's non-blank lines to fn in order. A final line with
// no newline is a torn tail and is dropped unseen: its write never
// completed, so nobody was told it happened. Every line that has its
// newline was written whole, so one fn rejects with a *DecodeError, or one
// longer than MaxRecord, is corruption wherever it sits — dropping it would
// forget a record that may have been acknowledged. Memory is bounded by
// MaxRecord.
func Replay(r io.Reader, fn func(rec []byte) error) error {
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
	line := 1
	for ; sc.Scan(); line++ {
		rec := bytes.TrimSpace(sc.Bytes())
		if len(rec) == 0 {
			continue
		}
		if err := fn(rec); err != nil {
			var de *DecodeError
			if errors.As(err, &de) {
				return fmt.Errorf("wal: corrupt record at line %d: %w", line, de.Err)
			}
			return err
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
