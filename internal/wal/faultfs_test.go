package wal

import (
	"errors"
	"os"
	"sync"
	"syscall"
)

// FaultFS is the injectable filesystem: osFS plus a log of every mutating
// call and a plan of faults. A fault names an operation ("write", "sync",
// "rename", "syncdir", "truncate") and which occurrence of it, counted from
// one over the FaultFS's lifetime, fails. It is exported (from a _test
// file) so the external tests can fault a coordinator's journal.
type FaultFS struct {
	mu     sync.Mutex
	Ops    []string       // "write", "sync", "rename", "syncdir", "truncate", in call order
	counts map[string]int // occurrences so far, by operation
	faults map[string]map[int]Fault
}

// Fault is one injected failure. A write fault first writes Partial bytes
// of the buffer for real, as a short write or a filling disk does.
type Fault struct {
	Err     error
	Partial int
}

var (
	ErrInjected = errors.New("injected fault")
	ErrNoSpace  = syscall.ENOSPC
)

// FailAt plans f for the nth (1-based) call of op.
func (fs *FaultFS) FailAt(op string, n int, f Fault) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.faults == nil {
		fs.faults = map[string]map[int]Fault{}
	}
	if fs.faults[op] == nil {
		fs.faults[op] = map[int]Fault{}
	}
	fs.faults[op][n] = f
}

// Count returns how many times op has been called.
func (fs *FaultFS) Count(op string) int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.counts[op]
}

// hit records one call of op and returns the fault planned for it, if any.
func (fs *FaultFS) hit(op string) (Fault, bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.counts == nil {
		fs.counts = map[string]int{}
	}
	fs.counts[op]++
	fs.Ops = append(fs.Ops, op)
	f, ok := fs.faults[op][fs.counts[op]]
	return f, ok
}

func (fs *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (file, error) {
	f, err := osFS{}.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{file: f, fs: fs}, nil
}

func (fs *FaultFS) Rename(oldpath, newpath string) error {
	if f, ok := fs.hit("rename"); ok {
		return f.Err
	}
	return osFS{}.Rename(oldpath, newpath)
}

func (fs *FaultFS) SyncDir(dir string) error {
	if f, ok := fs.hit("syncdir"); ok {
		return f.Err
	}
	return osFS{}.SyncDir(dir)
}

type faultFile struct {
	file
	fs *FaultFS
}

func (f *faultFile) Write(b []byte) (int, error) {
	if ft, ok := f.fs.hit("write"); ok {
		n, _ := f.file.Write(b[:min(ft.Partial, len(b))])
		return n, ft.Err
	}
	return f.file.Write(b)
}

func (f *faultFile) Sync() error {
	if ft, ok := f.fs.hit("sync"); ok {
		return ft.Err
	}
	return f.file.Sync()
}

func (f *faultFile) Truncate(size int64) error {
	if ft, ok := f.fs.hit("truncate"); ok {
		return ft.Err
	}
	return f.file.Truncate(size)
}

// InjectFaults reroutes an open log through fs, so a log some other
// package opened (a coordinator's journal) can be failed from a test.
func (l *Log[T]) InjectFaults(fs *FaultFS) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.fs = fs
	l.f = &faultFile{file: l.f, fs: fs}
}
