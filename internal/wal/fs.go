package wal

import (
	"io"
	"os"
)

// file and fsys are everything the log asks of the operating system — the
// package's one seam, there so tests can fail a chosen write, fsync or
// rename. Production code always gets osFS.
type file interface {
	io.ReaderAt
	io.Writer
	io.Seeker
	Truncate(size int64) error
	Sync() error
	Close() error
}

type fsys interface {
	OpenFile(name string, flag int, perm os.FileMode) (file, error)
	Rename(oldpath, newpath string) error
	// SyncDir makes dir's entries durable: a created or renamed file
	// survives power loss only once its directory has been fsynced.
	SyncDir(dir string) error
}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (file, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err // not a non-nil file holding a nil *os.File
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
