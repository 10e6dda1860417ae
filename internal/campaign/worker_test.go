package campaign

import (
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ting/internal/directory"
	"ting/internal/experiments"
	"ting/internal/ting"
)

func TestIsTransient(t *testing.T) {
	te := &TransportError{Op: "dial", Err: errors.New("connection refused")}
	if !IsTransient(te) {
		t.Error("bare TransportError not transient")
	}
	wrapped := errors.Join(errors.New("outer"), te)
	if !IsTransient(wrapped) {
		t.Error("wrapped TransportError not transient")
	}
	if IsTransient(ErrFenced) {
		t.Error("ErrFenced classified transient")
	}
	if IsTransient(errors.New("server said no")) {
		t.Error("plain verdict classified transient")
	}
	if IsTransient(nil) {
		t.Error("nil classified transient")
	}
}

// deadAddr returns an address nothing listens on: bind a port, remember
// it, close the listener.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestWorkerGivesUpAfterUnreachableGrace: a worker pointed at a dead
// coordinator retries with backoff for the grace window, then exits with a
// terminal error instead of spinning forever — and does so on the grace
// clock, not after a fixed failure count.
func TestWorkerGivesUpAfterUnreachableGrace(t *testing.T) {
	w := &Worker{
		Name:             "lonely",
		Addr:             deadAddr(t),
		Scanner:          &ting.Scanner{NewMeasurer: func(int) (*ting.Measurer, error) { return nil, errors.New("unused") }},
		Poll:             5 * time.Millisecond,
		UnreachableGrace: 250 * time.Millisecond,
	}
	start := time.Now()
	err := w.Run(context.Background())
	if err == nil {
		t.Fatal("worker against dead coordinator returned nil")
	}
	if !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("error %q does not name the outage", err)
	}
	if took := time.Since(start); took < 250*time.Millisecond || took > 10*time.Second {
		t.Fatalf("gave up after %v, want roughly the 250ms grace window", took)
	}
}

// TestWorkerRunHonorsContext: cancellation beats the grace window — a
// worker stuck retrying a dead coordinator exits promptly when told to.
func TestWorkerRunHonorsContext(t *testing.T) {
	w := &Worker{
		Name:             "cancelled",
		Addr:             deadAddr(t),
		Scanner:          &ting.Scanner{NewMeasurer: func(int) (*ting.Measurer, error) { return nil, errors.New("unused") }},
		Poll:             10 * time.Millisecond,
		UnreachableGrace: time.Hour,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker ignored context cancellation")
	}
}

// peekCheckpoint reads the file behind its FileCheckpoint as the scan's
// campaign header is appended — the moment a lease's scan starts.
type peekCheckpoint struct {
	*ting.FileCheckpoint
	path   string
	once   sync.Once
	onDisk []byte
}

func (c *peekCheckpoint) Append(rec ting.CheckpointRecord) error {
	if rec.Kind == ting.RecordCampaign {
		c.once.Do(func() { c.onDisk, _ = os.ReadFile(c.path) })
	}
	return c.FileCheckpoint.Append(rec)
}

// TestWorkerFlushesShardRecordBeforeScan: a worker's shard record is in its
// checkpoint file before ScanPairs starts, so a log cut short at any point
// of the scan shows what the worker was holding.
func TestWorkerFlushesShardRecordBeforeScan(t *testing.T) {
	world, err := experiments.NewTestbedWorld(6, 97)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(world.Names, Partition(len(world.Names), 1), time.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	ds := directory.NewServer(directory.NewRegistry())
	NewServer(coord).Register(ds)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ds.Serve(ln)
	defer ds.Close()

	path := filepath.Join(t.TempDir(), "worker.ckpt")
	file, err := ting.OpenFileCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	cp := &peekCheckpoint{FileCheckpoint: file, path: path}
	w := &Worker{
		Name: "w1", Addr: ln.Addr().String(), Checkpoint: cp, Poll: 10 * time.Millisecond,
		Scanner: &ting.Scanner{
			Workers:     1,
			Checkpoint:  cp,
			NewMeasurer: func(int) (*ting.Measurer, error) { return world.ExactMeasurer(1) },
		},
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	shard := coord.Snapshot().Shards[0].ID
	if want := `{"t":"shard","shard":"` + shard + `","lease":1,"worker":"w1"}` + "\n"; string(cp.onDisk) != want {
		t.Fatalf("as the scan started the log held %q, want %q", cp.onDisk, want)
	}
}
