// Package serve is the serving plane of the latency matrix: it turns the
// file-writing, exit-on-completion workflow of cmd/ting into a long-running
// query service. A Publisher stamps each matrix it is handed (cmd/tingd
// hands it every sweep of the monitor's Run loop that changed the data) as
// an immutable epoch snapshot; readers — an HTTP/JSON API under /v1 and a
// compact length-prefixed binary protocol — resolve the current snapshot
// with one atomic pointer load and never lock against the writer.
//
// Epoch lifecycle:
//
//	Monitor.Run sweep → Monitor.Matrix() (private clone) → Publisher.Publish
//	      (stamp the next epoch, atomic swap) → readers pick it up lock-free
//
// Old epochs stay valid for requests already holding them (readers capture
// the snapshot once per request, so a swap mid-request can never produce a
// torn answer) and are garbage-collected when the last reference drops.
package serve

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ting/internal/pathsel"
	"ting/internal/telemetry"
	"ting/internal/ting"
)

// Snapshot is one published epoch: a matrix no writer touches again plus
// the serving metadata derived from it. All fields are computed at publish
// time except the TIV scan, which is O(N³) and therefore computed lazily,
// at most once per epoch, shared by every request that asks.
type Snapshot struct {
	m           *ting.Matrix
	epoch       uint64
	etag        string
	publishedAt time.Time

	prov ting.ProvCount

	tivOnce sync.Once
	tivs    []pathsel.TIV
	tivErr  error
}

// View returns the epoch's matrix, read-only.
func (s *Snapshot) View() ting.MatrixView { return s.m }

// Epoch returns the snapshot's monotonic sequence number (≥ 1).
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// ETag is the strong HTTP validator for this epoch, quotes included. It is
// derived from the epoch alone: two snapshots from one publisher never
// share an epoch, so equality of ETags is equality of snapshots.
func (s *Snapshot) ETag() string { return s.etag }

// PublishedAt is when the snapshot was swapped in.
func (s *Snapshot) PublishedAt() time.Time { return s.publishedAt }

// ProvCounts reports the upper triangle's provenance tally, computed once
// at publish time.
func (s *Snapshot) ProvCounts() ting.ProvCount { return s.prov }

// TIVs returns the epoch's triangle-inequality violations, best detour per
// violating pair, biggest savings first; equal savings are ordered by
// (S, D, R). The O(N³) scan and the sort run on first call and are
// memoized for the snapshot's lifetime — an epoch's TIV answer never
// changes, so every subsequent request is a slice read. The slice is
// shared: callers must not modify it.
func (s *Snapshot) TIVs() ([]pathsel.TIV, error) {
	s.tivOnce.Do(func() {
		s.tivs, s.tivErr = pathsel.FindTIVs(s.m)
		slices.SortFunc(s.tivs, func(a, b pathsel.TIV) int {
			return cmp.Or(
				cmp.Compare(b.SavingsFraction(), a.SavingsFraction()),
				cmp.Compare(a.S, b.S), cmp.Compare(a.D, b.D), cmp.Compare(a.R, b.R))
		})
	})
	return s.tivs, s.tivErr
}

// etagFor formats the epoch validator. Strong (no W/ prefix): a snapshot
// is byte-identical for its whole lifetime.
func etagFor(epoch uint64) string { return fmt.Sprintf("%q", fmt.Sprintf("e%d", epoch)) }

// Publisher owns the current-epoch pointer. Publish (once a sweep, rare) is
// serialized by a mutex; Current (every query, hot) is a single atomic
// load. This is the reader/writer separation the MatrixView split exists
// for: the monitor keeps mutating its own *Matrix, and only matrices it
// has given up (a Snapshot's) ever cross to the readers.
type Publisher struct {
	mu  sync.Mutex // serializes Publish: seq and cur move together
	seq uint64
	cur atomic.Pointer[Snapshot]

	swaps      *telemetry.Counter
	epochGauge *telemetry.Gauge
}

// NewPublisher creates a publisher reporting into reg (nil = no-op
// metrics).
func NewPublisher(reg *telemetry.Registry) *Publisher {
	return &Publisher{
		swaps:      reg.Counter("serve.epoch_swaps"),
		epochGauge: reg.Gauge("serve.epoch"),
	}
}

// Publish stamps m as the next epoch and swaps it in atomically. The
// caller transfers ownership of m: it must be a private copy (Clone, or
// Monitor.Matrix()) that no writer will touch again.
func (p *Publisher) Publish(m *ting.Matrix) (*Snapshot, error) {
	if m == nil {
		return nil, errors.New("serve: publish nil matrix")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	seq := p.seq + 1
	snap := &Snapshot{
		m:           m,
		epoch:       seq,
		etag:        etagFor(seq),
		publishedAt: time.Now(),
		prov:        m.ProvCounts(),
	}
	p.seq = seq
	p.cur.Store(snap)
	p.swaps.Inc()
	p.epochGauge.Set(int64(seq))
	return snap, nil
}

// Current returns the latest published snapshot, or nil before the first
// Publish. It is wait-free and safe from any number of goroutines; the
// returned snapshot stays valid (and internally consistent) no matter how
// many epochs are published after it.
func (p *Publisher) Current() *Snapshot { return p.cur.Load() }
