package campaign

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
	"unicode"

	"ting/internal/telemetry"
	"ting/internal/ting"
	"ting/internal/wal"
)

// ErrFenced rejects a heartbeat or completion carrying a stale lease
// epoch: the shard has since been granted to someone else (or completed),
// and the caller must abandon its work on it.
var ErrFenced = errors.New("campaign: lease fenced")

// ErrUnknownShard rejects traffic about a shard the coordinator never
// issued.
var ErrUnknownShard = errors.New("campaign: unknown shard")

// PairResult is one measured pair inside a shard submission as named
// pairs, the form Complete takes. The CAMP wire, the worker and the journal
// carry a submission by index instead, where a pair the worker gave up on
// is marked failed; only the benchmark builds PairResults, and its pairs
// never fail.
type PairResult struct {
	X   string
	Y   string
	RTT float64
}

type shardPhase int

const (
	shardPending shardPhase = iota
	shardLeased
	shardDone
)

func (p shardPhase) String() string {
	switch p {
	case shardLeased:
		return "leased"
	case shardDone:
		return "done"
	default:
		return "pending"
	}
}

type shardState struct {
	shard      Shard
	phase      shardPhase
	worker     string
	epoch      uint64 // highest epoch ever granted for this shard
	deadline   time.Time
	reassigned int
	failed     int // pairs the accepted submission marked failed
	block      int // the shard's tile block, numbered by first appearance in canonical order
}

// Coordinator owns a campaign's shard ledger: it grants leases, renews
// them on heartbeat, expires the silent, re-grants their shards at a
// higher fencing epoch, and accepts exactly one submission per shard.
// Accepted submissions live in one matrix over the campaign's names, each
// written there once, so the merged matrix is that matrix's Clone.
// All methods are safe for concurrent use; expiry is evaluated lazily on
// every call against the clock, so no background ticker is needed and this
// package's tests can drive the clock by hand.
type Coordinator struct {
	clock func() time.Time // nil means time.Now
	// TTL is how long a lease lives without a heartbeat.
	TTL time.Duration

	names []string

	mu sync.Mutex
	// ledger holds every accepted submission: a measured pair's cell is
	// fresh, a failed pair's and a pending shard's are missing.
	ledger    *ting.Matrix
	order     []*shardState // canonical shard order — also the merge order
	byID      map[string]*shardState
	nextEpoch uint64
	remaining int
	done      chan struct{}
	journal   *wal.Log[journalRecord]
	recovered bool
	// rtts holds the named submission Complete is accepting in its index
	// form, reused from one call to the next.
	rtts []float64
	// lastBlock is the tile block of each worker's latest grant, which
	// Acquire prefers to grant it from again. It lives in memory only: a
	// recovered coordinator starts without it.
	lastBlock map[string]int
	// busy is Acquire's scratch, one flag per tile block: does another
	// worker hold a live lease there.
	busy []bool

	granted, renewed, expired, fenced, completed *telemetry.Counter

	jAppended, jReplayed, jCompacted, recoveries *telemetry.Counter
}

// NewCoordinator builds a coordinator over the campaign's canonical name
// order and shard partition. A nil telemetry registry disables counters.
func NewCoordinator(names []string, shards []Shard, ttl time.Duration, treg *telemetry.Registry) (*Coordinator, error) {
	if len(shards) == 0 {
		return nil, errors.New("campaign: no shards")
	}
	if ttl <= 0 {
		return nil, errors.New("campaign: non-positive lease TTL")
	}
	ledger, err := ting.NewMatrix(names)
	if err != nil {
		return nil, err
	}
	for _, n := range names {
		if len(n) > maxName {
			return nil, fmt.Errorf("campaign: relay name of %d bytes; a reply line fits names of at most %d", len(n), maxName)
		}
		// A names reply carries a name as one trimmed line, and a consensus
		// line (directory.ParseLine) a nickname as one field: a name
		// holding white space survives neither.
		if strings.ContainsFunc(n, unicode.IsSpace) {
			return nil, fmt.Errorf("campaign: relay name %q holds white space; a names reply could not carry it", n)
		}
	}
	c := &Coordinator{
		ledger:     ledger,
		TTL:        ttl,
		names:      ledger.Names(), // the ledger's own copy, never grown
		byID:       make(map[string]*shardState, len(shards)),
		lastBlock:  map[string]int{},
		remaining:  len(shards),
		done:       make(chan struct{}),
		granted:    treg.Counter("campaign.lease.granted"),
		renewed:    treg.Counter("campaign.lease.renewed"),
		expired:    treg.Counter("campaign.lease.expired"),
		fenced:     treg.Counter("campaign.lease.fenced"),
		completed:  treg.Counter("campaign.shards.completed"),
		jAppended:  treg.Counter("campaign.journal.appended"),
		jReplayed:  treg.Counter("campaign.journal.replayed"),
		jCompacted: treg.Counter("campaign.journal.compacted"),
		recoveries: treg.Counter("campaign.coordinator.recoveries"),
	}
	blocks := map[[2]int]int{}
	for _, sh := range shards {
		// Reject shards that don't fit the name set now, not at merge time.
		if err := sh.fits(len(c.names)); err != nil {
			return nil, err
		}
		b, ok := blocks[[2]int{sh.TI, sh.TJ}]
		if !ok {
			b = len(blocks)
			blocks[[2]int{sh.TI, sh.TJ}] = b
		}
		st := &shardState{shard: sh, block: b}
		c.order = append(c.order, st)
		c.byID[sh.ID] = st
	}
	c.busy = make([]bool, len(blocks))
	if err := checkDisjoint(shards); err != nil {
		return nil, err
	}
	return c, nil
}

// NewJournaledCoordinator is NewCoordinator plus a write-ahead journal at
// path: the campaign header is written (and fsynced) before the
// coordinator exists, every grant and completion is journaled before it is
// acknowledged, and RecoverCoordinator rebuilds the whole ledger from the
// file after a crash. Path must not already hold a non-empty journal.
func NewJournaledCoordinator(names []string, shards []Shard, ttl time.Duration, path string, treg *telemetry.Registry) (*Coordinator, error) {
	c, err := NewCoordinator(names, shards, ttl, treg)
	if err != nil {
		return nil, err
	}
	// A non-empty journal is a recovery situation, not a new campaign.
	if fi, err := os.Stat(path); err == nil && fi.Size() > 0 {
		return nil, fmt.Errorf("campaign: journal %s already exists; recover it instead", path)
	}
	if c.journal, err = wal.Open[journalRecord](path); err != nil {
		return nil, fmt.Errorf("campaign: journal: %w", err)
	}
	if err := c.journalAppend(journalHeader(c.names, shards, ttl, 0)); err != nil {
		c.journal.Close()
		return nil, err
	}
	return c, nil
}

// RecoverCoordinator rebuilds a crashed coordinator from its journal: the
// campaign header restores names, shard geometry, and lease TTL; grant
// records restore in-flight leases (worker, epoch, deadline) and — the
// invariant everything rests on — push the fencing-epoch counter strictly
// above the highest epoch ever granted, so a reborn coordinator can never
// reissue an epoch a pre-crash worker might still hold. Complete records
// restore done shards, each submission written into the ledger as Complete
// writes it, so Merged after recovery holds exactly the bytes the live
// coordinator accepted. Leases whose journaled deadline has passed expire
// lazily on the next call, exactly as if the coordinator had never died: a
// pre-crash holder that heartbeats before its shard is re-granted
// resurrects its lease, and one that shows up after gets ErrFenced.
func RecoverCoordinator(path string, treg *telemetry.Registry) (*Coordinator, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: journal: %w", err)
	}
	c, records, err := replayJournal(f, treg)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("campaign: journal %s: %w", path, err)
	}
	c.recovered = true
	if c.remaining == 0 {
		close(c.done)
	}
	if c.journal, err = wal.Open[journalRecord](path); err != nil {
		return nil, fmt.Errorf("campaign: journal: %w", err)
	}
	c.jReplayed.Add(int64(records))
	c.recoveries.Inc()
	return c, nil
}

// Journal returns the coordinator's write-ahead journal, nil when the
// coordinator runs in-memory only. The owner closes it at shutdown.
func (c *Coordinator) Journal() *wal.Log[journalRecord] { return c.journal }

// journalAppend appends rec to the journal and forces it to disk before
// returning — the WAL contract: nothing is acknowledged to a worker that a
// recovered coordinator would not know.
func (c *Coordinator) journalAppend(rec journalRecord) error {
	err := c.journal.Append(rec)
	if err == nil {
		err = c.journal.Flush(1)
	}
	if err != nil {
		return fmt.Errorf("campaign: journal: %w", err)
	}
	c.jAppended.Inc()
	return nil
}

// CompactJournal atomically rewrites the journal as a snapshot of the
// current ledger — header (carrying the epoch watermark), one grant per
// ever-granted shard in epoch order, one complete per done shard — so
// done-shard results stop replaying the long way forever. A complete
// record is read off the ledger by walking the shard: RTTs from the cells,
// failed positions from the cells still missing — the record the accepted
// submission wrote. Safe to call on any cadence; a crash mid-compaction
// leaves either the old journal or the new one. No-op without a journal.
func (c *Coordinator) CompactJournal() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.journal == nil {
		return nil
	}
	if err := c.journal.Rewrite(c.snapshotLocked()); err != nil {
		return fmt.Errorf("campaign: journal: %w", err)
	}
	c.jCompacted.Inc()
	return nil
}

// snapshotLocked lists the records CompactJournal writes. Called under c.mu.
func (c *Coordinator) snapshotLocked() []journalRecord {
	shards := make([]Shard, len(c.order))
	for i, st := range c.order {
		shards[i] = st.shard
	}
	recs := []journalRecord{journalHeader(c.names, shards, c.TTL, c.nextEpoch)}
	var granted []*shardState
	for _, st := range c.order {
		if st.epoch > 0 {
			granted = append(granted, st)
		}
	}
	// Grant records stay strictly increasing by epoch within the file —
	// the monotonic-fencing invariant a journal scan asserts.
	sort.Slice(granted, func(i, j int) bool { return granted[i].epoch < granted[j].epoch })
	for _, st := range granted {
		recs = append(recs, journalRecord{
			Kind:     journalGrant,
			Shard:    st.shard.ID,
			Worker:   st.worker,
			Epoch:    st.epoch,
			Deadline: st.deadline.UnixNano(),
			Regrants: st.reassigned,
		})
	}
	for _, st := range c.order {
		if st.phase != shardDone {
			continue
		}
		rtts, failed := st.shard.ledgerValues(c.ledger, make([]float64, 0, st.shard.PairCount()), nil)
		recs = append(recs, journalRecord{
			Kind: journalComplete, Shard: st.shard.ID, Worker: st.worker, Epoch: st.epoch,
			RTTs: rtts, Failed: failed,
		})
	}
	return recs
}

func (c *Coordinator) now() time.Time {
	if c.clock != nil {
		return c.clock()
	}
	return time.Now()
}

// expireLocked demotes every leased shard whose deadline has passed back
// to pending, so the next Acquire re-grants it at a higher epoch. Called
// under c.mu by every entry point.
func (c *Coordinator) expireLocked(now time.Time) {
	for _, st := range c.order {
		if st.phase == shardLeased && now.After(st.deadline) {
			st.phase = shardPending
			st.reassigned++
			c.expired.Inc()
		}
	}
}

// AcquireResult says what Acquire handed back.
type AcquireResult int

const (
	// AcquireGranted: the lease is yours; heartbeat it.
	AcquireGranted AcquireResult = iota
	// AcquireNone: every shard is leased out but the campaign is not done;
	// poll again shortly.
	AcquireNone
	// AcquireDone: every shard is complete; the worker can exit.
	AcquireDone
)

// Acquire grants worker a pending shard, stamping a fresh fencing epoch
// and a TTL deadline. It keeps a worker to one tile block, so a worker's
// ledger allocates the tiles of its own blocks rather than nearly every
// tile of the matrix: it grants the first pending shard, in canonical
// order, of the block of worker's previous grant; else of a block where no
// other worker holds a live lease; else the first pending shard. Which
// shard a worker gets never changes what a shard measures. On a journaled
// coordinator the grant record — which carries the epoch watermark — is
// fsynced to the journal before the lease is handed out, so a recovered
// coordinator can never reissue an epoch any worker has ever seen. A
// journal write failure aborts the grant with no state change.
func (c *Coordinator) Acquire(worker string) (Lease, AcquireResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.expireLocked(now)
	if c.remaining == 0 {
		return Lease{}, AcquireDone, nil
	}
	st := c.pickLocked(worker)
	if st == nil {
		return Lease{}, AcquireNone, nil
	}
	epoch := c.nextEpoch + 1
	deadline := now.Add(c.TTL)
	if c.journal != nil {
		rec := journalRecord{
			Kind:     journalGrant,
			Shard:    st.shard.ID,
			Worker:   worker,
			Epoch:    epoch,
			Deadline: deadline.UnixNano(),
		}
		if err := c.journalAppend(rec); err != nil {
			return Lease{}, AcquireNone, err
		}
	}
	c.nextEpoch = epoch
	st.phase = shardLeased
	st.worker = worker
	st.epoch = epoch
	st.deadline = deadline
	c.lastBlock[worker] = st.block
	c.granted.Inc()
	return Lease{Shard: st.shard, Epoch: st.epoch, TTL: c.TTL}, AcquireGranted, nil
}

// pickLocked is the pending shard Acquire grants worker, nil when there is
// none. Two passes over the shards, no allocation. Called under c.mu, after
// an expiry pass.
func (c *Coordinator) pickLocked(worker string) *shardState {
	clear(c.busy)
	for _, st := range c.order {
		if st.phase == shardLeased && st.worker != worker {
			c.busy[st.block] = true
		}
	}
	prev, ok := c.lastBlock[worker]
	var first, free *shardState
	for _, st := range c.order {
		if st.phase != shardPending {
			continue
		}
		if ok && st.block == prev {
			return st
		}
		if first == nil {
			first = st
		}
		if free == nil && !c.busy[st.block] {
			free = st
		}
	}
	if free != nil {
		return free
	}
	return first
}

// Heartbeat renews worker's lease on shardID. Only the shard's highest
// granted epoch renews — a stale holder gets ErrFenced and must stop, and so
// does epoch 0, which no grant carries. A lease that expired but was not
// yet re-granted still carries the highest epoch, so a late-but-alive
// worker resurrects it instead of losing work.
func (c *Coordinator) Heartbeat(worker, shardID string, epoch uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.expireLocked(now)
	st, ok := c.byID[shardID]
	if !ok {
		return ErrUnknownShard
	}
	if epoch == 0 || epoch != st.epoch || st.phase == shardDone {
		c.fenced.Inc()
		return ErrFenced
	}
	st.phase = shardLeased
	st.worker = worker
	st.deadline = now.Add(c.TTL)
	c.renewed.Inc()
	return nil
}

// Complete accepts worker's submission for shardID as named pairs. The
// epoch must be the shard's highest granted one (ErrFenced otherwise — last
// writer wins — and for epoch 0, so a shard never granted is never done),
// and results must list the shard's pairs exactly in its canonical order,
// the order of Shard.Pairs: every pair once, nothing extra, every RTT
// finite. The check walks the shard's geometry beside the submission, so it
// allocates nothing and costs the shard's pairs, not the campaign's. The
// submission is then accepted in its index form, as completeValues accepts
// one; results is not retained, so the caller may reuse it once Complete
// returns. Completing an already-done shard at its winning epoch is an
// idempotent no-op, so a worker may safely retry a submission whose ack it
// lost.
func (c *Coordinator) Complete(worker, shardID string, epoch uint64, results []PairResult) error {
	return c.complete(worker, shardID, epoch, results, nil, nil)
}

// completeValues is Complete for a submission by index, the form the CAMP
// wire carries: rtts holds one value per shard pair in canonical order and
// failed the strictly increasing positions of the failed pairs, which
// checkValues checks, as journal replay does. Neither is retained.
func (c *Coordinator) completeValues(worker, shardID string, epoch uint64, rtts []float64, failed []int) error {
	return c.complete(worker, shardID, epoch, nil, rtts, failed)
}

// complete accepts a submission: results when it is not nil, and rtts and
// failed otherwise. An accepted submission is journaled in its index form,
// then written into the ledger from that form.
func (c *Coordinator) complete(worker, shardID string, epoch uint64, results []PairResult, rtts []float64, failed []int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(c.now())
	st, ok := c.byID[shardID]
	if !ok {
		return ErrUnknownShard
	}
	if epoch == 0 || epoch != st.epoch {
		c.fenced.Inc()
		return ErrFenced
	}
	if st.phase == shardDone {
		return nil
	}
	if results != nil {
		if err := st.shard.checkResults(c.names, results); err != nil {
			return err
		}
		c.rtts = values(results, c.rtts)
		rtts = c.rtts
	} else if err := st.shard.checkValues(rtts, failed); err != nil {
		return err
	}
	if c.journal != nil {
		// WAL discipline: the winning submission reaches disk before the
		// worker's ack — a recovered coordinator knows every shard it ever
		// called done, and Merged after recovery folds the same bytes.
		rec := journalRecord{Kind: journalComplete, Shard: shardID, Worker: worker, Epoch: epoch, RTTs: rtts, Failed: failed}
		if err := c.journalAppend(rec); err != nil {
			return err
		}
	}
	st.phase = shardDone
	st.worker = worker
	st.failed = st.shard.record(c.ledger, rtts, failed)
	c.remaining--
	c.completed.Inc()
	if c.remaining == 0 {
		close(c.done)
	}
	return nil
}

// shard returns shard id, and whether the campaign has such a shard.
func (c *Coordinator) shard(id string) (Shard, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.byID[id]
	if !ok {
		return Shard{}, false
	}
	return st.shard, true
}

// Done is closed once every shard has a submission.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Names returns the campaign's canonical relay name order.
func (c *Coordinator) Names() []string {
	return append([]string(nil), c.names...)
}

// Merged returns the campaign's matrix: a copy-on-write Clone of the
// ledger, so it costs the tile grid, not the cells. Shards are disjoint
// (NewCoordinator checked) and each has exactly one accepted submission
// covering its pairs exactly (Complete checked), so every cell was written
// at most once: the result is bytewise reproducible given the same
// submissions, and (with a deterministic measurer) bytewise equal to a
// single-process scan. Requires the campaign to be done.
func (c *Coordinator) Merged() (*ting.Matrix, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.remaining != 0 {
		return nil, fmt.Errorf("campaign: merge with %d shards outstanding", c.remaining)
	}
	return c.ledger.Clone(), nil
}

// ShardStatus is one shard's row in a Status snapshot.
type ShardStatus struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	Worker     string `json:"worker,omitempty"`
	Epoch      uint64 `json:"epoch"`
	Reassigned int    `json:"reassigned"`
	Pairs      int    `json:"pairs"`
	Failed     int    `json:"failed,omitempty"`
}

// Status is a point-in-time snapshot of the campaign ledger.
type Status struct {
	Relays     int `json:"relays"`
	Total      int `json:"total_shards"`
	Done       int `json:"done_shards"`
	Leased     int `json:"leased_shards"`
	Pending    int `json:"pending_shards"`
	Reassigned int `json:"reassigned_leases"`
	LostPairs  int `json:"lost_pairs"`
	// Recoveries is how many crash recoveries produced this coordinator
	// (0 for a freshly created one, 1 for one rebuilt from its journal) —
	// the field the coordinator-kill soak gates on.
	Recoveries int `json:"recoveries"`
	// EpochWatermark is the highest fencing epoch ever granted; every
	// future grant is strictly above it, crashes included.
	EpochWatermark uint64        `json:"epoch_watermark"`
	Shards         []ShardStatus `json:"shards"`
}

// Snapshot reports the ledger's current state (after an expiry pass).
// LostPairs counts pairs of completed shards that the winning submission
// marked failed — the number the shard-soak gate requires to be zero.
func (c *Coordinator) Snapshot() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(c.now())
	s := Status{Relays: len(c.names), Total: len(c.order), EpochWatermark: c.nextEpoch}
	if c.recovered {
		s.Recoveries = 1
	}
	for _, st := range c.order {
		row := ShardStatus{
			ID:         st.shard.ID,
			State:      st.phase.String(),
			Epoch:      st.epoch,
			Reassigned: st.reassigned,
			Pairs:      st.shard.PairCount(),
		}
		if st.phase != shardPending {
			row.Worker = st.worker
		}
		row.Failed = st.failed
		switch st.phase {
		case shardDone:
			s.Done++
		case shardLeased:
			s.Leased++
		default:
			s.Pending++
		}
		s.Reassigned += st.reassigned
		s.LostPairs += row.Failed
		s.Shards = append(s.Shards, row)
	}
	return s
}
