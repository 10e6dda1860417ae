package campaign

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"log"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"time"
	"unicode"

	"ting/internal/stats"
	"ting/internal/ting"
)

// DefaultUnreachableGrace is how long a worker rides out an unreachable
// coordinator before giving up — long enough to cover a coordinator
// crash, journal recovery, and restart, short enough that a fleet pointed
// at a dead address eventually exits instead of spinning forever.
const DefaultUnreachableGrace = 2 * time.Minute

// Worker runs shard leases against a coordinator until the campaign is
// done. Its crash-tolerance contract: every measured pair is flushed to
// Checkpoint before the lease completes, and a restarted worker replays
// its own log first — so a shard it was killed halfway through is
// finished (not re-measured) when the coordinator re-grants it, to this
// worker or any other holding the same log.
type Worker struct {
	// Name identifies the worker to the coordinator (logs and lease
	// ownership only; not a credential). It travels as one field of a CAMP
	// request line, so it is not empty and holds no white space; Run
	// refuses any other.
	Name string
	// Addr is the coordinator's directory-transport address.
	Addr string
	// Scanner does the measuring. Its Checkpoint must be the same log as
	// Checkpoint below (both nil, or the same comparable value); the worker
	// appends shard records to it and the scanner appends pair records. It
	// must have no Directory. Run refuses either.
	Scanner *ting.Scanner
	// Checkpoint is the worker's durable log (may be nil: no durability).
	Checkpoint ting.Checkpoint
	// HeartbeatEvery is the lease renewal cadence; default TTL/3.
	HeartbeatEvery time.Duration
	// Poll is how long to wait when every shard is leased out; default
	// 200ms. It is also the first reconnection delay when the coordinator
	// is unreachable (transport failures on names/acquire/complete); those
	// double up to 5s, jittered by half so a fleet that lost its
	// coordinator does not re-find it in lockstep.
	Poll time.Duration
	// UnreachableGrace is how long the coordinator may stay unreachable
	// (consecutive transport failures) before Run gives up; default
	// DefaultUnreachableGrace. A coordinator restart well inside this
	// window is invisible to the worker beyond a few retried calls.
	UnreachableGrace time.Duration
	// Dally, if positive, sleeps between leases — test and soak hook that
	// widens the window in which a kill lands mid-campaign.
	Dally time.Duration
	// Log, if non-nil, receives progress lines.
	Log *log.Logger
}

func (w *Worker) logf(format string, args ...any) {
	if w.Log != nil {
		w.Log.Printf(format, args...)
	}
}

// reconnector tracks an outage of the coordinator: consecutive failed
// calls back off exponentially with jitter, and once the coordinator has
// been continuously unreachable for the grace window the worker gives up.
// Any successful call resets it. It is confined to the worker's main
// goroutine (rand.Rand is not concurrency-safe).
type reconnector struct {
	backoff   stats.Backoff
	grace     time.Duration
	rng       *rand.Rand
	fails     int
	downSince time.Time
}

func (r *reconnector) reset() { r.fails = 0 }

// wait sleeps before the next retry, or returns a terminal error when the
// outage has outlived the grace window (or ctx ended).
func (r *reconnector) wait(ctx context.Context, err error) error {
	r.fails++
	if r.fails == 1 {
		r.downSince = time.Now()
	}
	if time.Since(r.downSince) >= r.grace {
		return fmt.Errorf("campaign: coordinator unreachable for %s: %w", r.grace, err)
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(r.backoff.Delay(r.fails, r.rng)):
	}
	return nil
}

// Run leases and measures shards until the coordinator reports the
// campaign done, ctx is cancelled, or the coordinator stays unreachable
// past UnreachableGrace. It is the worker process's whole life; restart
// the process (same checkpoint path) to recover from a crash. A
// coordinator restart is survived in place: calls that fail at the
// transport level retry with jittered exponential backoff until the
// reborn coordinator answers.
func (w *Worker) Run(ctx context.Context) error {
	if w.Scanner == nil {
		return errors.New("campaign: worker needs a scanner")
	}
	// The coordinator would refuse every acquire of such a name, and the
	// worker would retry that refusal for the whole grace window.
	if w.Name == "" || strings.ContainsFunc(w.Name, unicode.IsSpace) {
		return fmt.Errorf("campaign: worker name %q is not one field of a CAMP request line", w.Name)
	}
	// A Directory would add a relay joining mid-lease to the ledger, whose
	// next header would then name a relay set the log cannot replay.
	if w.Scanner.Directory != nil {
		return errors.New("campaign: worker's scanner has a Directory; the relay set is the coordinator's")
	}
	// Shard records and pair records in two logs would leave openLedger a
	// log without the pairs: a restarted worker would measure them again.
	if !sameLog(w.Scanner.Checkpoint, w.Checkpoint) {
		return errors.New("campaign: worker's scanner writes another Checkpoint than the worker's")
	}
	poll := w.Poll
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	grace := w.UnreachableGrace
	if grace <= 0 {
		grace = DefaultUnreachableGrace
	}
	h := fnv.New64a()
	h.Write([]byte(w.Name))
	rec := &reconnector{
		backoff: stats.Backoff{Base: poll, Max: 5 * time.Second},
		grace:   grace,
		// Seeded per worker name: the fleet's retry schedules decorrelate,
		// and a given worker's schedule reproduces in tests.
		rng: rand.New(rand.NewSource(int64(h.Sum64()))),
	}

	// The campaign's canonical name order frames everything: shard pair
	// derivation, the worker's matrix, the checkpoint header.
	var names []string
	for {
		var err error
		names, err = FetchNames(w.Addr)
		if err == nil {
			rec.reset()
			break
		}
		w.logf("worker %s: fetch names: %v", w.Name, err)
		if gerr := rec.wait(ctx, err); gerr != nil {
			return fmt.Errorf("campaign: worker %s: %w", w.Name, gerr)
		}
	}
	if len(names) < 2 {
		return fmt.Errorf("campaign: coordinator offered %d relays", len(names))
	}

	ledger, err := w.openLedger(names)
	if err != nil {
		return fmt.Errorf("campaign: worker %s: %w", w.Name, err)
	}
	// Every lease's submission is built here: the coordinator keeps none
	// of it.
	var sub shardValues

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		lease, res, err := Acquire(w.Addr, w.Name)
		if err != nil {
			// Transport failures and coordinator-side errors (a failed
			// journal write, say) both resolve by waiting for a healthy
			// coordinator — bounded by the unreachable-grace window.
			w.logf("worker %s: acquire: %v", w.Name, err)
			if gerr := rec.wait(ctx, err); gerr != nil {
				return fmt.Errorf("campaign: worker %s: %w", w.Name, gerr)
			}
			continue
		}
		rec.reset()
		switch res {
		case AcquireDone:
			w.logf("worker %s: campaign done", w.Name)
			return nil
		case AcquireNone:
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(poll):
			}
			continue
		}

		if err := w.runLease(ctx, names, ledger, lease, rec, &sub); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			// A fenced or failed lease is not fatal to the worker: the
			// coordinator will re-grant the shard, possibly to us.
			w.logf("worker %s: lease %s epoch %d: %v", w.Name, lease.Shard.ID, lease.Epoch, err)
		}
		if w.Dally > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(w.Dally):
			}
		}
	}
}

// sameLog reports whether a and b are one log: both nil, or equal values of
// a comparable type. A value that is not comparable (a struct holding a
// slice, say) cannot be shown to be the same log and is refused rather than
// compared, which would panic.
func sameLog(a, b ting.Checkpoint) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return reflect.ValueOf(a).Comparable() && a == b
}

// openLedger returns the matrix the worker measures into for its whole
// life, over the campaign's names: its checkpoint replayed (ReplayState), so
// every pair the log holds is a ProvResumed cell and crash recovery resumes
// finished work rather than redoing it, or a fresh matrix when the log has
// no header. The matrix is the worker's ledger — a lease's scan writes its
// successes there, and what a shard still needs and what its submission
// reports are read from there. A checkpoint whose header names another relay
// set is refused.
func (w *Worker) openLedger(names []string) (*ting.Matrix, error) {
	if w.Checkpoint == nil {
		return ting.NewMatrix(names)
	}
	st, err := ting.ReplayState(w.Checkpoint)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	// Another campaign's cells are not this one's to submit, and the next
	// lease's header would leave a log no replay accepts.
	if st.Names != nil && !slices.Equal(st.Names, names) {
		return nil, fmt.Errorf("checkpoint is another campaign's: %d relays in its header, %d in the coordinator's",
			len(st.Names), len(names))
	}
	m := st.Matrix
	if m == nil {
		if m, err = ting.NewMatrix(names); err != nil {
			return nil, err
		}
	}
	if st.Records > 0 {
		w.logf("worker %s: resumed %d measured pairs from checkpoint", w.Name, m.ProvCounts().Resumed)
	}
	return m, nil
}

// runLease measures one lease's shard into the ledger and submits it. The
// heartbeat goroutine renews the lease while the scan runs; only a genuine
// ErrFenced verdict cancels the scan, because measuring for a lease someone
// else now holds is wasted work (their submission, not ours, will count). A
// heartbeat that merely failed in transit proves nothing about the lease —
// the coordinator may be mid-restart — so it is retried on the next TTL/3
// tick while the scan keeps running; the recovered coordinator either
// accepts the next beat (resurrecting the lease if it had lazily expired)
// or finally fences us. The submission is built in *sub, which the worker
// keeps for its whole life.
func (w *Worker) runLease(ctx context.Context, names []string, ledger *ting.Matrix, lease Lease, rec *reconnector, sub *shardValues) error {
	sh := lease.Shard
	if err := sh.fits(len(names)); err != nil {
		return err
	}
	w.logf("worker %s: lease %s epoch %d: %d pairs", w.Name, sh.ID, lease.Epoch, sh.PairCount())

	if w.Checkpoint != nil {
		rec := ting.CheckpointRecord{
			Kind:   ting.RecordShard,
			Shard:  sh.ID,
			Lease:  lease.Epoch,
			Worker: w.Name,
		}
		// Flushed on its own: the log shows the lease before the shard's
		// first pair is measured.
		err := w.Checkpoint.Append(rec)
		if err == nil {
			err = w.Checkpoint.Flush()
		}
		if err != nil {
			return fmt.Errorf("campaign: shard record: %w", err)
		}
	}

	// Shards are disjoint, so the ledger holds a pair of this shard only when
	// the shard was granted to this worker before: a previous life cut short
	// by a crash (replayed into the ledger), or a lease it lost to a fence
	// after measuring part of it. Those pairs are not measured again.
	need := make([][2]int, 0, sh.PairCount())
	for c := sh.cursor(len(names)); ; {
		i, j, ok := c.next()
		if !ok {
			break
		}
		if !measured(ledger, i, j) {
			need = append(need, [2]int{i, j})
		}
	}

	leaseCtx, cancelLease := context.WithCancel(ctx)
	defer cancelLease()
	hb := w.HeartbeatEvery
	if hb <= 0 {
		hb = lease.TTL / 3
	}
	if hb <= 0 {
		hb = 100 * time.Millisecond
	}
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		t := time.NewTicker(hb)
		defer t.Stop()
		for {
			select {
			case <-leaseCtx.Done():
				return
			case <-t.C:
			}
			if err := Heartbeat(w.Addr, w.Name, lease); err != nil {
				switch {
				case errors.Is(err, ErrFenced):
					// The only verdict that abandons the scan: the shard
					// verifiably belongs to someone else now.
					w.logf("worker %s: lease %s fenced mid-scan", w.Name, lease.Shard.ID)
					cancelLease()
					return
				case IsTransient(err):
					// Never reached the coordinator: says nothing about the
					// lease. Keep scanning; the next tick retries.
					w.logf("worker %s: heartbeat (transient): %v", w.Name, err)
				default:
					// A non-fencing verdict (validation trouble): the lease
					// may still be ours, and the submission is the real
					// test — keep scanning.
					w.logf("worker %s: heartbeat: %v", w.Name, err)
				}
			}
		}
	}()

	var scanErr error
	if len(need) > 0 {
		_, scanErr = w.Scanner.ScanPairs(leaseCtx, ledger, need)
	}
	cancelLease()
	<-hbDone
	if scanErr != nil {
		return fmt.Errorf("scan: %w", scanErr)
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	// The submission: one value per shard pair, in the shard's canonical
	// order. A completed scan settled every pair it was given, so a pair the
	// ledger holds no measurement of is one the scan gave up on.
	sub.rtts, sub.failed = sh.ledgerValues(ledger, sub.rtts, sub.failed)

	// A fully-measured lease is too expensive to abandon to a transport
	// blip: retry the submission with backoff while the coordinator is
	// unreachable. The recorded epoch stays valid across a coordinator
	// recovery (the journal replays it), so a late submission lands unless
	// the shard was genuinely re-granted — which only ErrFenced proves.
	for {
		err := submit(w.Addr, w.Name, lease, sub.rtts, sub.failed)
		if err == nil {
			rec.reset()
			break
		}
		if errors.Is(err, ErrFenced) {
			// Someone else's epoch won the shard. Our measurements stay in
			// our log and our ledger — if the coordinator re-grants us the
			// shard, they are submitted without being measured again.
			return fmt.Errorf("submission fenced: %w", err)
		}
		if !IsTransient(err) {
			return err
		}
		w.logf("worker %s: complete %s (transient, will retry): %v", w.Name, sh.ID, err)
		if gerr := rec.wait(ctx, err); gerr != nil {
			return gerr
		}
	}
	w.logf("worker %s: completed shard %s (%d pairs, %d replayed)",
		w.Name, sh.ID, sh.PairCount(), sh.PairCount()-len(need))
	return nil
}
