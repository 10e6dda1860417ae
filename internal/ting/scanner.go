package ting

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ting/internal/directory"
)

// Scanner measures all pairs of a relay set in parallel — the workflow
// that produces the 930-pair validation dataset (§4.2) and the 50-node
// all-pairs dataset driving every Section 5 application. It is built for
// the live network's churn (§4.5): failed pairs can be retried with
// exponential backoff on a different worker, each attempt can carry a
// deadline, and a non-tolerant scan aborts promptly instead of measuring
// the rest of the campaign after the first error. With a Directory, the
// scan also tracks the consensus while it runs: relays that leave mid-scan
// have their pending pairs tombstoned instead of burning retries, relays
// that join are appended to the schedule, and key rotations invalidate the
// departed identity's cached state.
//
// A Scanner is configuration only. Scan, ScanPairs, Resume, ScanBudget's
// batches and Monitor.Sweep are adaptors over one engine: each calls run,
// which allocates the scan state type (scan.go) and drives its phases,
// with the pairs themselves — queued per worker, retried, parked behind a
// breaker, added by a join — held by its one schedule (schedule.go).
type Scanner struct {
	// NewMeasurer builds one Measurer per worker. Probers are typically
	// not safe for concurrent use, so each worker gets its own. Required.
	// Measurers are closed when the scan finishes.
	NewMeasurer func(worker int) (*Measurer, error)
	// Workers is the parallelism; default 4.
	Workers int
	// HalfCircuits, if non-nil, is a cross-scan half-circuit cache: min
	// R_Cx series memoized in one campaign answer the next. If nil, each
	// Scan owns a private HalfCache for its own duration (unless
	// DisableHalfCache is set), which alone cuts an N-node all-pairs scan
	// from 3·pairs circuit series to pairs + N (§3.3/§4.6).
	HalfCircuits *HalfCache
	// DisableHalfCache turns half-circuit memoization off entirely, so
	// every pair re-measures C_x and C_y — the paper's literal §4.2
	// procedure, and the honest mode when relay-local delays drift faster
	// than a scan completes.
	DisableHalfCache bool
	// Shuffle, if non-zero, probes pairs in a seed-determined random order,
	// as the paper does ("We probe each pair in a randomized order", §4.2).
	// The same seed also drives backoff jitter, so a scan's retry schedule
	// is reproducible. When zero, the scanner instead groups each worker's
	// pairs by shared first endpoint (reuse-aware order), so a reusing
	// prober's prefix extension and the half-circuit cache see the same
	// relay back to back and workers never contend on one singleflight.
	Shuffle int64
	// Progress, if non-nil, is called after each pair reaches a final
	// disposition — success, (in tolerant mode) permanent failure, or a
	// churn tombstone — so done always reaches total on a completed scan.
	// total can grow mid-scan when a relay joins the consensus.
	Progress func(done, total int)
	// SkipFailures keeps scanning when a pair fails (live relays churn;
	// aborting a 10,000-pair campaign for one dead relay is wrong). Failed
	// pairs stay zero in the matrix and are reported alongside it.
	SkipFailures bool
	// Retry is how many additional attempts a failed pair gets before it
	// is reported (default 0). Retries are handed to a different worker
	// when one is free — a pair that failed because its worker's circuits
	// wedged gets a fresh prober.
	Retry int
	// Backoff is the wait before the first retry, doubled per attempt and
	// jittered ±50% from the Shuffle seed. Zero retries immediately.
	Backoff time.Duration
	// PairTimeout bounds each measurement attempt. Cancellation is
	// cooperative (checked between circuits and mid-circuit by every
	// prober), so a wedged transport is bounded by the prober's own
	// timeouts, not this one. Zero means no deadline.
	PairTimeout time.Duration
	// AdaptiveDeadline replaces the fixed PairTimeout with a per-pair
	// estimate — EWMA of observed attempt durations plus K× their EWMA
	// absolute deviation, clamped to [MinPairTimeout, PairTimeout] — once
	// enough attempts have been observed. A pair that times out under an
	// adaptive deadline retries with the full PairTimeout, so a
	// legitimately slow pair is bounded, not lost. Cuts the tail cost of
	// wedged pairs from PairTimeout to roughly MinPairTimeout each.
	AdaptiveDeadline bool
	// MinPairTimeout is the adaptive deadline's floor; default 100ms. It
	// keeps a streak of fast pairs from strangling a legitimately slow
	// one.
	MinPairTimeout time.Duration
	// Observer, if non-nil, receives scan-lifecycle callbacks (retries,
	// worker occupancy, quarantines, churn reconciliations).
	// Per-measurement callbacks come from the Measurer's own Observer; set
	// both to the same value to see the whole picture.
	Observer *Observer
	// Checkpoint, if non-nil, makes the campaign durable: the relay set
	// and every completed pair (plus memoized half-circuit minima) are
	// appended to the log as they happen, so a crashed or cancelled scan
	// forfeits nothing — Resume replays the log and measures only the
	// rest. A checkpoint append failure aborts the scan: a campaign that
	// silently stopped being durable is worse than one that stopped.
	Checkpoint Checkpoint
	// Health, if non-nil, is the relay scoreboard driving per-relay
	// circuit breakers: a relay with FailureThreshold consecutive
	// failures is quarantined — its pending pairs are deferred to the end
	// of the scan instead of burning retries and stalling workers, and if
	// the breaker is still open when they come back up they are reported
	// as ErrQuarantined PairErrors. Share one Health across scans (and
	// with a Monitor) to carry relay reputation between campaigns. Nil
	// disables the breaker entirely.
	Health *Health
	// Directory, if non-nil, is the live consensus the scan reconciles
	// against. The scan subscribes to consensus deltas: a relay that
	// leaves mid-scan has its pending pairs tombstoned with *ChurnError
	// (provenance ProvRemoved, no retry budget burned, the scan is not
	// aborted even without SkipFailures); a relay that joins has its pairs
	// appended to the schedule; a key rotation invalidates the relay's
	// cached half circuits, breaker state, and deadline statistics. With a
	// Checkpoint too, the campaign header records the consensus epoch and
	// per-relay onion-key fingerprints, and every reconciled delta is
	// logged — so Resume against a newer consensus reconciles instead of
	// re-measuring ghosts.
	Directory *directory.Registry
}

// PairError records one failed measurement in a tolerant scan. It is an
// error itself, and Unwrap exposes the cause so callers can
// errors.Is(err, context.Canceled), errors.Is(err, ErrQuarantined), or
// errors.Is(err, ErrChurned) instead of string-matching.
type PairError struct {
	X, Y string
	Err  error
	// Attempts is how many measurement attempts the pair consumed.
	Attempts int
}

func (e PairError) Error() string {
	return fmt.Sprintf("ting: pair (%s,%s) after %d attempts: %v", e.X, e.Y, e.Attempts, e.Err)
}

// Unwrap exposes the final attempt's error.
func (e PairError) Unwrap() error { return e.Err }

// pairJob is one queued measurement attempt, 16 bytes. The pair is named
// by matrix index; names are looked up (scan.name) only where they leave
// the engine.
type pairJob struct {
	x, y    int32
	attempt int32 // attempts already consumed
	// deferred marks a job that was parked behind an open circuit breaker
	// once already; a deferred job that still cannot run is quarantined
	// rather than parked again, so the scan always terminates.
	deferred bool
	// fullDeadline marks a retry of an attempt that timed out under an
	// adaptive deadline: this attempt gets the full PairTimeout, so the
	// estimator being wrong about a slow pair costs one retry, not the
	// pair.
	fullDeadline bool
}

// Scan measures every unordered pair among names and returns the matrix
// plus the failed pairs (tolerant mode), sorted by pair name for
// reproducibility. Without SkipFailures the failure slice holds only
// churn tombstones (*ChurnError pairs, which never abort a scan): the
// first real error aborts the scan. Cancelling ctx aborts the scan:
// in-flight attempts finish (or hit their cooperative cancellation points)
// and ctx.Err() is returned.
//
// Scans degrade gracefully: even on error or cancellation the partial
// matrix measured so far is returned alongside the error, with per-cell
// provenance (Matrix.Prov) distinguishing fresh, resumed, removed, and
// missing cells — with a Checkpoint configured, nothing measured is ever
// lost.
func (s *Scanner) Scan(ctx context.Context, names []string) (*Matrix, []PairError, error) {
	return s.run(ctx, names, nil, s.Checkpoint, nil)
}

// ScanPairs measures only the listed unordered pairs among names and
// returns a matrix over the full name set — the distributed-campaign
// entry point, where a worker's shard lease names a slice of the pair
// space but the matrix (and the checkpoint's campaign header) must be
// framed over the whole campaign so per-worker results merge without
// re-indexing. Every endpoint must appear in names, no pair may be a
// self-pair, and no pair may be listed twice, in either order. Restricted
// pairs flow through the same retry, churn, breaker, and checkpoint
// machinery as a full Scan; the contract is otherwise Scan's.
func (s *Scanner) ScanPairs(ctx context.Context, names []string, pairs [][2]string) (*Matrix, []PairError, error) {
	if pairs == nil {
		// nil restrict means "all pairs" to run; an explicitly empty
		// restriction must stay empty.
		pairs = [][2]string{}
	}
	return s.run(ctx, names, nil, s.Checkpoint, pairs)
}

// Resume continues the interrupted campaign recorded in cp: the log is
// replayed to seed the matrix (cells marked ProvResumed) and the
// half-circuit cache, and only unfinished pairs are scheduled. New
// completions are appended to the same log, so Resume itself is
// interruptible — a campaign survives any number of crashes. The relay
// set comes from the log's campaign header; with a Directory it is then
// reconciled against the current consensus — relays that vanished while
// the campaign was down are tombstoned (their replayed pairs are kept:
// measured data is data), relays that appeared are appended, and a relay
// whose onion-key fingerprint changed is treated as rotated (its replayed
// half circuits are dropped, its breaker reset). The contract is Scan's.
func (s *Scanner) Resume(ctx context.Context, cp Checkpoint) (*Matrix, []PairError, error) {
	if cp == nil {
		return nil, nil, errors.New("ting: Resume needs a checkpoint")
	}
	st, err := ReplayState(cp)
	if err != nil {
		return nil, nil, err
	}
	if len(st.Names) == 0 {
		return nil, nil, errors.New("ting: checkpoint has no campaign header; nothing to resume")
	}
	return s.run(ctx, st.Names, st, cp, nil)
}
