package ting

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"sync"
	"time"

	"ting/internal/directory"
	"ting/internal/stats"
)

// scan is the state of one pass of the scan engine. Scan, ScanPairs,
// Resume, ScanBudget's batches and Monitor.Sweep all enter through
// Scanner.run, which allocates one scan and drives it through the phases
// that are its methods:
//
//	reconcile  snapshot the consensus; on resume, fold in what changed while
//	           the campaign was down
//	plan       list the pairs to attempt; replayed pairs are seeded and pairs
//	           of departed relays tombstoned without being scheduled
//	attempt    one measurement of one pair by one worker, behind the churn
//	           gate and the breaker gate, ending in exactly one of settle,
//	           tombstone, park or a retry pushed to the next worker
//	handleDelta  a consensus change arriving mid-scan: leave, join or rotate
//	finish     order the failures and pick the error to report
//
// Where a scheduled pair is — queued, in a worker's hands, parked — is the
// schedule's business (schedule.go). Each mutex below guards the fields listed
// under it, and neither they nor the schedule's is held while taking another.
type scan struct {
	s       *Scanner
	cp      Checkpoint       // nil when the scan is not durable
	resumed *CheckpointState // the replayed log; nil unless resuming
	hc      *HalfCache       // nil when half-circuit memoization is off
	est     *DeadlineEstimator
	// ctx is the scan's own context: done when the caller's is, when a
	// non-tolerant scan meets its first failure, when a checkpoint append
	// fails, or when the consensus history is lost.
	ctx    context.Context
	cancel context.CancelFunc
	// sched holds every scheduled pair until a worker releases it: the plan
	// placed up front, then only retries, the parking lot dealt back and the
	// pairs of a relay that joins mid-scan.
	sched *schedule

	// mu guards the result, progress, the error latches and backoff jitter.
	mu            sync.Mutex
	m             *Matrix
	failures      []PairError
	done, total   int
	replayedPairs int
	firstErr      error // first pair failure of a non-tolerant scan
	cpErr         error // first checkpoint append failure
	watchErr      error // the consensus history no longer reached the scan's epoch
	jitter        *rand.Rand
	backoff       stats.Backoff

	// epoch is the consensus epoch reconcile snapshotted, where the delta
	// goroutine's cursor starts. Kept only with a Directory, like the roster.
	epoch uint64
	// rosterMu guards the live churn roster: the relays that left
	// (pre-seeded with resume-time removals so a joining relay never pairs
	// against a ghost), each relay's onion-key fingerprint, and the
	// campaign's relay set as joins extend it. Only the delta goroutine
	// writes it once workers run.
	rosterMu sync.Mutex
	removed  map[string]uint64
	fps      map[string]string
	nameSet  map[string]bool
	names    []string
}

// run executes one scan over names. With restrict nil every unordered pair
// is scheduled (the all-pairs campaign); otherwise only the listed pairs
// are — a campaign shard, a budgeted batch, a monitor sweep. A non-nil
// resumed is the replayed log of the campaign cp continues. Restricted
// pairs flow through the same replay, tombstone, breaker and checkpoint
// machinery as the full sweep.
func (s *Scanner) run(ctx context.Context, names []string, resumed *CheckpointState, cp Checkpoint, restrict [][2]string) (*Matrix, []PairError, error) {
	if s.NewMeasurer == nil {
		return nil, nil, errors.New("ting: scanner missing NewMeasurer")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	sc := &scan{s: s, cp: cp, resumed: resumed}
	names, joined, rotated := sc.reconcile(names)
	m, err := NewMatrix(names)
	if err != nil {
		return nil, nil, err
	}
	sc.m = m
	todo := sc.plan(names, restrict)
	sc.total = len(todo)

	workers := s.Workers
	if workers <= 0 {
		workers = 4
	}
	if workers > len(todo) {
		workers = len(todo)
	}
	measurers, err := s.openMeasurers(workers)
	if err != nil {
		return nil, nil, err
	}
	defer closeMeasurers(measurers)

	// Half-circuit memoization (§3.3/§4.6): the scan owns a cache unless
	// the caller supplied a cross-scan one or opted out. Measurers that
	// already carry their own keep it.
	sc.hc = s.HalfCircuits
	if sc.hc == nil && !s.DisableHalfCache {
		sc.hc = NewHalfCache(0)
	}
	if sc.hc != nil {
		for _, meas := range measurers {
			if meas.cfg.HalfCircuits == nil {
				meas.cfg.HalfCircuits = sc.hc
			}
		}
	}
	if s.AdaptiveDeadline {
		// Bounded below so a run of fast pairs cannot strangle a
		// legitimately slow one, above by the fixed PairTimeout.
		min := s.MinPairTimeout
		if min <= 0 {
			min = 100 * time.Millisecond
		}
		sc.est = NewDeadlineEstimator(min, s.PairTimeout, s.Observer)
	}
	sc.backoff = stats.Backoff{Base: s.Backoff, Factor: 2, Jitter: 0.5}
	sc.jitter = rand.New(rand.NewSource(s.Shuffle ^ 0x7107))
	sc.ctx, sc.cancel = context.WithCancel(ctx)
	defer sc.cancel()

	if err := sc.openLog(names); err != nil {
		return nil, nil, err
	}
	if cp != nil && sc.hc != nil {
		// Freshly measured half circuits go to the log as they are stored.
		sc.hc.SetStoreHook(func(path []string, samples int, min float64) {
			sc.appendRec(CheckpointRecord{Kind: RecordHalf, Path: path, Samples: samples, Min: min})
		})
		defer sc.hc.SetStoreHook(nil)
	}
	if s.Directory != nil && resumed != nil {
		sc.announceResume(joined, rotated)
	}

	sc.sched = newSchedule(todo, workers, s.Shuffle != 0)
	var deltas sync.WaitGroup
	if s.Directory != nil {
		deltas.Add(1)
		go func() {
			defer deltas.Done()
			sc.watch()
		}()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int, meas *Measurer) {
			defer wg.Done()
			for {
				job, ok := sc.sched.next(w)
				if !ok {
					return
				}
				sc.attempt(w, meas, job)
			}
		}(w, measurers[w])
	}
	wg.Wait()
	// The scan is over: end the consensus watch and wait for the delta
	// goroutine so it cannot touch the failure list while finish sorts it.
	// Deltas it is still handling drain harmlessly — reserve refuses new
	// work once every pair has been released.
	sc.cancel()
	deltas.Wait()
	return sc.finish(ctx)
}

// openMeasurers builds every worker's measurer up front: if the k-th
// fails, the earlier ones are closed and no goroutine has started —
// nothing to drain, no leaked circuits.
func (s *Scanner) openMeasurers(workers int) ([]*Measurer, error) {
	measurers := make([]*Measurer, 0, workers)
	for w := 0; w < workers; w++ {
		meas, err := s.NewMeasurer(w)
		if err != nil {
			closeMeasurers(measurers)
			return nil, fmt.Errorf("ting: worker %d: %w", w, err)
		}
		measurers = append(measurers, meas)
	}
	return measurers, nil
}

func closeMeasurers(measurers []*Measurer) {
	for _, m := range measurers {
		m.Close()
	}
}

// reconcile snapshots the consensus into the churn roster and returns the
// names the matrix is framed over. On resume the campaign's relay set is
// first reconciled with what changed while it was down: relays that joined
// (in the log, or since) extend names, relays that vanished are marked
// removed so plan tombstones their unfinished pairs, and relays whose
// fingerprint differs from the log's are returned as rotated.
func (sc *scan) reconcile(names []string) (all, joined, rotated []string) {
	dir := sc.s.Directory
	if dir == nil {
		return names, nil, nil
	}
	sc.epoch = dir.Epoch()
	consensus := dir.Consensus()
	current := make(map[string]string, len(consensus)) // nickname → fingerprint
	for _, d := range consensus {
		current[d.Nickname] = d.Fingerprint()
	}
	sc.removed = make(map[string]uint64)
	sc.nameSet = make(map[string]bool, len(names))
	for _, n := range names {
		sc.nameSet[n] = true
	}
	if sc.resumed != nil {
		names = append([]string(nil), names...)
		for _, n := range sc.resumed.Joined {
			if !sc.nameSet[n] {
				names = append(names, n)
				sc.nameSet[n] = true
			}
		}
		for _, n := range names {
			if _, ok := current[n]; !ok {
				sc.removed[n] = sc.epoch
			}
		}
		// Joins are appended in consensus (publish) order — the same
		// order a live scan appends them in as deltas arrive, so a
		// resumed campaign converges to a bytewise-identical matrix.
		for _, d := range consensus {
			if n := d.Nickname; !sc.nameSet[n] {
				names = append(names, n)
				sc.nameSet[n] = true
				joined = append(joined, n)
			}
		}
		for n, fp := range sc.resumed.Fps {
			if cur, ok := current[n]; ok && cur != fp {
				rotated = append(rotated, n)
			}
		}
		sort.Strings(rotated)
	}
	sc.fps = make(map[string]string, len(names))
	for _, n := range names {
		if fp, ok := current[n]; ok {
			sc.fps[n] = fp
		}
	}
	sc.names = append([]string(nil), names...)
	return names, joined, rotated
}

// plan lists the pairs this scan will attempt, in schedule order.
func (sc *scan) plan(names []string, restrict [][2]string) []pairJob {
	var todo []pairJob
	if restrict != nil {
		todo = make([]pairJob, 0, len(restrict))
		for _, p := range restrict {
			todo = sc.addPair(todo, p[0], p[1])
		}
	} else {
		todo = make([]pairJob, 0, len(names)*(len(names)-1)/2)
		for i := 0; i < len(names); i++ {
			for j := i + 1; j < len(names); j++ {
				todo = sc.addPair(todo, names[i], names[j])
			}
		}
	}
	if sc.s.Shuffle != 0 {
		rng := rand.New(rand.NewSource(sc.s.Shuffle))
		rng.Shuffle(len(todo), func(a, b int) { todo[a], todo[b] = todo[b], todo[a] })
	}
	return todo
}

// addPair schedules one pair unless the log already holds it or one of its
// relays left while the campaign was down. Either way the pair is settled
// here, outside the progress totals: it is not work this run will do.
func (sc *scan) addPair(todo []pairJob, x, y string) []pairJob {
	if sc.resumed != nil {
		if rtt, ok := sc.resumed.Pairs[pairKey(x, y)]; ok {
			_ = sc.m.Set(x, y, rtt)
			_ = sc.m.SetProv(x, y, ProvResumed)
			sc.replayedPairs++
			return todo
		}
	}
	if len(sc.removed) > 0 {
		if relay, epoch, gone := sc.removedRelay(x, y); gone {
			sc.markRemoved(pairJob{x: x, y: y}, relay, epoch)
			return todo
		}
	}
	return append(todo, pairJob{x: x, y: y})
}

// openLog writes the campaign header (a fresh campaign) or rehydrates the
// half-circuit memo from the replayed log (a resumed one).
func (sc *scan) openLog(names []string) error {
	if sc.resumed != nil {
		// A resumed scan's unfinished pairs reuse the interrupted run's
		// series instead of re-sampling them.
		halves := 0
		if sc.hc != nil {
			for _, h := range sc.resumed.Halves {
				sc.hc.Seed(h.Path, h.Samples, h.Min)
			}
			halves = len(sc.resumed.Halves)
		}
		sc.s.Observer.checkpointReplay(sc.replayedPairs, halves)
		return nil
	}
	if sc.cp == nil {
		return nil
	}
	// The header first, so even an immediately-killed scan leaves a
	// resumable log. With a directory it pins the consensus epoch and each
	// relay's onion-key fingerprint, so a later Resume can tell churn from
	// continuity. The fingerprints are a copy: deltas keep mutating the
	// roster's.
	header := CheckpointRecord{Kind: RecordCampaign, Names: names, Epoch: sc.epoch, Fps: maps.Clone(sc.fps)}
	if err := sc.cp.Append(header); err != nil {
		return fmt.Errorf("ting: checkpoint header: %w", err)
	}
	sc.s.Observer.checkpointAppend(&header)
	return nil
}

// appendRec logs one record. An append failure latches and cancels the
// scan: a campaign that silently stopped being durable would betray a
// later Resume.
func (sc *scan) appendRec(rec CheckpointRecord) {
	if sc.cp == nil {
		return
	}
	if err := sc.cp.Append(rec); err != nil {
		sc.mu.Lock()
		if sc.cpErr == nil {
			sc.cpErr = err
			sc.cancel()
		}
		sc.mu.Unlock()
		return
	}
	// Copy before taking the address: &rec itself would force the
	// parameter to the heap on every call, including the early return
	// above — checkpoint-less scans record nothing and must allocate
	// nothing here.
	r := rec
	sc.s.Observer.checkpointAppend(&r)
}

// logChurn reports one reconciled consensus change to the observer and the
// campaign log.
func (sc *scan) logChurn(kind ChurnKind, op, relay, fp string, epoch uint64, tombstoned int) {
	sc.s.Observer.churn(ChurnEvent{Kind: kind, Relay: relay, Epoch: epoch, Tombstoned: tombstoned})
	sc.appendRec(CheckpointRecord{Kind: RecordChurn, Op: op, Relay: relay, Fp: fp, Epoch: epoch})
}

// announceResume reports and logs what reconcile found, after the
// half-circuit memo was seeded — so a rotated relay's replayed series are
// dropped, not resurrected — and before any worker runs, so the failure
// list holds exactly plan's tombstones.
func (sc *scan) announceResume(joined, rotated []string) {
	tombstoned := make(map[string]int)
	for _, pe := range sc.failures {
		var ce *ChurnError
		if errors.As(pe.Err, &ce) {
			tombstoned[ce.Relay]++
		}
	}
	left := make([]string, 0, len(sc.removed))
	for n := range sc.removed {
		left = append(left, n)
	}
	sort.Strings(left)
	for _, relay := range left {
		sc.logChurn(ChurnRemoved, ChurnOpLeave, relay, "", sc.removed[relay], tombstoned[relay])
	}
	for _, relay := range joined {
		sc.logChurn(ChurnJoined, ChurnOpJoin, relay, sc.fps[relay], sc.epoch, 0)
	}
	for _, relay := range rotated {
		sc.rotate(relay, sc.fps[relay], sc.epoch)
	}
}

// watch feeds consensus deltas to handleDelta until the scan's context
// ends, reading the directory's bounded history by cursor from the epoch
// reconcile snapshotted. A history that no longer reaches the cursor means
// changes the scan will never hear of — relays it would measure as ghosts —
// so that latches an error and cancels the scan; a Resume reconciles
// against the current consensus.
func (sc *scan) watch() {
	epoch := sc.epoch
	for {
		deltas, ok := sc.s.Directory.Wait(sc.ctx, epoch)
		if !ok {
			sc.mu.Lock()
			sc.watchErr = fmt.Errorf("ting: consensus history lost after epoch %d: the directory moved on further than it remembers", epoch)
			sc.mu.Unlock()
			sc.cancel()
			return
		}
		if len(deltas) == 0 {
			return // the scan's context ended
		}
		for _, d := range deltas {
			sc.handleDelta(d)
			epoch = d.Epoch
		}
	}
}

// handleDelta reconciles one consensus change mid-scan.
func (sc *scan) handleDelta(d directory.ConsensusDelta) {
	fp := ""
	if d.Desc != nil {
		fp = d.Desc.Fingerprint()
	}
	switch d.Kind {
	case directory.DeltaLeave:
		sc.leave(d.Name, d.Epoch)
	case directory.DeltaJoin:
		sc.join(d.Name, fp, d.Epoch)
	case directory.DeltaRotate:
		sc.rosterMu.Lock()
		known := sc.nameSet[d.Name]
		if known {
			sc.fps[d.Name] = fp
		}
		sc.rosterMu.Unlock()
		if known {
			sc.rotate(d.Name, fp, d.Epoch)
		}
	}
}

// leave marks a campaign relay as gone. Its pending pairs are tombstoned
// one by one as workers reach them (the churn gate in attempt).
func (sc *scan) leave(relay string, epoch uint64) {
	sc.rosterMu.Lock()
	_, gone := sc.removed[relay]
	if !sc.nameSet[relay] || gone {
		sc.rosterMu.Unlock()
		return
	}
	sc.removed[relay] = epoch
	sc.rosterMu.Unlock()
	sc.logChurn(ChurnRemoved, ChurnOpLeave, relay, "", epoch, 0)
}

// join handles a relay entering the consensus. A campaign relay that
// rejoins simply resumes being measured — pairs already tombstoned stay
// tombstoned, their verdicts were reported — and a new fingerprint makes
// it a new incarnation: a rotation. A relay the campaign has never seen
// extends the matrix and is paired against every live campaign relay.
func (sc *scan) join(relay, fp string, epoch uint64) {
	sc.rosterMu.Lock()
	if sc.nameSet[relay] {
		_, wasRemoved := sc.removed[relay]
		delete(sc.removed, relay)
		oldFp := sc.fps[relay]
		sc.fps[relay] = fp
		sc.rosterMu.Unlock()
		if oldFp != "" && fp != "" && oldFp != fp {
			sc.rotate(relay, fp, epoch)
		} else if wasRemoved {
			sc.logChurn(ChurnJoined, ChurnOpJoin, relay, fp, epoch, 0)
		}
		return
	}
	jobs := make([]pairJob, 0, len(sc.names))
	for _, n := range sc.names {
		if _, gone := sc.removed[n]; !gone {
			jobs = append(jobs, pairJob{x: relay, y: n})
		}
	}
	sc.nameSet[relay] = true
	sc.names = append(sc.names, relay)
	sc.fps[relay] = fp
	sc.rosterMu.Unlock()
	if len(jobs) == 0 || !sc.sched.reserve(len(jobs)) {
		// The scan already released its last pair (or there is nobody to
		// pair with): too late to measure this relay in this campaign.
		sc.rosterMu.Lock()
		delete(sc.nameSet, relay)
		sc.names = sc.names[:len(sc.names)-1]
		sc.rosterMu.Unlock()
		return
	}
	sc.mu.Lock()
	_ = sc.m.AddName(relay)
	sc.total += len(jobs)
	sc.mu.Unlock()
	sc.sched.push(0, jobs...)
	sc.logChurn(ChurnJoined, ChurnOpJoin, relay, fp, epoch, 0)
}

// rotate forgets everything remembered about relay's previous identity: a
// new key under the same nickname (a DeltaRotate, a rejoin with a new
// fingerprint, or a fingerprint that changed while the campaign was down)
// means the memoized half circuits, breaker history and deadline
// statistics describe another incarnation. Completed pair RTTs are kept —
// a key rotation does not move the relay.
func (sc *scan) rotate(relay, fp string, epoch uint64) {
	if sc.hc != nil {
		sc.hc.InvalidateRelay(relay)
	}
	if sc.s.Health != nil {
		sc.s.Health.Reset(relay)
	}
	if sc.est != nil {
		sc.est.Forget(relay)
	}
	sc.logChurn(ChurnRotated, ChurnOpRotate, relay, fp, epoch, 0)
}

// removedRelay names the endpoint of (x, y) the consensus dropped, if any.
func (sc *scan) removedRelay(x, y string) (string, uint64, bool) {
	sc.rosterMu.Lock()
	defer sc.rosterMu.Unlock()
	if ep, ok := sc.removed[x]; ok {
		return x, ep, true
	}
	if ep, ok := sc.removed[y]; ok {
		return y, ep, true
	}
	return "", 0, false
}

// attempt runs one queued job to one of its ends: settled, tombstoned,
// parked behind a breaker, or pushed to the next worker as a retry.
func (sc *scan) attempt(w int, meas *Measurer, job pairJob) {
	if sc.ctx.Err() != nil {
		// Cancelled scan: drain without measuring. The scan's result is
		// partial, so abandoned pairs are released, not settled —
		// progress must not count them as done.
		sc.sched.release()
		return
	}
	// Churn gate: a pair touching a relay the consensus dropped is
	// tombstoned, not measured — no circuits, no retries, no breaker
	// charges against a relay that is simply gone.
	if relay, ep, gone := sc.removedRelay(job.x, job.y); gone {
		sc.tombstone(job, relay, ep)
		return
	}
	// Breaker gate, the engine's only Health.Allow: a pair touching a
	// quarantined relay is parked on first contact and given up on second.
	if h := sc.s.Health; h != nil {
		if qe := h.Allow(job.x, job.y); qe != nil {
			sc.s.Observer.quarantine(job.x, job.y, qe.Relay, job.deferred)
			if job.deferred {
				sc.settle(job, qe)
			} else {
				sc.sched.park(job)
			}
			return
		}
	}
	ctx := sc.ctx
	var cancelAttempt context.CancelFunc
	timeout := sc.s.PairTimeout
	adaptive := false
	if sc.est != nil && !job.fullDeadline {
		if d, ok := sc.est.Deadline(job.x, job.y); ok && (timeout <= 0 || d < timeout) {
			timeout = d
			adaptive = true
		}
	}
	if timeout > 0 {
		ctx, cancelAttempt = context.WithTimeout(sc.ctx, timeout)
	}
	sc.s.Observer.workerActive(1)
	start := time.Now()
	rtt, err := meas.measurePairRTT(ctx, job.x, job.y)
	elapsed := time.Since(start)
	sc.s.Observer.workerActive(-1)
	if cancelAttempt != nil {
		cancelAttempt()
	}
	job.attempt++
	if err != nil {
		sc.failed(w, job, err, elapsed, adaptive)
		return
	}
	if sc.est != nil {
		sc.est.Observe(job.x, job.y, elapsed)
	}
	sc.mu.Lock()
	_ = sc.m.Set(job.x, job.y, rtt)
	sc.mu.Unlock()
	sc.appendRec(CheckpointRecord{Kind: RecordPair, X: job.x, Y: job.y, RTT: rtt})
	if h := sc.s.Health; h != nil {
		h.Success(job.x)
		h.Success(job.y)
	}
	sc.settle(job, nil)
}

// failed disposes of an attempt that returned err after elapsed.
func (sc *scan) failed(w int, job pairJob, err error, elapsed time.Duration, adaptive bool) {
	// A failure whose relay left the consensus mid-attempt is churn
	// fallout (the relay DESTROYed its circuits on the way out), not
	// evidence against anyone still present.
	if relay, ep, gone := sc.removedRelay(job.x, job.y); gone {
		sc.tombstone(job, relay, ep)
		return
	}
	if h := sc.s.Health; h != nil && sc.ctx.Err() == nil {
		// Charge only the relays on the failing circuit's path
		// (CircuitError), not both pair endpoints blindly.
		for _, relay := range culprits(job.x, job.y, err) {
			h.Failure(relay, err, elapsed)
		}
	}
	if !job.deferred && job.attempt <= sc.s.Retry && sc.ctx.Err() == nil {
		if adaptive && errors.Is(err, context.DeadlineExceeded) {
			// The estimator may have strangled a legitimately slow pair:
			// the retry gets the full PairTimeout.
			job.fullDeadline = true
		}
		sc.mu.Lock()
		d := sc.backoff.Delay(job.attempt, sc.jitter)
		sc.mu.Unlock()
		sc.s.Observer.retry(job.x, job.y, job.attempt, d, err)
		if d > 0 {
			t := time.NewTimer(d)
			select {
			case <-sc.ctx.Done():
			case <-t.C:
			}
			t.Stop()
		}
		// Hand the retry to the next worker: a pair that failed because
		// this worker's circuits wedged gets a fresh prober,
		// deterministically.
		sc.sched.push(w+1, job)
		return
	}
	if job.deferred && sc.ctx.Err() == nil {
		// A deferred pair got exactly one end-of-scan attempt (often the
		// breaker's half-open probe); its failure is part of the
		// quarantine story, not a fresh one.
		relay := job.x
		if c := culprits(job.x, job.y, err); len(c) > 0 {
			relay = c[0]
		}
		sc.s.Observer.quarantine(job.x, job.y, relay, true)
		err = &QuarantineError{Relay: relay, Cause: err}
	}
	sc.settle(job, err)
}

// settle gives a scheduled pair its final disposition: measured, failed
// for good in a tolerant scan, or — in a non-tolerant one — the failure
// that latches and cancels the scan, so no new measurement is dispatched
// and in-flight ones notice cooperatively.
func (sc *scan) settle(job pairJob, err error) {
	sc.mu.Lock()
	switch {
	case err == nil:
		sc.advance()
	case sc.s.SkipFailures:
		// A failed pair is still completed work: Progress must reach
		// total on a tolerant scan with failures.
		sc.failures = append(sc.failures, PairError{X: job.x, Y: job.y, Err: err, Attempts: job.attempt})
		sc.advance()
	default:
		if sc.firstErr == nil {
			sc.firstErr = fmt.Errorf("ting: pair (%s,%s): %w", job.x, job.y, err)
		}
		sc.cancel()
	}
	sc.mu.Unlock()
	sc.sched.release()
}

// advance counts one scheduled pair as done. Callers hold sc.mu.
func (sc *scan) advance() {
	sc.done++
	if sc.s.Progress != nil {
		sc.s.Progress(sc.done, sc.total)
	}
}

// markRemoved records that (x, y) will not be measured because relay left
// the consensus at epoch — the tombstone itself, shared by pairs dropped
// at plan time and pairs abandoned mid-scan. It burns no retry budget and
// never fails the scan, tolerant or not. Once workers run, callers hold
// sc.mu.
func (sc *scan) markRemoved(job pairJob, relay string, epoch uint64) {
	_ = sc.m.SetProv(job.x, job.y, ProvRemoved)
	sc.failures = append(sc.failures, PairError{
		X: job.x, Y: job.y,
		Err:      &ChurnError{Relay: relay, Epoch: epoch},
		Attempts: job.attempt,
	})
}

// tombstone settles one scheduled pair abandoned to churn. It counts as
// completed work: it was scheduled.
func (sc *scan) tombstone(job pairJob, relay string, epoch uint64) {
	sc.mu.Lock()
	sc.markRemoved(job, relay, epoch)
	sc.advance()
	sc.mu.Unlock()
	sc.s.Observer.churn(ChurnEvent{
		Kind: ChurnTombstoned, Relay: relay, Epoch: epoch,
		X: job.x, Y: job.y, Tombstoned: 1,
	})
	sc.sched.release()
}

// finish orders the failures by pair name and picks the error to report.
// Every exit hands back the partial matrix and the failures gathered so
// far — with a checkpoint configured, what was measured before the error
// is also already on disk.
func (sc *scan) finish(caller context.Context) (*Matrix, []PairError, error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sort.Slice(sc.failures, func(i, j int) bool {
		if sc.failures[i].X != sc.failures[j].X {
			return sc.failures[i].X < sc.failures[j].X
		}
		return sc.failures[i].Y < sc.failures[j].Y
	})
	switch {
	case caller.Err() != nil:
		return sc.m, sc.failures, caller.Err()
	case sc.cpErr != nil:
		return sc.m, sc.failures, fmt.Errorf("ting: checkpoint append: %w", sc.cpErr)
	case sc.watchErr != nil:
		return sc.m, sc.failures, sc.watchErr
	default:
		return sc.m, sc.failures, sc.firstErr
	}
}
