package ting

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
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
//	plan       list the runs of pairs to attempt; replayed pairs are skipped
//	           and pairs of departed relays tombstoned without being
//	           scheduled
//	work       one worker's loop: claim a run of pairs, attempt each, flush
//	           the run's log records and then write its successes together
//	           (writeRun), size the next run
//	attempt    one measurement of one pair by one worker, behind the churn
//	           gate and the breaker gate, ending measured, failed for good
//	           (settle), tombstoned, parked, or retried on the next worker
//	handleDelta  a consensus change arriving mid-scan: leave, join or rotate
//	finish     order the failures and pick the error to report
//
// Where a scheduled pair is — queued, in a worker's hands, parked — is the
// schedule's business (schedule.go). A pair is its two matrix indices; names
// are looked up (name) only where they leave the engine — the probers, the
// log, PairError, the breaker and the observer — and what the scan keeps per
// relay (relays) is by index too. Each mutex below guards the fields listed
// under it, and neither they nor the schedule's is held while taking
// another.
type scan struct {
	s       *Scanner
	cp      Checkpoint       // nil when the scan is not durable
	resumed *CheckpointState // the replayed log; nil unless resuming
	hc      *HalfCache       // nil when half-circuit memoization is off
	// ctx is the scan's own context: done when the caller's is, when a
	// non-tolerant scan meets its first failure, when a checkpoint append or
	// flush fails, or when the consensus history is lost.
	ctx    context.Context
	cancel context.CancelFunc
	// sched holds every scheduled pair until a worker releases it: the plan
	// placed up front, then only retries, the parking lot dealt back and the
	// pairs of a relay that joins mid-scan.
	sched *schedule
	// names is the matrix's relay names as of its latest AddName, the
	// snapshot a job's indices are looked up in. A join publishes a longer
	// one before pushing its pairs, so any snapshot a worker loads covers
	// every pair it can hold; an old one is never written again.
	names atomic.Pointer[[]string]

	// mu guards the result, progress, the error latches and backoff jitter
	// (nil until the first backoff).
	mu            sync.Mutex
	m             *Matrix // the caller's: run measures into it
	failures      []PairError
	done, total   int
	replayedPairs int
	firstErr      error // first pair failure of a non-tolerant scan
	cpErr         error // first checkpoint append or flush failure
	watchErr      error // the consensus history no longer reached the scan's epoch
	jitter        *rand.Rand
	backoff       stats.Backoff

	// epoch is the consensus epoch reconcile snapshotted, where the delta
	// goroutine's cursor starts. Kept only with a Directory, like the roster.
	epoch uint64
	// rosterMu guards the per-relay state and each relay's onion-key
	// fingerprint. relays is kept only with a Directory or AdaptiveDeadline,
	// one entry per matrix index; the delta goroutine alone grows it, with
	// the matrix's relay set, which it therefore reads without a lock.
	rosterMu sync.Mutex
	relays   []relayState
	global   ewmaStat // every relay's attempt durations, the deadlines' fallback
	fps      map[string]string
}

// relayState is what a scan keeps about one relay, at its matrix index.
type relayState struct {
	// left says the relay left the consensus, at epoch leftAt: the churn
	// gate tombstones its pairs. Resume-time departures are set before any
	// pair is planned, so a joining relay never pairs against a ghost.
	left   bool
	leftAt uint64
	// lat is the relay's attempt-duration statistic, which adaptive
	// deadlines read; a rotation resets it.
	lat ewmaStat
}

// run executes one scan over m's relays and writes its results into m.
// With restrict nil every unordered pair is scheduled (the all-pairs
// campaign); otherwise only the listed index pairs are — a campaign shard,
// a budgeted batch, a monitor sweep. A non-nil resumed is the replayed log
// of the campaign cp continues, and m is its matrix; the relays reconcile
// finds joined since are added to m. Restricted pairs flow through the
// same replay, tombstone, breaker and checkpoint machinery as the full
// sweep. It returns m, or nil when the scan failed before measuring
// anything.
func (s *Scanner) run(ctx context.Context, m *Matrix, resumed *CheckpointState, cp Checkpoint, restrict [][2]int) (*Matrix, []PairError, error) {
	if s.NewMeasurer == nil {
		return nil, nil, errors.New("ting: scanner missing NewMeasurer")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	sc := &scan{s: s, cp: cp, resumed: resumed, m: m}
	if s.Directory != nil || s.AdaptiveDeadline {
		sc.relays = make([]relayState, m.N())
	}
	joined, rotated := sc.reconcile()
	names := m.Names()
	sc.names.Store(&names)
	todo, pairs, err := sc.plan(len(names), restrict)
	if err != nil {
		return nil, nil, err
	}
	sc.total = pairs

	workers := s.Workers
	if workers <= 0 {
		workers = 4
	}
	if workers > pairs {
		workers = pairs
	}
	measurers, err := s.openMeasurers(workers)
	if err != nil {
		return nil, nil, err
	}
	defer closeMeasurers(measurers)

	// Half-circuit memoization (§3.3/§4.6): the scan owns a cache unless
	// a budgeted campaign supplied its cross-batch one or the caller opted
	// out. An owned cache comes from the pool empty and goes back when run
	// returns: every worker and the delta goroutine have exited by then.
	sc.hc = s.halfCircuits
	if sc.hc == nil && !s.DisableHalfCache {
		sc.hc = ownedHalfCache()
		defer releaseHalfCache(sc.hc)
	}
	for _, meas := range measurers {
		meas.hc = sc.hc
	}
	sc.backoff = stats.Backoff{Base: s.Backoff}
	sc.ctx, sc.cancel = context.WithCancel(ctx)
	defer sc.cancel()

	if err := sc.openLog(names); err != nil {
		return nil, nil, err
	}
	if cp != nil && sc.hc != nil {
		// Freshly measured half circuits go to the log as they are stored,
		// until run returns: no later scan's series reaches this log.
		sc.hc.SetStoreHook(func(path []string, samples int, min float64) {
			sc.appendRec(CheckpointRecord{Kind: RecordHalf, Path: path, Samples: samples, Min: min})
		})
		defer sc.hc.SetStoreHook(nil)
	}
	if s.Directory != nil && resumed != nil {
		sc.announceResume(joined, rotated)
	}
	if sc.hc != nil {
		// One slot per relay; the cache serves this scan alone until run
		// returns.
		sc.hc.sizeIndex(len(names))
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
			sc.work(w, meas)
		}(w, measurers[w])
	}
	wg.Wait()
	// The scan is over: end the consensus watch and wait for the delta
	// goroutine so it cannot touch the failure list while finish sorts it.
	// Deltas it is still handling drain harmlessly — reserve refuses new
	// work once every pair has been released.
	sc.cancel()
	deltas.Wait()
	// Whatever the last runs left pending — half series of pairs that
	// failed, churn records — reaches the log before the scan reports.
	sc.flush()
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

// closeMeasurers ends a scan's hold on its measurers: each lets go of the
// scan's half-circuit cache and is closed.
func closeMeasurers(measurers []*Measurer) {
	for _, m := range measurers {
		m.hc = nil
		m.Close()
	}
}

// reconcile snapshots the consensus into the churn roster. On resume the
// replayed relay set is first reconciled with what changed while the
// campaign was down: relays that vanished are marked as left so plan
// tombstones their unfinished pairs, relays that joined since are added to
// the matrix and returned, and relays whose fingerprint differs from the
// log's are returned as rotated.
func (sc *scan) reconcile() (joined, rotated []string) {
	dir := sc.s.Directory
	if dir == nil {
		return nil, nil
	}
	sc.epoch = dir.Epoch()
	consensus := dir.Consensus()
	current := make(map[string]string, len(consensus)) // nickname → fingerprint
	for _, d := range consensus {
		current[d.Nickname] = d.Fingerprint()
	}
	if sc.resumed != nil {
		for i, n := range sc.m.Names() {
			if _, ok := current[n]; !ok {
				sc.relays[i] = relayState{left: true, leftAt: sc.epoch}
			}
		}
		// Joins are appended in consensus (publish) order — the same
		// order a live scan appends them in as deltas arrive, so a
		// resumed campaign converges to a bytewise-identical matrix. A
		// published nickname is unique and never empty: AddName takes it.
		for _, d := range consensus {
			if _, known := sc.m.Index(d.Nickname); !known {
				_ = sc.m.AddName(d.Nickname)
				sc.relays = append(sc.relays, relayState{})
				joined = append(joined, d.Nickname)
			}
		}
		for n, fp := range sc.resumed.Fps {
			if cur, ok := current[n]; ok && cur != fp {
				rotated = append(rotated, n)
			}
		}
		sort.Strings(rotated)
	}
	sc.fps = make(map[string]string, sc.m.N())
	for _, n := range sc.m.Names() {
		if fp, ok := current[n]; ok {
			sc.fps[n] = fp
		}
	}
	return joined, rotated
}

// plan lists the pairs this scan will attempt, in schedule order — every
// pair of the n relays, or only the restricted ones — as runs of
// consecutive pairs (see pairJob), and counts them. Every pair goes
// through addPair, which extends the last run or starts a new one, so
// there is one way to form runs: an all-pairs scan is one run per relay,
// a restricted list its maximal runs of consecutive y in list order, and a
// resumed scan's runs break at each pair the log settles. A shuffled
// scan's runs are single pairs, shuffled as such.
func (sc *scan) plan(n int, restrict [][2]int) (todo []pairJob, pairs int, err error) {
	if restrict != nil {
		runs, err := sc.checkRestrict(restrict)
		if err != nil {
			return nil, 0, err
		}
		todo = make([]pairJob, 0, runs)
		for _, p := range restrict {
			todo, pairs = sc.addPair(todo, pairs, int32(p[0]), int32(p[1]))
		}
	} else {
		size := n
		if sc.s.Shuffle != 0 {
			size = n * (n - 1) / 2
		}
		todo = make([]pairJob, 0, size)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				todo, pairs = sc.addPair(todo, pairs, int32(i), int32(j))
			}
		}
	}
	if sc.s.Shuffle != 0 {
		rng := rand.New(rand.NewSource(sc.s.Shuffle))
		rng.Shuffle(len(todo), func(a, b int) { todo[a], todo[b] = todo[b], todo[a] })
	}
	return todo, pairs, nil
}

// restrictKeys holds *[]uint64, checkRestrict's sort buffers: a campaign
// worker checks one lease's pair list after another.
var restrictKeys sync.Pool

// checkRestrict refuses a restricted pair list with an index outside the
// matrix, a relay paired with itself, or a pair listed twice in either
// order — which would be measured, counted and logged twice — and
// otherwise counts the runs plan will make of it.
func (sc *scan) checkRestrict(restrict [][2]int) (runs int, err error) {
	// Each pair smaller index first, packed in one word: a pair listed
	// twice is two equal words once sorted.
	p, _ := restrictKeys.Get().(*[]uint64)
	if p == nil {
		p = new([]uint64)
	}
	defer restrictKeys.Put(p)
	keys := slices.Grow((*p)[:0], len(restrict))[:len(restrict)]
	*p = keys
	names := sc.m.Names()
	var run pairJob
	for k, p := range restrict {
		i, j := p[0], p[1]
		if i < 0 || j < 0 || i >= len(names) || j >= len(names) {
			return 0, fmt.Errorf("ting: pair (%d,%d) out of range for %d relays", i, j, len(names))
		}
		if i == j {
			return 0, fmt.Errorf("ting: self-pair (%s,%s)", names[i], names[j])
		}
		if k == 0 || sc.s.Shuffle != 0 || !run.extend(int32(i), int32(j)) {
			run = pairJob{x: int32(i), y: int32(j)}
			runs++
		}
		keys[k] = uint64(min(i, j))<<32 | uint64(max(i, j))
	}
	slices.Sort(keys)
	for k := 1; k < len(keys); k++ {
		if keys[k] == keys[k-1] {
			return 0, fmt.Errorf("ting: pair (%s,%s) listed twice", names[keys[k]>>32], names[keys[k]&(1<<32-1)])
		}
	}
	return runs, nil
}

// addPair schedules pair (x, y) and counts it, extending the last run of
// todo when y follows it, unless the log already holds the pair (the
// replayed matrix's cell is ProvResumed) or one of its relays left while
// the campaign was down. Either way that pair is settled here, outside the
// progress totals — it is not work this run will do — and the next pair
// starts a new run.
func (sc *scan) addPair(todo []pairJob, pairs int, x, y int32) ([]pairJob, int) {
	if sc.resumed != nil {
		if sc.m.provAt(int(x), int(y)) == ProvResumed {
			sc.replayedPairs++
			return todo, pairs
		}
		job := pairJob{x: x, y: y}
		if relay, epoch, gone := sc.removedRelay(job); gone {
			sc.markRemoved(job, relay, epoch)
			return todo, pairs
		}
	}
	if k := len(todo) - 1; k < 0 || sc.s.Shuffle != 0 || !todo[k].extend(x, y) {
		todo = append(todo, pairJob{x: x, y: y})
	}
	return todo, pairs + 1
}

// openLog writes the campaign header (a fresh campaign) or rehydrates the
// half-circuit cache from the replayed log (a resumed one).
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
	// The header first, flushed on its own, so even an immediately-killed
	// scan leaves a resumable log. With a directory it pins the consensus
	// epoch and each relay's onion-key fingerprint, so a later Resume can
	// tell churn from continuity. The fingerprints are a copy: deltas keep
	// mutating the roster's.
	header := CheckpointRecord{Kind: RecordCampaign, Names: names, Epoch: sc.epoch, Fps: maps.Clone(sc.fps)}
	err := sc.cp.Append(header)
	if err == nil {
		err = sc.cp.Flush()
	}
	if err != nil {
		return fmt.Errorf("ting: checkpoint header: %w", err)
	}
	sc.s.Observer.checkpointAppend(&header)
	return nil
}

// appendRec logs one record; the next flush writes it. An append failure
// latches and cancels the scan: a campaign that silently stopped being
// durable would betray a later Resume.
func (sc *scan) appendRec(rec CheckpointRecord) {
	if sc.cp == nil {
		return
	}
	if err := sc.cp.Append(rec); err != nil {
		sc.checkpointFailed(err)
		return
	}
	// Only an observer that wants the record gets a copy on the heap: &rec
	// itself would put every record there, observed or not.
	if o := sc.s.Observer; o != nil && o.CheckpointAppend != nil {
		r := rec
		o.CheckpointAppend(&r)
	}
}

// flush writes every record the scan has appended to the log and reports
// whether it did. A failure latches and cancels the scan, as a failed
// append does.
func (sc *scan) flush() bool {
	if sc.cp == nil {
		return true
	}
	if err := sc.cp.Flush(); err != nil {
		sc.checkpointFailed(err)
		return false
	}
	return true
}

// checkpointFailed latches the scan's first checkpoint failure and cancels
// the scan.
func (sc *scan) checkpointFailed(err error) {
	sc.mu.Lock()
	if sc.cpErr == nil {
		sc.cpErr = err
		sc.cancel()
	}
	sc.mu.Unlock()
}

// logChurn reports one reconciled consensus change to the observer and the
// campaign log.
func (sc *scan) logChurn(kind ChurnKind, op, relay, fp string, epoch uint64, tombstoned int) {
	sc.s.Observer.churn(ChurnEvent{Kind: kind, Relay: relay, Epoch: epoch, Tombstoned: tombstoned})
	sc.appendRec(CheckpointRecord{Kind: RecordChurn, Op: op, Relay: relay, Fp: fp, Epoch: epoch})
}

// announceResume reports and logs what reconcile found, after the
// half-circuit cache was seeded — so a rotated relay's replayed series are
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
	// Every relay that left did so while the campaign was down, at the
	// epoch reconcile snapshotted.
	names := *sc.names.Load()
	var left []string
	for i, r := range sc.relays {
		if r.left {
			left = append(left, names[i])
		}
	}
	sort.Strings(left)
	for _, relay := range left {
		sc.logChurn(ChurnRemoved, ChurnOpLeave, relay, "", sc.epoch, tombstoned[relay])
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
		if _, known := sc.m.Index(d.Name); known {
			sc.rosterMu.Lock()
			sc.fps[d.Name] = fp
			sc.rosterMu.Unlock()
			sc.rotate(d.Name, fp, d.Epoch)
		}
	}
}

// leave marks a campaign relay as gone. Its pending pairs are tombstoned
// one by one as workers reach them (the churn gate in attempt).
func (sc *scan) leave(relay string, epoch uint64) {
	i, known := sc.m.Index(relay)
	if !known {
		return
	}
	sc.rosterMu.Lock()
	r := &sc.relays[i]
	if r.left {
		sc.rosterMu.Unlock()
		return
	}
	r.left, r.leftAt = true, epoch
	sc.rosterMu.Unlock()
	sc.logChurn(ChurnRemoved, ChurnOpLeave, relay, "", epoch, 0)
}

// join handles a relay entering the consensus. A campaign relay that
// rejoins simply resumes being measured — pairs already tombstoned stay
// tombstoned, their verdicts were reported — and a new fingerprint makes
// it a new incarnation: a rotation. A relay the campaign has never seen
// extends the matrix and is paired against every live campaign relay.
func (sc *scan) join(relay, fp string, epoch uint64) {
	if i, known := sc.m.Index(relay); known {
		sc.rosterMu.Lock()
		r := &sc.relays[i]
		wasRemoved := r.left
		r.left, r.leftAt = false, 0
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
	names := *sc.names.Load()
	at := int32(len(names)) // the index AddName will give relay
	jobs := make([]pairJob, 0, len(names))
	sc.rosterMu.Lock()
	for i := range names {
		if !sc.relays[i].left {
			jobs = append(jobs, pairJob{x: at, y: int32(i)})
		}
	}
	sc.rosterMu.Unlock()
	if len(jobs) == 0 || !sc.sched.reserve(len(jobs)) {
		// The scan already released its last pair (or there is nobody to
		// pair with): too late to measure this relay in this campaign.
		return
	}
	// The relay's state exists before any of its pairs can be taken.
	sc.rosterMu.Lock()
	sc.fps[relay] = fp
	sc.relays = append(sc.relays, relayState{})
	sc.rosterMu.Unlock()
	sc.mu.Lock()
	_ = sc.m.AddName(relay)
	grown := sc.m.Names()
	sc.names.Store(&grown)
	sc.total += len(jobs)
	sc.mu.Unlock()
	// The join is logged before its pairs can be measured, so a log never
	// holds a pair record naming a relay it has not introduced.
	sc.logChurn(ChurnJoined, ChurnOpJoin, relay, fp, epoch, 0)
	sc.sched.push(0, jobs...)
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
	if i, known := sc.m.Index(relay); known {
		sc.rosterMu.Lock()
		sc.relays[i].lat = ewmaStat{}
		sc.rosterMu.Unlock()
	}
	sc.logChurn(ChurnRotated, ChurnOpRotate, relay, fp, epoch, 0)
}

// removedRelay is the churn gate: the index of job's relay that left the
// consensus, if any (x before y), and the epoch it left at. Without a
// Directory nothing ever leaves and no lock is taken.
func (sc *scan) removedRelay(job pairJob) (relay int32, epoch uint64, gone bool) {
	if sc.s.Directory == nil {
		return 0, 0, false
	}
	sc.rosterMu.Lock()
	defer sc.rosterMu.Unlock()
	for _, i := range [2]int32{job.x, job.y} {
		if r := &sc.relays[i]; r.left {
			return i, r.leftAt, true
		}
	}
	return 0, 0, false
}

// deadline is the adaptive deadline of job's attempt from its relays'
// statistics, reported to the observer's DeadlineSet, or ok=false until
// they or the global one have warmed up. It is bounded below by
// MinPairTimeout (default 100ms), so a run of fast pairs cannot strangle a
// legitimately slow one, and above by the fixed PairTimeout.
func (sc *scan) deadline(job pairJob) (time.Duration, bool) {
	sc.rosterMu.Lock()
	x, y, global := sc.relays[job.x].lat, sc.relays[job.y].lat, sc.global
	sc.rosterMu.Unlock()
	lo := sc.s.MinPairTimeout
	if lo <= 0 {
		lo = 100 * time.Millisecond
	}
	d, ok := adaptiveDeadline(x, y, global, lo, sc.s.PairTimeout)
	if o := sc.s.Observer; ok && o != nil && o.DeadlineSet != nil {
		x, y := sc.name(job)
		o.DeadlineSet(x, y, d)
	}
	return d, ok
}

// observe feeds one successful attempt's duration into its two relays'
// statistics and the global one.
func (sc *scan) observe(job pairJob, elapsed time.Duration) {
	sc.rosterMu.Lock()
	sc.global.observe(elapsed)
	sc.relays[job.x].lat.observe(elapsed)
	sc.relays[job.y].lat.observe(elapsed)
	sc.rosterMu.Unlock()
}

// name looks up a job's two relays in the names snapshot.
func (sc *scan) name(job pairJob) (x, y string) {
	names := *sc.names.Load()
	return names[job.x], names[job.y]
}

// A worker claims its pairs in runs of up to k, one schedule lock a run,
// and writes a run's successes under one mu when it ends. k adapts to what
// a pair costs: it starts at 1, doubles up to runMax while a run ends within
// runBudget of the last one, and halves otherwise — so pairs far cheaper
// than the budget share their locks, and a pair that costs more than it is
// settled alone, as soon as it is measured.
const (
	runBudget = time.Millisecond
	runMax    = 64
)

// success is a measured pair waiting for its run to end.
type success struct {
	job pairJob
	rtt float64
}

// work is worker w's loop. Everything but the flush and write of a success
// — the churn gate, the breaker, a retry's push, a park, the checkpoint
// append, the observer's PairDone — happens per pair as the run goes. The clock is
// read once a run. The run and its successes live in arrays on this
// goroutine's stack: a campaign shard's small scan allocates nothing for
// them, and no two workers' scratch can share a cache line.
func (sc *scan) work(w int, meas *Measurer) {
	var run [runMax]pairJob       // the run in hand
	var successes [runMax]success // its measured pairs
	k := 1                        // the next take's cap
	released := 0                 // the run's pairs that left the worker's hands
	last := time.Now()
	for {
		jobs := sc.sched.take(w, released, run[:k])
		if len(jobs) == 0 {
			return
		}
		released = 0
		measured := successes[:0]
		for _, job := range jobs {
			var release bool
			if measured, release = sc.attempt(w, meas, job, measured); release {
				released++
			}
		}
		sc.writeRun(measured)
		now := time.Now()
		if now.Sub(last) <= runBudget {
			k = min(2*k, runMax)
		} else {
			k = max(k/2, 1)
		}
		last = now
	}
}

// writeRun writes a run's successes and advances progress past each, in
// the order they were measured, under one mu. A pair counts only once its
// record is in the log, so the run's records are flushed first; if that
// fails, the scan is cancelled and none of the run's pairs is written or
// counted.
func (sc *scan) writeRun(measured []success) {
	if len(measured) == 0 || !sc.flush() {
		return
	}
	sc.mu.Lock()
	for _, s := range measured {
		sc.m.write(int(s.job.x), int(s.job.y), s.rtt, ProvFresh, 255)
		sc.advance()
	}
	sc.mu.Unlock()
}

// attempt runs one claimed job to one of its ends: measured (appended to
// measured, the run's successes, which writeRun writes when the run ends),
// settled as failed, tombstoned, parked behind a breaker, or pushed to the
// next worker as a retry. It returns measured and whether the pair left the
// worker's hands for good, which the worker's next take releases.
func (sc *scan) attempt(w int, meas *Measurer, job pairJob, measured []success) (_ []success, release bool) {
	if ended(sc.ctx) {
		// Cancelled scan: drain without measuring. The scan's result is
		// partial, so abandoned pairs are released, not settled —
		// progress must not count them as done.
		return measured, true
	}
	// Churn gate: a pair touching a relay the consensus dropped is
	// tombstoned, not measured — no circuits, no retries, no breaker
	// charges against a relay that is simply gone.
	if relay, ep, gone := sc.removedRelay(job); gone {
		sc.tombstone(job, relay, ep)
		return measured, true
	}
	x, y := sc.name(job)
	// Breaker gate, the engine's only Health.Allow: a pair touching a
	// quarantined relay is parked on first contact and given up on second.
	if h := sc.s.Health; h != nil {
		if qe := h.Allow(x, y); qe != nil {
			sc.s.Observer.quarantine(x, y, qe.Relay, job.deferred)
			if job.deferred {
				sc.settle(job, qe)
				return measured, true
			}
			sc.sched.park(job)
			return measured, false
		}
	}
	ctx := sc.ctx
	var cancelAttempt context.CancelFunc
	timeout := sc.s.PairTimeout
	adaptive := false
	if sc.s.AdaptiveDeadline && !job.fullDeadline {
		if d, ok := sc.deadline(job); ok && (timeout <= 0 || d < timeout) {
			timeout = d
			adaptive = true
		}
	}
	if timeout > 0 {
		ctx, cancelAttempt = context.WithTimeout(sc.ctx, timeout)
	}
	// The attempt's duration is for the breaker and the deadline
	// statistics; without either the clock is not read.
	timed := sc.s.Health != nil || sc.s.AdaptiveDeadline
	var start time.Time
	if timed {
		start = time.Now()
	}
	sc.s.Observer.workerActive(1)
	rtt, _, err := meas.measurePair(ctx, x, y, int(job.x), int(job.y), false)
	sc.s.Observer.workerActive(-1)
	var elapsed time.Duration
	if timed {
		elapsed = time.Since(start)
	}
	if cancelAttempt != nil {
		cancelAttempt()
	}
	job.attempt++
	if err != nil {
		return measured, sc.failed(w, job, err, elapsed, adaptive)
	}
	if sc.s.AdaptiveDeadline {
		sc.observe(job, elapsed)
	}
	if sc.cp != nil { // appendRec takes the record by value: build it only for a log
		i, j := int(job.x), int(job.y)
		sc.appendRec(CheckpointRecord{Kind: RecordPair, I: min(i, j), J: max(i, j), RTT: rtt})
	}
	if h := sc.s.Health; h != nil {
		h.Success(x)
		h.Success(y)
	}
	return append(measured, success{job, rtt}), true
}

// failed disposes of an attempt that returned err after elapsed, reporting
// as attempt does.
func (sc *scan) failed(w int, job pairJob, err error, elapsed time.Duration, adaptive bool) (release bool) {
	// A failure whose relay left the consensus mid-attempt is churn
	// fallout (the relay DESTROYed its circuits on the way out), not
	// evidence against anyone still present.
	if relay, ep, gone := sc.removedRelay(job); gone {
		sc.tombstone(job, relay, ep)
		return true
	}
	x, y := sc.name(job)
	if h := sc.s.Health; h != nil && !ended(sc.ctx) {
		// Charge only the relays the failing circuit implicates
		// (CircuitError), not both pair endpoints blindly.
		for _, relay := range culprits(x, y, err) {
			h.Failure(relay, err, elapsed)
		}
	}
	if !job.deferred && int(job.attempt) <= min(sc.s.Retry, math.MaxInt16-1) && !ended(sc.ctx) {
		if adaptive && errors.Is(err, context.DeadlineExceeded) {
			// The adaptive deadline may have strangled a legitimately slow pair:
			// the retry gets the full PairTimeout.
			job.fullDeadline = true
		}
		sc.mu.Lock()
		if sc.jitter == nil {
			// Built on first use from the seed it always had, so retry
			// schedules are unchanged and a scan that never retries never
			// pays for the source.
			sc.jitter = rand.New(rand.NewSource(sc.s.Shuffle ^ 0x7107))
		}
		d := sc.backoff.Delay(int(job.attempt), sc.jitter)
		sc.mu.Unlock()
		sc.s.Observer.retry(x, y, int(job.attempt), d, err)
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
		return false
	}
	if job.deferred && !ended(sc.ctx) {
		// A deferred pair got exactly one end-of-scan attempt (often the
		// breaker's half-open probe); its failure is part of the
		// quarantine story, not a fresh one.
		relay := culprits(x, y, err)[0]
		sc.s.Observer.quarantine(x, y, relay, true)
		err = &QuarantineError{Relay: relay, Cause: err}
	}
	sc.settle(job, err)
	return true
}

// settle gives a pair that failed for good its final disposition: a
// reported failure in a tolerant scan or — in a non-tolerant one — the
// failure that latches and cancels the scan, so no new measurement is
// dispatched and in-flight ones notice cooperatively.
func (sc *scan) settle(job pairJob, err error) {
	x, y := sc.name(job)
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.s.SkipFailures {
		// A failed pair is still completed work: Progress must reach
		// total on a tolerant scan with failures.
		sc.failures = append(sc.failures, PairError{X: x, Y: y, Err: err, Attempts: int(job.attempt)})
		sc.advance()
		return
	}
	if sc.firstErr == nil {
		sc.firstErr = fmt.Errorf("ting: pair (%s,%s): %w", x, y, err)
	}
	sc.cancel()
}

// advance counts one scheduled pair as done. Callers hold sc.mu.
func (sc *scan) advance() {
	sc.done++
	if sc.s.Progress != nil {
		sc.s.Progress(sc.done, sc.total)
	}
}

// markRemoved records that a pair will not be measured because its relay
// at index relay left the consensus at epoch — the tombstone itself, shared
// by pairs dropped at plan time and pairs abandoned mid-scan. It burns no
// retry budget and never fails the scan, tolerant or not. Once workers run,
// callers hold sc.mu.
func (sc *scan) markRemoved(job pairJob, relay int32, epoch uint64) {
	sc.m.setProv(int(job.x), int(job.y), ProvRemoved)
	names := *sc.names.Load()
	sc.failures = append(sc.failures, PairError{
		X: names[job.x], Y: names[job.y],
		Err:      &ChurnError{Relay: names[relay], Epoch: epoch},
		Attempts: int(job.attempt),
	})
}

// tombstone settles one scheduled pair abandoned to churn. It counts as
// completed work: it was scheduled.
func (sc *scan) tombstone(job pairJob, relay int32, epoch uint64) {
	sc.mu.Lock()
	sc.markRemoved(job, relay, epoch)
	sc.advance()
	sc.mu.Unlock()
	names := *sc.names.Load()
	sc.s.Observer.churn(ChurnEvent{
		Kind: ChurnTombstoned, Relay: names[relay], Epoch: epoch,
		X: names[job.x], Y: names[job.y], Tombstoned: 1,
	})
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
