package ting

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// allPairJobs lists every unordered pair of relays 0 … n-1, in plan's
// order.
func allPairJobs(n int) []pairJob {
	todo := make([]pairJob, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			todo = append(todo, pairJob{x: int32(i), y: int32(j)})
		}
	}
	return todo
}

// release is take's first half on its own: the single-goroutine model must
// release a run without letting the worker block for another.
func (s *schedule) release(n int) {
	s.mu.Lock()
	s.open -= n
	s.rebalance()
	s.mu.Unlock()
}

// schedModel is the plain reference the schedule is checked against: it
// knows where every pair is by construction, not by counting.
type schedModel struct {
	workers int
	queued  [][]pairJob // per worker, FIFO
	hands   [][]pairJob // per worker, claimed by take and not yet disposed of
	// done counts, per worker, the pairs of its run that ended for good and
	// that its next take (or release) hands back: still open until then.
	done     []int
	parked   []pairJob
	released map[[2]int32]int // pair → times released
}

func (m *schedModel) open() int {
	n := len(m.parked)
	for w := range m.queued {
		n += len(m.queued[w]) + len(m.hands[w]) + m.done[w]
	}
	return n
}

// push mirrors schedule.push: the i-th job to worker (w+i) mod W.
func (m *schedModel) push(w int, jobs ...pairJob) {
	for i, job := range jobs {
		to := (w + i) % m.workers
		m.queued[to] = append(m.queued[to], job)
	}
}

func (m *schedModel) release(job pairJob) { m.released[[2]int32{job.x, job.y}]++ }

// rebalance applies the two end conditions after a pair was parked or
// released.
func (m *schedModel) rebalance() {
	if n := m.open(); n > 0 && n == len(m.parked) {
		lot := m.parked
		m.parked = nil
		m.push(0, lot...)
	}
}

// check compares the schedule's state with the model's after one step.
func (m *schedModel) check(s *schedule) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	queued, hands := 0, 0
	for w := range m.queued {
		q := &s.fifos[w]
		got := q.jobs[q.head:]
		if len(got) != len(m.queued[w]) {
			return fmt.Errorf("worker %d has %d queued, model %d", w, len(got), len(m.queued[w]))
		}
		for i := range got {
			if got[i] != m.queued[w][i] {
				return fmt.Errorf("worker %d slot %d holds %+v, model %+v", w, i, got[i], m.queued[w][i])
			}
		}
		queued += len(got)
		hands += len(m.hands[w]) + m.done[w]
	}
	if len(s.parked) != len(m.parked) {
		return fmt.Errorf("lot holds %d, model %d", len(s.parked), len(m.parked))
	}
	if queued+hands+len(s.parked) != s.open {
		return fmt.Errorf("open = %d, but %d queued + %d in hands or unreleased + %d parked", s.open, queued, hands, len(s.parked))
	}
	if s.open > 0 && s.open == len(s.parked) {
		return fmt.Errorf("only the %d parked pairs are open and the lot was not dealt", s.open)
	}
	return nil
}

// TestSchedulePropertyAgainstModel drives one schedule from one goroutine
// with random worker behaviour — runs taken at random caps from 1 to 64,
// each pair retried, parked or released, a relay joining — and checks it
// against schedModel after every step.
func TestSchedulePropertyAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		// The model only calls take where it predicts take cannot block, so
		// a schedule that blocks there is a failure, not a hung test.
		done := make(chan error, 1)
		go func() { done <- runScheduleModel(seed) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("seed %d: take blocked where the model says it cannot", seed)
		}
	}
}

func runScheduleModel(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	workers := 1 + rng.Intn(5)
	todo := allPairJobs(2 + rng.Intn(9))
	if workers > len(todo) {
		workers = len(todo)
	}
	shuffled := rng.Intn(2) == 0
	m := &schedModel{
		workers:  workers,
		queued:   assignJobs(todo, workers, shuffled),
		hands:    make([][]pairJob, workers),
		done:     make([]int, workers),
		released: make(map[[2]int32]int),
	}
	for w := range m.queued {
		m.queued[w] = append([]pairJob(nil), m.queued[w]...)
	}
	s := newSchedule(todo, workers, shuffled)
	planned := len(todo)
	joins := 0

	for step := 0; m.open() > 0; step++ {
		if step > 10000 {
			return fmt.Errorf("no end after %d steps; %d open", step, m.open())
		}
		var op string
		w := rng.Intn(workers)
		switch {
		case rng.Intn(10) == 0 && joins < 3:
			// A relay joins: reserve its pairs, then deal them round.
			op = "join"
			k := 1 + rng.Intn(4)
			if !s.reserve(k) {
				return fmt.Errorf("step %d: reserve refused with %d open", step, m.open())
			}
			jobs := make([]pairJob, k)
			for i := range jobs {
				jobs[i] = pairJob{x: int32(1000 + joins), y: int32(i)}
			}
			joins++
			planned += k
			s.push(0, jobs...)
			m.push(0, jobs...)
		case len(m.hands[w]) > 0:
			// Worker w ends the next attempt of its run, one of three ways.
			job := m.hands[w][0]
			m.hands[w] = m.hands[w][1:]
			switch c := rng.Intn(4); {
			case c == 0 && job.attempt < 3:
				op = "retry"
				job.attempt++
				s.push(w+1, job)
				m.push(w+1, job)
			case c == 1 && !job.deferred:
				op = "park"
				s.park(job)
				job.deferred = true
				m.parked = append(m.parked, job)
				m.rebalance()
			default:
				// Ended for good, but open until w's next take says so.
				op = "done"
				m.release(job)
				m.done[w]++
			}
		case len(m.queued[w]) > 0 || m.done[w] > 0:
			// w's run is over. The release may deal the lot, to w among
			// others, or end the scan: the model applies it first to know
			// whether take would block.
			released := m.done[w]
			m.done[w] = 0
			m.rebalance()
			if len(m.queued[w]) == 0 && m.open() > 0 {
				op = "release"
				s.release(released)
				break
			}
			// The worker loop's way: release the run and claim the next in
			// one take.
			op = "take"
			k := 1 + rng.Intn(64)
			got := s.take(w, released, make([]pairJob, k))
			want := m.queued[w][:min(k, len(m.queued[w]))]
			if len(got) != len(want) {
				return fmt.Errorf("step %d: take(%d) at cap %d claimed %d, model %d", step, w, k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					return fmt.Errorf("step %d: take(%d) slot %d = %+v, model %+v", step, w, i, got[i], want[i])
				}
			}
			m.queued[w] = m.queued[w][len(want):]
			m.hands[w] = append(m.hands[w], got...)
		default:
			continue // w is idle
		}
		if err := m.check(s); err != nil {
			return fmt.Errorf("step %d %s: %w", step, op, err)
		}
	}

	if s.open != 0 {
		return fmt.Errorf("model is done, schedule has %d open", s.open)
	}
	for w := 0; w < workers; w++ {
		if run := s.take(w, 0, make([]pairJob, 1)); len(run) != 0 {
			return fmt.Errorf("take(%d) = %+v after the last release", w, run)
		}
	}
	if s.reserve(1) {
		return fmt.Errorf("reserve admitted a pair after the last release")
	}
	if len(m.released) != planned {
		return fmt.Errorf("%d distinct pairs released, %d scheduled", len(m.released), planned)
	}
	for pair, n := range m.released {
		if n != 1 {
			return fmt.Errorf("pair %v released %d times", pair, n)
		}
	}
	return nil
}

// TestScheduleConcurrentWorkers runs four real workers over 200 pairs, each
// taking runs at random caps from 1 to 64 and ending every attempt by a
// random retry, park or release: all must exit and every pair must have
// been released exactly once. It is the -race half of the property above.
func TestScheduleConcurrentWorkers(t *testing.T) {
	const workers = 4
	for seed := int64(1); seed <= 400; seed++ {
		todo := allPairJobs(21)[:200] // 21 relays make 210 pairs
		s := newSchedule(todo, workers, seed%2 == 0)
		var released atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed*workers + int64(w)))
				buf := make([]pairJob, 64)
				done := 0
				for {
					run := s.take(w, done, buf[:1+rng.Intn(64)])
					if len(run) == 0 {
						return
					}
					done = 0
					for _, job := range run {
						switch c := rng.Intn(4); {
						case c == 0 && job.attempt < 3:
							job.attempt++
							s.push(w+1, job)
						case c == 1 && !job.deferred:
							s.park(job)
						default:
							released.Add(1)
							done++
						}
					}
				}
			}(w)
		}
		exited := make(chan struct{})
		go func() { wg.Wait(); close(exited) }()
		select {
		case <-exited:
		case <-time.After(20 * time.Second):
			t.Fatalf("seed %d: workers still running after 20 s (%d of %d released)", seed, released.Load(), len(todo))
		}
		if got := released.Load(); got != int64(len(todo)) {
			t.Fatalf("seed %d: %d releases for %d pairs", seed, got, len(todo))
		}
	}
}

// TestSchedulePlacementAllocates pins the placement's memory: the all-pairs
// plan of 1000 relays is 999 runs, and placing it on two workers allocates
// the queues and one group record a relay, not a list of its 499 500 pairs.
func TestSchedulePlacementAllocates(t *testing.T) {
	const n = 1000
	names := tileNames(n)
	m, err := NewMatrix(names)
	if err != nil {
		t.Fatal(err)
	}
	sc := &scan{s: &Scanner{}, m: m}
	todo, pairs, err := sc.plan(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(todo) != n-1 || pairs != n*(n-1)/2 {
		t.Fatalf("plan made %d runs of %d pairs, want %d runs of %d", len(todo), pairs, n-1, n*(n-1)/2)
	}
	var s *schedule
	if b, _ := allocated(func() { s = newSchedule(todo, 2, false) }); b >= 64<<10 {
		t.Errorf("placing the %d-relay plan allocated %d bytes, want under 64 KiB", n, b)
	}
	if s.open != pairs {
		t.Errorf("open = %d, want %d", s.open, pairs)
	}
}

// assignJobsReference is assignJobs as it was when every queued job was one
// pair: the placement a list of runs must reproduce pair for pair.
func assignJobsReference(todo []pairJob, workers int, shuffled bool) [][]pairJob {
	queues := make([][]pairJob, workers)
	if shuffled {
		for i, job := range todo {
			queues[i%workers] = append(queues[i%workers], job)
		}
		return queues
	}
	type group struct{ size, w, at int32 }
	lo, hi := int32(math.MaxInt32), int32(-1)
	for _, job := range todo {
		lo, hi = min(lo, job.x), max(hi, job.x)
	}
	groups := make([]group, max(hi-lo+1, 0))
	var order []int32
	for _, job := range todo {
		g := &groups[job.x-lo]
		if g.size == 0 {
			order = append(order, job.x-lo)
		}
		g.size++
	}
	slices.SortStableFunc(order, func(a, b int32) int { return int(groups[b].size - groups[a].size) })
	load := make([]int, workers)
	for _, x := range order {
		w := 0
		for i := 1; i < workers; i++ {
			if load[i] < load[w] {
				w = i
			}
		}
		g := &groups[x]
		g.w, g.at = int32(w), int32(load[w])
		load[w] += int(g.size)
	}
	for w := range queues {
		if load[w] > 0 {
			queues[w] = make([]pairJob, load[w])
		}
	}
	for _, job := range todo {
		g := &groups[job.x-lo]
		queues[g.w][g.at] = job
		g.at++
	}
	return queues
}

// firstDiff reports where got and want part, or "" when they are equal.
func firstDiff(got, want []pairJob) string {
	for k := range min(len(got), len(want)) {
		if got[k] != want[k] {
			return fmt.Sprintf("job %d is %+v, want %+v", k, got[k], want[k])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d jobs, want %d", len(got), len(want))
	}
	return ""
}

// expand writes jobs out one pair a job, as take hands them to a worker.
func expand(jobs []pairJob) []pairJob {
	var out []pairJob
	for _, job := range jobs {
		p := job
		p.more = 0
		for k := 0; k < job.pairs(); k++ {
			out = append(out, p)
			p.y++
		}
	}
	return out
}

// randomPlan plans a random scan of 2–40 relays — all pairs, a restricted
// list with gaps and flipped pairs in an order that is sometimes shuffled,
// a resume whose log holds random pairs, or a shuffled scan — and returns
// plan's runs beside the pairs the plan must stand for, one a job, in the
// order it must schedule them.
func randomPlan(t *testing.T, rng *rand.Rand) (todo, want []pairJob, shuffled bool) {
	t.Helper()
	n := 2 + rng.Intn(39)
	names := tileNames(n)
	m, err := NewMatrix(names)
	if err != nil {
		t.Fatal(err)
	}
	sc := &scan{s: &Scanner{}, m: m}
	sc.names.Store(&names)
	var restrict [][2]int
	switch rng.Intn(4) {
	case 0: // all pairs
		want = allPairJobs(n)
	case 1: // restricted
		restrict = [][2]int{}
		for _, job := range allPairJobs(n) {
			if rng.Intn(4) == 0 {
				continue
			}
			if rng.Intn(8) == 0 {
				job.x, job.y = job.y, job.x
			}
			want = append(want, job)
		}
		if rng.Intn(3) == 0 {
			rng.Shuffle(len(want), func(a, b int) { want[a], want[b] = want[b], want[a] })
		}
		for _, job := range want {
			restrict = append(restrict, [2]int{int(job.x), int(job.y)})
		}
	case 2: // resumed
		sc.resumed = &CheckpointState{Matrix: m}
		for _, job := range allPairJobs(n) {
			if rng.Intn(3) == 0 {
				m.write(int(job.x), int(job.y), 1, ProvResumed, 255)
				continue
			}
			want = append(want, job)
		}
	case 3: // shuffled
		shuffled = true
		sc.s.Shuffle = 1 + rng.Int63n(1000)
		want = allPairJobs(n)
		r := rand.New(rand.NewSource(sc.s.Shuffle))
		r.Shuffle(len(want), func(a, b int) { want[a], want[b] = want[b], want[a] })
	}
	todo, pairs, err := sc.plan(n, restrict)
	if err != nil {
		t.Fatal(err)
	}
	if pairs != len(want) {
		t.Fatalf("plan counted %d pairs, want %d", pairs, len(want))
	}
	return todo, want, shuffled
}

// TestAssignJobsMatchesReference: over random plans on 1–8 workers, each
// worker's queue of runs, written out pair by pair, is exactly what the
// one-pair-a-job placement gives that worker, in order.
func TestAssignJobsMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		todo, want, shuffled := randomPlan(t, rng)
		if d := firstDiff(expand(todo), want); d != "" {
			t.Fatalf("seed %d: plan written out pair by pair: %s", seed, d)
		}
		for workers := 1; workers <= 8; workers++ {
			got, ref := assignJobs(todo, workers, shuffled), assignJobsReference(want, workers, shuffled)
			for w := range ref {
				if d := firstDiff(expand(got[w]), ref[w]); d != "" {
					t.Fatalf("seed %d, %d workers: worker %d's queue against the reference: %s", seed, workers, w, d)
				}
			}
		}
	}
}

// TestTakeSplitsRuns: a worker taking runs at random caps from 1 to 64
// claims its queue's pairs one a job, each once and in queue order, and
// open falls by exactly what it releases.
func TestTakeSplitsRuns(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		todo, _, shuffled := randomPlan(t, rng)
		workers := 1 + rng.Intn(4)
		queues := assignJobs(todo, workers, shuffled)
		s := newSchedule(todo, workers, shuffled)
		open := s.open
		for w := 0; w < workers; w++ {
			want := expand(queues[w])
			var got []pairJob
			for len(got) < len(want) {
				run := s.take(w, 0, make([]pairJob, 1+rng.Intn(64)))
				if len(run) == 0 {
					t.Fatalf("seed %d: worker %d's take came back empty after %d of %d pairs", seed, w, len(got), len(want))
				}
				got = append(got, run...)
			}
			if d := firstDiff(got, want); d != "" {
				t.Fatalf("seed %d: worker %d's claims: %s", seed, w, d)
			}
			s.release(len(got))
			open -= len(got)
			if s.open != open {
				t.Fatalf("seed %d: open = %d after worker %d released its pairs, want %d", seed, s.open, w, open)
			}
		}
		if open != 0 {
			t.Fatalf("seed %d: %d pairs never claimed", seed, open)
		}
	}
}
