package ting

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
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

// TestScheduleCopiesJobListOnce pins the placement's memory: the planned
// list is copied into the per-worker queues once, and the schedule adopts
// those queues as they are.
func TestScheduleCopiesJobListOnce(t *testing.T) {
	todo := allPairJobs(1000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := newSchedule(todo, 2, false)
	runtime.ReadMemStats(&after)

	list := uint64(len(todo)) * uint64(unsafe.Sizeof(pairJob{}))
	if got := after.TotalAlloc - before.TotalAlloc; got > list+list/4 {
		t.Errorf("placing %d pairs allocated %d bytes, %.2f× the list's %d; want at most 1.25×",
			len(todo), got, float64(got)/float64(list), list)
	}
	if s.open != len(todo) {
		t.Errorf("open = %d, want %d", s.open, len(todo))
	}
}
