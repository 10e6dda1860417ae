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

// allPairJobs lists every unordered pair of relays r0 … r(n-1), in plan's
// order.
func allPairJobs(n int) []pairJob {
	todo := make([]pairJob, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			todo = append(todo, pairJob{x: fmt.Sprintf("r%d", i), y: fmt.Sprintf("r%d", j)})
		}
	}
	return todo
}

// schedModel is the plain reference the schedule is checked against: it
// knows where every pair is by construction, not by counting.
type schedModel struct {
	workers  int
	queued   [][]pairJob // per worker, FIFO
	hands    [][]pairJob // per worker, taken by next and not yet disposed of
	parked   []pairJob
	released map[[2]string]int // pair → times released
}

func (m *schedModel) open() int {
	n := len(m.parked)
	for w := range m.queued {
		n += len(m.queued[w]) + len(m.hands[w])
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

func (m *schedModel) release(job pairJob) { m.released[[2]string{job.x, job.y}]++ }

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
		hands += len(m.hands[w])
	}
	if len(s.parked) != len(m.parked) {
		return fmt.Errorf("lot holds %d, model %d", len(s.parked), len(m.parked))
	}
	if queued+hands+len(s.parked) != s.open {
		return fmt.Errorf("open = %d, but %d queued + %d in hands + %d parked", s.open, queued, hands, len(s.parked))
	}
	if s.open > 0 && s.open == len(s.parked) {
		return fmt.Errorf("only the %d parked pairs are open and the lot was not dealt", s.open)
	}
	return nil
}

// TestSchedulePropertyAgainstModel drives one schedule from one goroutine
// with random worker behaviour — take, retry, park, release, a relay
// joining — and checks it against schedModel after every step.
func TestSchedulePropertyAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		if err := runScheduleModel(seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
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
		released: make(map[[2]string]int),
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
		op := "next"
		w := rng.Intn(workers)
		switch r := rng.Intn(10); {
		case r == 0 && joins < 3:
			// A relay joins: reserve its pairs, then deal them round.
			op = "join"
			k := 1 + rng.Intn(4)
			if !s.reserve(k) {
				return fmt.Errorf("step %d: reserve refused with %d open", step, m.open())
			}
			jobs := make([]pairJob, k)
			for i := range jobs {
				jobs[i] = pairJob{x: fmt.Sprintf("j%d", joins), y: fmt.Sprintf("r%d", i)}
			}
			joins++
			planned += k
			s.push(0, jobs...)
			m.push(0, jobs...)
		case r < 5 && len(m.hands[w]) > 0:
			// Worker w ends the attempt it holds, one of the three ways.
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
				op = "release"
				s.release()
				m.release(job)
				m.rebalance()
			}
		default:
			// next, only where it cannot block: on a worker with work.
			for i := 0; i < workers && len(m.queued[w]) == 0; i++ {
				w = (w + 1) % workers
			}
			if len(m.queued[w]) == 0 {
				// Nothing queued anywhere: a held pair must end instead.
				continue
			}
			job, ok := s.next(w)
			if !ok || job != m.queued[w][0] {
				return fmt.Errorf("step %d: next(%d) = %+v, %v; model %+v", step, w, job, ok, m.queued[w][0])
			}
			m.queued[w] = m.queued[w][1:]
			m.hands[w] = append(m.hands[w], job)
		}
		if err := m.check(s); err != nil {
			return fmt.Errorf("step %d %s: %w", step, op, err)
		}
	}

	if s.open != 0 {
		return fmt.Errorf("model is done, schedule has %d open", s.open)
	}
	for w := 0; w < workers; w++ {
		if job, ok := s.next(w); ok {
			return fmt.Errorf("next(%d) = %+v after the last release", w, job)
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
// ending every attempt by a random retry, park or release: all must exit
// and every pair must have been released exactly once. It is the -race
// half of the property above.
func TestScheduleConcurrentWorkers(t *testing.T) {
	const workers = 4
	for seed := int64(1); seed <= 50; seed++ {
		todo := allPairJobs(21)[:200] // 21 relays make 210 pairs
		s := newSchedule(todo, workers, seed%2 == 0)
		var released atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed*workers + int64(w)))
				for {
					job, ok := s.next(w)
					if !ok {
						return
					}
					switch c := rng.Intn(4); {
					case c == 0 && job.attempt < 3:
						job.attempt++
						s.push(w+1, job)
					case c == 1 && !job.deferred:
						s.park(job)
					default:
						released.Add(1)
						s.release()
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
