package ting

import (
	"sort"
	"sync"
)

// schedule owns every scheduled pair of one scan from plan until a worker
// releases it. An open pair is in exactly one place: a worker's FIFO, a
// worker's hands (from next until the push or park that ends the attempt,
// or the worker's following next, which releases it — or, for a joining
// relay's pairs, between reserve and push), or the parking lot. One mutex
// guards all of it, and both end conditions are a comparison on open:
//
//	open == len(parked)  only parked pairs are left: the lot is dealt back
//	                     for its final verdict
//	open == 0            the scan is over: workers exit, reserve refuses
//
// Each worker has its own FIFO rather than sharing one so that assignJobs'
// placement survives into execution order — a shared queue would let any
// worker take the next (x, ·) pair and split x's group across probers.
type schedule struct {
	mu     sync.Mutex
	fifos  []fifo
	parked []pairJob // pairs refused by an open breaker, waiting for the end
	open   int       // pairs scheduled and not yet released
}

// fifo is one worker's queue.
type fifo struct {
	jobs []pairJob // jobs[head:] are waiting
	head int
	wake sync.Cond // on the schedule's mutex; only the owning worker waits
}

// newSchedule places todo on workers FIFOs (see assignJobs) and adopts the
// placed slices as the queues themselves.
func newSchedule(todo []pairJob, workers int, shuffled bool) *schedule {
	s := &schedule{fifos: make([]fifo, workers), open: len(todo)}
	for w, jobs := range assignJobs(todo, workers, shuffled) {
		s.fifos[w].jobs = jobs
		s.fifos[w].wake.L = &s.mu
	}
	return s
}

// next first releases worker w's previous pair if it left the worker's
// hands for good (release), then blocks until w has a job or the scan is
// over — one lock acquisition a pair.
func (s *schedule) next(w int, release bool) (pairJob, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if release {
		s.open--
		s.rebalance()
	}
	q := &s.fifos[w]
	for q.head == len(q.jobs) {
		if s.open == 0 {
			return pairJob{}, false
		}
		q.wake.Wait()
	}
	job := q.jobs[q.head]
	q.head++
	return job, true
}

// push queues jobs already counted in open, the i-th on worker (w+i) mod W:
// a retry goes to the worker after the one it failed on, a joined relay's
// pairs and the lot are dealt round from worker 0.
func (s *schedule) push(w int, jobs ...pairJob) {
	s.mu.Lock()
	s.pushLocked(w, jobs)
	s.mu.Unlock()
}

func (s *schedule) pushLocked(w int, jobs []pairJob) {
	for i, job := range jobs {
		q := &s.fifos[(w+i)%len(s.fifos)]
		// Compact lazily: the consumed prefix is reclaimed only when it
		// dominates the slice, so push and next stay O(1) amortized.
		if q.head > len(q.jobs)/2 {
			q.jobs = append(q.jobs[:0], q.jobs[q.head:]...)
			q.head = 0
		}
		q.jobs = append(q.jobs, job)
		q.wake.Signal()
	}
}

// reserve admits k more pairs, which the caller then pushes — a relay
// joining mid-scan — unless the last pair was already released: a join that
// loses the race with the end of the scan is refused, not stranded.
func (s *schedule) reserve(k int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.open == 0 {
		return false
	}
	s.open += k
	return true
}

// park puts a job refused by an open breaker in the lot, marked deferred.
func (s *schedule) park(job pairJob) {
	s.mu.Lock()
	job.deferred = true
	s.parked = append(s.parked, job)
	s.rebalance()
	s.mu.Unlock()
}

// rebalance acts on the two end conditions after open or the lot changed.
// Callers hold s.mu.
func (s *schedule) rebalance() {
	switch {
	case s.open == 0:
		for w := range s.fifos {
			s.fifos[w].wake.Signal()
		}
	case s.open == len(s.parked):
		// The breaker may have half-opened by now; a deferred job that is
		// still refused settles as quarantined, so the scan terminates.
		lot := s.parked
		s.parked = nil
		s.pushLocked(0, lot)
	}
}

// assignJobs distributes todo across workers, each worker's queue
// allocated once at its final size. With a shuffle seed the randomized
// global order is preserved by dealing the shuffled list round-robin.
// Otherwise pairs are grouped by first endpoint and groups are placed
// longest-first onto the least-loaded worker (LPT greedy), so one worker
// owns all of (x, ·): its prober extends C_x into C_xy once, the
// half-circuit cache turns the group's remaining C_x lookups into hits,
// and no two workers block on the same singleflight.
func assignJobs(todo []pairJob, workers int, shuffled bool) [][]pairJob {
	queues := make([][]pairJob, workers)
	if shuffled {
		for w := range queues {
			queues[w] = make([]pairJob, 0, (len(todo)-w+workers-1)/workers)
		}
		for i, job := range todo {
			queues[i%workers] = append(queues[i%workers], job)
		}
		return queues
	}
	// Size each group, in order of first appearance.
	order := make([]int32, 0, 64)
	size := make(map[int32]int, 64)
	for _, job := range todo {
		if size[job.x] == 0 {
			order = append(order, job.x)
		}
		size[job.x]++
	}
	sort.SliceStable(order, func(a, b int) bool {
		return size[order[a]] > size[order[b]]
	})
	// LPT gives each group an owner and, since the groups before it on
	// that worker are known, the slot its first pair lands in.
	type cursor struct{ w, at int }
	load := make([]int, workers)
	cursors := make([]cursor, len(order))
	owner := make(map[int32]*cursor, len(order))
	for oi, x := range order {
		w := 0
		for i := 1; i < workers; i++ {
			if load[i] < load[w] {
				w = i
			}
		}
		cursors[oi] = cursor{w, load[w]}
		owner[x] = &cursors[oi]
		load[w] += size[x]
	}
	for w := range queues {
		if load[w] > 0 {
			queues[w] = make([]pairJob, load[w])
		}
	}
	// One pass over the list: each pair goes straight to its group's next
	// slot, so a group keeps todo's order and nothing is staged in between.
	for _, job := range todo {
		c := owner[job.x]
		queues[c.w][c.at] = job
		c.at++
	}
	return queues
}
