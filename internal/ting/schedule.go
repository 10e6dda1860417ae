package ting

import (
	"math"
	"slices"
	"sync"
)

// schedule owns every scheduled pair of one scan from plan until a worker
// releases it. A FIFO entry may be a run of pairs (see pairJob), but what
// the schedule counts is pairs. An open pair is in exactly one place: a
// worker's FIFO, a worker's hands (from the take that claims it in a run
// until the push or park that ends its attempt, or the worker's following
// take, which releases it — or, for a joining relay's pairs, between
// reserve and push), or the parking lot. One mutex guards all of it, and
// both end conditions are a comparison on open:
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
	jobs []pairJob // jobs[head:] are waiting; jobs[head] may be a run's tail
	head int
	wake sync.Cond // on the schedule's mutex; only the owning worker waits
}

// newSchedule places todo on workers FIFOs (see assignJobs) and adopts the
// placed slices as the queues themselves.
func newSchedule(todo []pairJob, workers int, shuffled bool) *schedule {
	s := &schedule{fifos: make([]fifo, workers)}
	for _, job := range todo {
		s.open += job.pairs()
	}
	for w, jobs := range assignJobs(todo, workers, shuffled) {
		s.fifos[w].jobs = jobs
		s.fifos[w].wake.L = &s.mu
	}
	return s
}

// take first releases the released pairs of worker w's previous run — those
// that left the worker's hands for good — then blocks until w has a job or
// the scan is over, and moves up to len(run) of w's queued pairs into run,
// one pair a job, splitting the queued run it stops in: one lock
// acquisition a run. It returns the jobs claimed, none once the scan is
// over.
func (s *schedule) take(w, released int, run []pairJob) []pairJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	if released > 0 {
		// The released pairs were in w's hands, never parked, so open
		// cannot step past len(parked) on the way down.
		s.open -= released
		s.rebalance()
	}
	q := &s.fifos[w]
	for q.head == len(q.jobs) {
		if s.open == 0 {
			return run[:0]
		}
		q.wake.Wait()
	}
	n := 0
	for n < len(run) && q.head < len(q.jobs) {
		head := &q.jobs[q.head]
		job := *head
		job.more = 0
		for c := min(head.pairs(), len(run)-n); c > 0; c-- {
			run[n] = job
			job.y++
			n++
		}
		if job.y > head.y+head.more {
			q.head++
		} else {
			head.more -= job.y - head.y
			head.y = job.y
		}
	}
	return run[:n]
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
// and no two workers block on the same singleflight. A group's size and a
// worker's load are pair counts, so a list of runs is placed pair for pair
// as the same list written out one pair a job would be.
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
	// A group is named by its first endpoint's matrix index, so groups live
	// in one slice indexed by relay, from the lowest first endpoint (a
	// campaign shard's groups span one tile band, not the relay set). Each
	// holds its size in pairs and in jobs, then its owner and the slot its
	// next job lands in.
	type group struct{ size, jobs, w, at int32 }
	lo, hi := int32(math.MaxInt32), int32(-1)
	for _, job := range todo {
		lo, hi = min(lo, job.x), max(hi, job.x)
	}
	groups := make([]group, max(hi-lo+1, 0))
	// Size each group, in order of first appearance.
	order := make([]int32, 0, 64)
	for _, job := range todo {
		g := &groups[job.x-lo]
		if g.size == 0 {
			order = append(order, job.x-lo)
		}
		g.size += int32(job.pairs())
		g.jobs++
	}
	slices.SortStableFunc(order, func(a, b int32) int { return int(groups[b].size - groups[a].size) })
	// LPT gives each group an owner and, since the groups before it on
	// that worker are known, the slot its first job lands in.
	load := make([]int, workers) // pairs
	slots := make([]int32, workers)
	for _, x := range order {
		w := 0
		for i := 1; i < workers; i++ {
			if load[i] < load[w] {
				w = i
			}
		}
		g := &groups[x]
		g.w, g.at = int32(w), slots[w]
		load[w] += int(g.size)
		slots[w] += g.jobs
	}
	for w := range queues {
		if slots[w] > 0 {
			queues[w] = make([]pairJob, slots[w])
		}
	}
	// One pass over the list: each job goes straight to its group's next
	// slot, so a group keeps todo's order and nothing is staged in between.
	for _, job := range todo {
		g := &groups[job.x-lo]
		queues[g.w][g.at] = job
		g.at++
	}
	return queues
}
