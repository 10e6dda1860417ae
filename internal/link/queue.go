package link

import (
	"errors"
	"sync"
	"time"
)

// queueCap is how many cells (or byte chunks) a delayed path holds in
// flight per direction before the sender blocks — the back-pressure a full
// pipe of a long-haul path exerts.
const queueCap = 1024

// errPeerClosed is what a queue reports once its other side has closed:
// to the receiver after it has drained what was queued, to a sender at
// once. The pipe and the stream pair translate it for their callers.
var errPeerClosed = errors.New("link: peer closed")

// errFull is offer's report that the queue is at its limit.
var errFull = errors.New("link: queue full")

// queue is the package's one in-process transport: a bounded FIFO that
// carries its own one-way delay. put stamps each entry due = now + delay;
// the single receiver takes the head and, only when that instant is still
// ahead, waits it out on one reusable timer. A zero delay stamps nothing
// and reads no clock. Any number of senders may put concurrently; take
// belongs to one goroutine at a time.
//
// Every crossing costs the receiver one wake-up: a sender that finds it
// waiting for a cell signals it directly, and a cell that arrives early is
// waited for by the receiver itself — there is no goroutine in between.
//
// The ring holds entries by value and grows on demand up to limit, so an
// idle queue costs no buffer at all. Slots are not cleared when taken; a
// slot keeps its last value alive until it is overwritten, which is bounded
// by what was once in flight.
type queue[T any] struct {
	mu       sync.Mutex
	notEmpty sync.Cond // the receiver, waiting for a cell
	notFull  sync.Cond // senders, waiting for room

	buf   []timed[T]
	head  int
	n     int
	limit int
	delay time.Duration

	// sendErr is set when the sending side is done: what take reports once
	// the queue has drained. recvClosed is the receiving side's Close.
	sendErr    error
	recvClosed bool

	// timer times the receiver's wait for a due instant. It is armed under
	// mu with waitingDue set, so that closeRecv can cut the wait short by
	// re-arming it to fire at once.
	timer      *time.Timer
	waitingDue bool
}

type timed[T any] struct {
	v   T
	due time.Time // zero: due on arrival
}

func (q *queue[T]) init(limit int, delay time.Duration) {
	q.limit, q.delay = limit, delay
	q.notEmpty.L = &q.mu
	q.notFull.L = &q.mu
}

// addDelay lengthens the path: entries put from now on are due d later,
// and queueCap more of them fit in flight.
func (q *queue[T]) addDelay(d time.Duration) {
	q.mu.Lock()
	q.delay += d
	q.limit += queueCap
	q.mu.Unlock()
}

// put appends a copy of *v, blocking while the queue is at its limit.
func (q *queue[T]) put(v *T) error { return q.add(v, true) }

// offer is put for a sender that must not block: a queue at its limit
// refuses the entry with errFull.
func (q *queue[T]) offer(v *T) error { return q.add(v, false) }

func (q *queue[T]) add(v *T, wait bool) error {
	q.mu.Lock()
	for q.n == q.limit && q.sendErr == nil && !q.recvClosed {
		if !wait {
			q.mu.Unlock()
			return errFull
		}
		q.notFull.Wait()
	}
	switch {
	case q.sendErr != nil:
		q.mu.Unlock()
		return ErrClosed
	case q.recvClosed:
		q.mu.Unlock()
		return errPeerClosed
	}
	if q.n == len(q.buf) {
		q.grow()
	}
	tail := q.head + q.n
	if tail >= len(q.buf) {
		tail -= len(q.buf)
	}
	e := &q.buf[tail]
	e.v = *v
	if q.delay > 0 {
		e.due = time.Now().Add(q.delay)
	} else {
		e.due = time.Time{}
	}
	q.n++
	q.mu.Unlock()
	q.notEmpty.Signal()
	return nil
}

// grow doubles the ring, up to limit. Called with mu held and the ring full.
func (q *queue[T]) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 4
	}
	if size > q.limit {
		size = q.limit
	}
	buf := make([]timed[T], size)
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

// take blocks for the next entry, waits out its due instant and copies it
// into *dst.
func (q *queue[T]) take(dst *T) error {
	q.mu.Lock()
	err := q.waitHead()
	if err == nil {
		*dst = q.buf[q.head].v
		q.head++
		if q.head == len(q.buf) {
			q.head = 0
		}
		q.n--
	}
	q.mu.Unlock()
	if err == nil {
		q.notFull.Signal()
	}
	return err
}

// waitHead returns nil once the head entry exists and is due. Called, and
// returns, with mu held.
func (q *queue[T]) waitHead() error {
	for {
		if q.recvClosed {
			return ErrClosed
		}
		if q.n > 0 {
			break
		}
		if q.sendErr != nil {
			return q.sendErr
		}
		q.notEmpty.Wait()
	}
	due := q.buf[q.head].due
	if due.IsZero() {
		return nil
	}
	d := time.Until(due)
	if d <= 0 {
		return nil
	}
	// Only this goroutine takes, so the head stays the head while mu is
	// released. The timer's channel is empty here: every earlier wait
	// drained it, except one closeRecv cut short — and after that no wait
	// starts.
	if q.timer == nil {
		q.timer = time.NewTimer(d)
	} else {
		q.timer.Reset(d)
	}
	q.waitingDue = true
	q.mu.Unlock()
	<-q.timer.C
	q.mu.Lock()
	q.waitingDue = false
	if q.recvClosed {
		return ErrClosed
	}
	return nil
}

// closeSend ends the sending side: further puts fail with ErrClosed, and
// the receiver, after draining what is queued — still honouring due
// instants — gets err.
func (q *queue[T]) closeSend(err error) {
	q.mu.Lock()
	if q.sendErr == nil {
		q.sendErr = err
	}
	q.mu.Unlock()
	q.notEmpty.Signal()
	q.notFull.Broadcast()
}

// closeRecv ends the receiving side: a take in progress or to come fails
// with ErrClosed, whether it waits for a cell or for a due instant, and
// puts fail with errPeerClosed.
func (q *queue[T]) closeRecv() {
	q.mu.Lock()
	q.recvClosed = true
	if q.waitingDue {
		q.timer.Reset(0)
	}
	q.mu.Unlock()
	q.notEmpty.Signal()
	q.notFull.Broadcast()
}

// ends is one end of an in-process connection: the queue it receives from
// and the queue it sends into. The pipe and the stream pair embed it.
type ends[T any] struct {
	in  *queue[T]
	out *queue[T]
}

// newEnds connects two ends by a queue per direction, each holding up to
// limit entries and delaying them by aToB and bToA.
func newEnds[T any](limit int, aToB, bToA time.Duration) (a, b ends[T]) {
	p := &struct{ ab, ba queue[T] }{}
	p.ab.init(limit, aToB)
	p.ba.init(limit, bToA)
	return ends[T]{in: &p.ba, out: &p.ab}, ends[T]{in: &p.ab, out: &p.ba}
}

// close ends both directions: the peer drains what was sent, then sees
// this end gone.
func (e ends[T]) close() {
	e.in.closeRecv()
	e.out.closeSend(errPeerClosed)
}
