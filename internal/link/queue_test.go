package link

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ting/internal/cell"
)

// Every in-process path — both directions of a Pipe, the delay Delayed
// injects, the exit's byte stream — is the timed queue of queue.go. These
// tests pin what it owes its users: order, capacity and blocking
// back-pressure, delays that overlap instead of adding up, Close reaching a
// receiver wherever it waits, and an idle link that costs next to nothing.

// delayedPairs builds, for each transport Delayed supports, a link from a
// to b with the given one-way delay in both directions: the in-process pipe
// that carries the delay itself, and TCP behind the pumps.
func delayedPairs(t *testing.T, oneWay time.Duration) map[string][2]Link {
	t.Helper()
	pa, pb := Pipe(0, "a", "b")
	ta, tb := tcpPair(t)
	pairs := map[string][2]Link{
		"pipe": {Delayed(pa, oneWay, oneWay), pb},
		"tcp":  {Delayed(ta, oneWay, oneWay), tb},
	}
	t.Cleanup(func() {
		for _, p := range pairs {
			p[0].Close()
			p[1].Close()
		}
	})
	return pairs
}

func TestQueueKeepsOrderAcrossGrowth(t *testing.T) {
	var q queue[int]
	q.init(64, 0)
	next, want := 0, 0
	put := func(n int) {
		for i := 0; i < n; i++ {
			v := next
			if err := q.put(&v); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	take := func(n int) {
		for i := 0; i < n; i++ {
			var v int
			if err := q.take(&v); err != nil {
				t.Fatal(err)
			}
			if v != want {
				t.Fatalf("took %d, want %d", v, want)
			}
			want++
		}
	}
	// Move the head off zero, then grow with the contents wrapped around
	// the end of the ring, twice.
	put(3)
	take(2)
	put(6)
	take(5)
	put(20)
	take(22)
	if q.n != 0 {
		t.Fatalf("%d entries left", q.n)
	}
	if len(q.buf) > 64 {
		t.Fatalf("ring grew to %d past its limit", len(q.buf))
	}
}

func TestDelayedBackpressureAtCapacity(t *testing.T) {
	const pipeCap = 8
	a, b := Pipe(pipeCap, "a", "b")
	da := Delayed(a, 0, 0)
	defer da.Close()
	defer b.Close()

	// With nobody receiving, the sender gets exactly this far: the pipe's
	// own capacity plus the in-flight budget of the delayed path.
	const accepted = queueCap + pipeCap
	const total = accepted + 50
	var sent atomic.Int64
	done := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			if err := sendCell(da, testCell(uint32(i), 0)); err != nil {
				done <- err
				return
			}
			sent.Add(1)
		}
		done <- nil
	}()
	deadline := time.Now().Add(5 * time.Second)
	for sent.Load() < accepted {
		if time.Now().After(deadline) {
			t.Fatalf("sender stuck at %d cells, want %d accepted", sent.Load(), accepted)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if got := sent.Load(); got != accepted {
		t.Fatalf("%d sends accepted with no receiver, want the sender blocked at %d", got, accepted)
	}

	// Draining releases the sender, and every cell arrives in order.
	for i := 0; i < total; i++ {
		got, err := recvCell(b)
		if err != nil {
			t.Fatal(err)
		}
		if got.Circ != cell.CircID(i) {
			t.Fatalf("reordered: got %d at %d", got.Circ, i)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestDelayedLinkPipelines: cells in flight share the delay. 200 cells sent
// back to back over a 20 ms link all arrive about 20 ms later — a receiver
// that slept the delay per cell would take 4 s.
func TestDelayedLinkPipelines(t *testing.T) {
	const oneWay = 20 * time.Millisecond
	const cells = 200
	for name, p := range delayedPairs(t, oneWay) {
		near, far := p[0], p[1]
		t.Run(name, func(t *testing.T) {
			start := time.Now()
			for i := 0; i < cells; i++ {
				if err := sendCell(near, testCell(uint32(i), 0)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < cells; i++ {
				got, err := recvCell(far)
				if err != nil {
					t.Fatal(err)
				}
				if got.Circ != cell.CircID(i) {
					t.Fatalf("reordered: got %d at %d", got.Circ, i)
				}
				if i == 0 && time.Since(start) < oneWay {
					t.Errorf("first cell after %v, before the injected %v", time.Since(start), oneWay)
				}
			}
			if took := time.Since(start); took > oneWay+500*time.Millisecond {
				t.Errorf("%d cells took %v over a %v link: delays are adding up, not overlapping", cells, took, oneWay)
			}
		})
	}
}

// TestCloseUnblocksRecvWaitingOutDelay: a cell is queued but not due for a
// minute; closing the receiving end must not wait for it.
func TestCloseUnblocksRecvWaitingOutDelay(t *testing.T) {
	for name, p := range delayedPairs(t, time.Minute) {
		near, far := p[0], p[1]
		t.Run(name, func(t *testing.T) {
			if err := sendCell(far, testCell(1, 1)); err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				_, err := recvCell(near)
				done <- err
			}()
			// Give Recv time to reach the wait; closing first is also a pass.
			time.Sleep(20 * time.Millisecond)
			near.Close()
			select {
			case err := <-done:
				if !errors.Is(err, ErrClosed) {
					t.Errorf("Recv = %v, want ErrClosed", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Recv still waiting out the delay after Close")
			}
		})
	}
}

// TestPeerCloseDrainsDelayedCells: what a half sent before closing still
// arrives, in order and no earlier than due; only then is the peer gone.
func TestPeerCloseDrainsDelayedCells(t *testing.T) {
	const oneWay = 30 * time.Millisecond
	a, b := Pipe(0, "a", "b")
	da := Delayed(a, oneWay, oneWay)
	defer b.Close()
	start := time.Now()
	for i := 0; i < 5; i++ {
		if err := sendCell(da, testCell(uint32(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	da.Close()
	for i := 0; i < 5; i++ {
		got, err := recvCell(b)
		if err != nil {
			t.Fatalf("cell %d lost to the peer's close: %v", i, err)
		}
		if got.Circ != cell.CircID(i) {
			t.Fatalf("reordered: got %d at %d", got.Circ, i)
		}
		if since := time.Since(start); since < oneWay {
			t.Errorf("cell %d surfaced after %v, before the injected %v", i, since, oneWay)
		}
	}
	if _, err := recvCell(b); err == nil || errors.Is(err, ErrClosed) {
		t.Errorf("Recv after drain = %v, want the peer reported gone", err)
	}
	if err := sendCell(b, testCell(9, 9)); err == nil {
		t.Error("Send to a closed peer succeeded")
	}
}

func TestIdleLinkIsCheap(t *testing.T) {
	pn := NewPipeNet()
	ln, err := pn.Listen("idle")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			lk, err := ln.Accept()
			if err != nil {
				return
			}
			lk.Close()
		}
	}()
	const dials = 100
	links := make([]Link, 0, dials)
	goroutines := runtime.NumGoroutine()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < dials; i++ {
		raw, err := pn.Dial("idle")
		if err != nil {
			t.Fatal(err)
		}
		links = append(links, Delayed(raw, time.Millisecond, time.Millisecond))
	}
	runtime.ReadMemStats(&after)
	// An in-process link runs nothing of its own: the sender stamps, the
	// receiver waits.
	if extra := runtime.NumGoroutine() - goroutines; extra > 0 {
		t.Errorf("%d dialed, delayed in-process links started %d goroutines, want 0", dials, extra)
	}
	for _, lk := range links {
		lk.Close()
	}
	perDial := float64(after.TotalAlloc-before.TotalAlloc) / dials / 1024
	t.Logf("%.2f KiB allocated per dialed, delayed link", perDial)
	// The rings grow on first use, so an idle link is its two queue headers;
	// pointer queues sized up front made this ~20 KiB, value-typed slots
	// 1361 KiB.
	if perDial > 1 {
		t.Errorf("a dialed, delayed link allocates %.2f KiB, want ≤ 1", perDial)
	}
}

// fifoModel is the serial reference for a zero-delay queue: a bounded
// FIFO with its two close flags, where nothing is shared and nothing
// blocks. Where the queue would block, the model says so and the test does
// not make the call.
type fifoModel struct {
	vals       []int
	limit      int
	sendErr    error
	recvClosed bool
}

// add is put and offer: the error they return, or blocks for a put that
// would wait for room.
func (m *fifoModel) add(v int, wait bool) (blocks bool, err error) {
	switch {
	case len(m.vals) == m.limit && m.sendErr == nil && !m.recvClosed:
		if wait {
			return true, nil
		}
		return false, errFull
	case m.sendErr != nil:
		return false, ErrClosed
	case m.recvClosed:
		return false, errPeerClosed
	}
	m.vals = append(m.vals, v)
	return false, nil
}

// take is the queue's take: the head, or the error, or blocks for an open,
// empty queue.
func (m *fifoModel) take() (v int, blocks bool, err error) {
	switch {
	case m.recvClosed:
		return 0, false, ErrClosed
	case len(m.vals) > 0:
		v, m.vals = m.vals[0], m.vals[1:]
		return v, false, nil
	case m.sendErr != nil:
		return 0, false, m.sendErr
	}
	return 0, true, nil
}

// runQueueOps drives a queue and the model through random operations at
// zero delay and compares them after every step.
func runQueueOps(rng *rand.Rand, steps int) error {
	var q queue[int]
	m := fifoModel{limit: 1 + rng.Intn(9)}
	q.init(m.limit, 0)
	errSent := errors.New("sender done")
	next := 0
	for step := 0; step < steps; step++ {
		op := rng.Intn(100)
		fail := func(format string, args ...any) error {
			return fmt.Errorf("step %d (op %d, limit %d): %s", step, op, m.limit, fmt.Sprintf(format, args...))
		}
		switch {
		case op < 40: // put or offer
			wait := op < 20
			blocks, want := m.add(next, wait)
			if blocks {
				continue
			}
			v := next
			var got error
			if wait {
				got = q.put(&v)
			} else {
				got = q.offer(&v)
			}
			if got != want {
				return fail("add(wait %v) = %v, model %v", wait, got, want)
			}
			next++
		case op < 90:
			want, blocks, wantErr := m.take()
			if blocks {
				continue
			}
			var got int
			if err := q.take(&got); err != wantErr {
				return fail("take = %v, model %v", err, wantErr)
			}
			if wantErr == nil && got != want {
				return fail("took %d, model %d", got, want)
			}
		case op < 95:
			q.closeSend(errSent)
			if m.sendErr == nil {
				m.sendErr = errSent
			}
		default:
			q.closeRecv()
			m.recvClosed = true
		}
		if q.n != len(m.vals) || q.n > q.limit || len(q.buf) > q.limit {
			return fail("%d queued in a ring of %d (limit %d), model %d", q.n, len(q.buf), q.limit, len(m.vals))
		}
	}
	return nil
}

// TestQueueAgainstFIFO runs the timed queue at zero delay against a serial
// bounded FIFO: random puts, offers, takes and closes of either side, with
// no sleeps. Every call the model says would not block must return at
// once, with the model's value or error; a call that blocks trips the
// watchdog. The seed is printed so that a failure can be replayed.
func TestQueueAgainstFIFO(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	done := make(chan error, 1)
	go func() {
		for run := 0; run < 300; run++ {
			if err := runQueueOps(rng, 20+rng.Intn(200)); err != nil {
				done <- fmt.Errorf("run %d: %w", run, err)
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("seed %d: a call the model says returns at once blocked", seed)
	}
}
