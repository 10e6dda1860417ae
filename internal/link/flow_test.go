package link

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"ting/internal/cell"
)

// flowModel is the serial reference for Flow: a stream half with nothing
// shared and nothing that blocks. Where Flow would block, the model says so
// and the test does not make the call.
type flowModel struct {
	credit int
	queue  []uint32 // tags of delivered chunks, oldest first
	taken  int
	closed bool
}

func (m *flowModel) deliver(tag uint32) bool {
	if m.closed || len(m.queue) == cell.StreamWindow {
		return false
	}
	m.queue = append(m.queue, tag)
	return true
}

// take reports the next chunk's tag and whether a SENDME falls due with it;
// eof is a closed, drained half, blocks an open, empty one.
func (m *flowModel) take() (tag uint32, sendme, eof, blocks bool) {
	if len(m.queue) == 0 {
		return 0, false, m.closed, !m.closed
	}
	tag, m.queue = m.queue[0], m.queue[1:]
	m.taken++
	if m.taken == cell.SendmeEvery {
		m.taken, sendme = 0, true
	}
	return tag, sendme, false, false
}

// The operations a byte pair of the script selects: ops[i]%32 picks from
// this table, ops[i+1] says how many times.
const (
	opDeliver = 12 // below this: deliver
	opTake    = 20 // below this: take
	opAcquire = 26 // below this: acquire
	opRefill  = 31 // below this: refill; 31 itself closes
)

// runFlowOps drives a Flow and the model through one script and compares
// them after every step. *step is kept current so that a caller that gives
// up waiting can say where the script stopped.
func runFlowOps(ops []byte, step *atomic.Int64) error {
	var f Flow
	f.Init()
	m := flowModel{credit: cell.StreamWindow}
	var tag uint32
	for i := 0; i+1 < len(ops); i += 2 {
		op, reps := ops[i]%32, int(ops[i+1])+1
		if op >= opAcquire {
			reps = 1 + reps%4 // one refill is 50 cells; one close is enough
		}
		for r := 0; r < reps; r++ {
			step.Add(1)
			fail := func(format string, args ...any) error {
				return fmt.Errorf("op %d (%d) rep %d: %s", i/2, op, r, fmt.Sprintf(format, args...))
			}
			switch {
			case op < opDeliver:
				tag++
				got := f.Deliver(binary.BigEndian.AppendUint32(nil, tag))
				if want := m.deliver(tag); got != want {
					return fail("Deliver = %v with %d queued, closed %v; model %v", got, len(m.queue), m.closed, want)
				}
			case op < opTake:
				want, wantSendme, eof, blocks := m.take()
				if blocks {
					continue
				}
				chunk, sendme, err := f.Take()
				if eof {
					if err != io.EOF {
						return fail("Take on a closed, drained half = %v, want io.EOF", err)
					}
					continue
				}
				if err != nil {
					return fail("Take = %v with a chunk queued", err)
				}
				if got := binary.BigEndian.Uint32(chunk); got != want {
					return fail("took chunk %d, model %d", got, want)
				}
				if sendme != wantSendme {
					return fail("sendme = %v after %d taken, model %v", sendme, m.taken, wantSendme)
				}
			case op < opAcquire:
				if m.credit == 0 && !m.closed {
					continue // would block
				}
				err := f.Acquire()
				if m.closed {
					if err == nil {
						return fail("Acquire succeeded on a closed half")
					}
					continue
				}
				if err != nil {
					return fail("Acquire = %v with credit %d", err, m.credit)
				}
				m.credit--
			case op < opRefill:
				f.Refill()
				m.credit = min(m.credit+cell.SendmeEvery, cell.StreamWindow)
			default:
				f.Close()
				m.closed = true
			}
			if f.credit != m.credit || f.credit > cell.StreamWindow {
				return fail("credit %d, model %d", f.credit, m.credit)
			}
			if f.in.n != len(m.queue) || f.in.n > cell.StreamWindow || len(f.in.buf) > cell.StreamWindow {
				return fail("%d queued in a ring of %d, model %d", f.in.n, len(f.in.buf), len(m.queue))
			}
			if f.taken != m.taken {
				return fail("%d taken toward a SENDME, model %d", f.taken, m.taken)
			}
		}
	}
	return nil
}

// checkFlow is runFlowOps with a watchdog: no script makes a call the model
// says would block, so a script that does not finish has found one that
// blocks when it should not — after Close, say.
func checkFlow(ops []byte) error {
	var step atomic.Int64
	done := make(chan error, 1)
	go func() { done <- runFlowOps(ops, &step) }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		return fmt.Errorf("blocked at step %d", step.Load())
	}
}

func TestFlowAgainstModel(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 2*(20+rng.Intn(100)))
		rng.Read(ops)
		if err := checkFlow(ops); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func FuzzFlow(f *testing.F) {
	f.Add([]byte{0, 255, 0, 255, 12, 99, 31, 0, 12, 255, 20, 3}) // overrun, drain across a close
	f.Add([]byte{20, 255, 20, 255, 26, 0, 20, 60, 31, 0, 20, 0}) // spend the window, refill, close
	f.Fuzz(func(t *testing.T, ops []byte) {
		if err := checkFlow(ops); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFlowCloseWakesBlocked: the two calls that wait — Acquire with the
// window spent, Take with nothing delivered — both return when the half is
// closed under them, and a Refill or a Deliver wakes them before that.
func TestFlowCloseWakesBlocked(t *testing.T) {
	var f Flow
	f.Init()
	for i := 0; i < cell.StreamWindow; i++ {
		if err := f.Acquire(); err != nil {
			t.Fatal(err)
		}
	}
	acquired, took := make(chan error), make(chan error)
	go func() {
		for {
			err := f.Acquire()
			acquired <- err
			if err != nil {
				return
			}
		}
	}()
	go func() {
		for {
			_, _, err := f.Take()
			took <- err
			if err != nil {
				return
			}
		}
	}()
	wait := func(what string, ch chan error, wantErr bool) {
		t.Helper()
		select {
		case err := <-ch:
			if (err != nil) != wantErr {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: still blocked", what)
		}
	}
	select {
	case err := <-acquired:
		t.Fatalf("Acquire with the window spent returned %v", err)
	case err := <-took:
		t.Fatalf("Take with nothing delivered returned %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	f.Refill()
	for i := 0; i < cell.SendmeEvery; i++ {
		wait("Acquire after Refill", acquired, false)
	}
	if !f.Deliver([]byte{1}) {
		t.Fatal("Deliver refused on an open, empty half")
	}
	wait("Take after Deliver", took, false)
	f.Close()
	wait("Acquire after Close", acquired, true)
	wait("Take after Close", took, true)
}
