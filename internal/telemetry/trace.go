package telemetry

import (
	"sync"
	"time"
)

// DefaultTraceCap bounds the trace ring New installs: large enough to hold
// a full sweep's lifecycle events, small enough to stay cheap.
const DefaultTraceCap = 2048

// Event is one measurement-lifecycle record: a circuit build finishing, a
// retry being scheduled, a cache hit, a fault observed.
type Event struct {
	// At is the wall-clock event time.
	At time.Time `json:"at"`
	// Kind is the event class ("circuit", "retry", "cache", "pair",
	// "sweep", "fault", ...).
	Kind string `json:"kind"`
	// Detail is a short human-readable payload (pair names, error text).
	Detail string `json:"detail,omitempty"`
	// Ms carries the event's latency in milliseconds, when it has one.
	Ms float64 `json:"ms,omitempty"`
}

// Trace is a bounded ring of Events. Recording overwrites the oldest entry
// once full; a nil Trace ignores records. Safe for concurrent use.
type Trace struct {
	mu   sync.Mutex
	buf  []Event
	next int
	wrap bool
}

// NewTrace creates a trace holding up to capacity events (minimum 1).
func NewTrace(capacity int) *Trace {
	if capacity < 1 {
		capacity = 1
	}
	return &Trace{buf: make([]Event, capacity)}
}

// Record appends one event, stamping the time.
func (t *Trace) Record(kind, detail string, ms float64) {
	if t == nil {
		return
	}
	ev := Event{At: time.Now(), Kind: kind, Detail: detail, Ms: ms}
	t.mu.Lock()
	t.buf[t.next] = ev
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
		t.wrap = true
	}
	t.mu.Unlock()
}

// Events returns the recorded events, oldest first.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.wrap {
		return append([]Event(nil), t.buf[:t.next]...)
	}
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}
