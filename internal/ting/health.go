package ting

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// BreakerState is one relay's circuit-breaker position.
type BreakerState int

const (
	// BreakerClosed: the relay is healthy; measurements flow.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the relay accumulated FailureThreshold consecutive
	// failures; its pending pairs are quarantined until a cooldown
	// elapses.
	BreakerOpen
	// BreakerHalfOpen: the cooldown elapsed and exactly one probe
	// measurement is allowed through; its outcome closes or reopens the
	// breaker.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("BreakerState(%d)", int(s))
}

// ErrQuarantined marks a pair that was not measured because a relay's
// circuit breaker was open. Match with errors.Is(err, ErrQuarantined).
var ErrQuarantined = errors.New("relay quarantined by open circuit breaker")

// QuarantineError is the concrete error a quarantined pair carries: which
// relay blocked it and, when known, the failure that opened the breaker.
type QuarantineError struct {
	Relay string
	Cause error
}

func (e *QuarantineError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("ting: relay %s quarantined (last failure: %v)", e.Relay, e.Cause)
	}
	return fmt.Sprintf("ting: relay %s quarantined", e.Relay)
}

// Is makes errors.Is(err, ErrQuarantined) match.
func (e *QuarantineError) Is(target error) bool { return target == ErrQuarantined }

// Unwrap exposes the failure that opened the breaker.
func (e *QuarantineError) Unwrap() error { return e.Cause }

// HealthConfig configures a relay scoreboard.
type HealthConfig struct {
	// FailureThreshold is how many consecutive failures open a relay's
	// breaker. Default 3.
	FailureThreshold int
	// Cooldown is how long an open breaker waits before admitting one
	// half-open probe. It also bounds how long a granted probe may stay
	// unresolved before its slot is considered abandoned. Default 30s.
	Cooldown time.Duration
	// Observer, if non-nil, receives BreakerChange callbacks.
	Observer *Observer
	// now is injectable for tests.
	now func() time.Time
}

// Health is the per-relay scoreboard behind the scanner's and monitor's
// circuit breakers. The paper's campaigns ran for weeks against live
// relays that crash and flap (§4.5, §5.1); a persistently sick relay must
// not burn retry budget — or stall workers — on every pair it touches, so
// after FailureThreshold consecutive failures the relay is quarantined:
// closed → open on the K-th failure, open → half-open after Cooldown
// (one probe allowed), half-open → closed on probe success, back to open
// on probe failure. All methods are safe for concurrent use.
type Health struct {
	cfg HealthConfig

	mu     sync.Mutex
	relays map[string]*relayHealth
}

type relayHealth struct {
	state        BreakerState
	consecutive  int // consecutive failures since the last success
	successes    int
	failures     int
	opens        int // times the breaker opened
	failMsSum    float64
	lastErr      error
	openedAt     time.Time
	probing      bool
	probeStarted time.Time
}

// RelayHealth is one relay's scoreboard snapshot.
type RelayHealth struct {
	Name                string
	State               BreakerState
	Successes           int
	Failures            int
	ConsecutiveFailures int
	Opens               int
	// MeanFailureMs is the mean wall-clock latency of this relay's failed
	// measurement attempts — a relay that fails slowly (timeouts) is more
	// expensive than one that fails fast (refused dials).
	MeanFailureMs float64
	LastFailure   string
}

// NewHealth creates a scoreboard.
func NewHealth(cfg HealthConfig) *Health {
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = 3
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 30 * time.Second
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	return &Health{cfg: cfg, relays: make(map[string]*relayHealth)}
}

// get returns the relay's record, creating it closed. Callers hold h.mu.
func (h *Health) get(name string) *relayHealth {
	rh := h.relays[name]
	if rh == nil {
		rh = &relayHealth{}
		h.relays[name] = rh
	}
	return rh
}

// setState transitions one relay, firing the observer outside no lock —
// callers hold h.mu, so the callback is deferred to the returned func.
func (h *Health) setState(name string, rh *relayHealth, to BreakerState) func() {
	from := rh.state
	if from == to {
		return nil
	}
	rh.state = to
	obs := h.cfg.Observer
	return func() { obs.breakerChange(name, from, to) }
}

// admission is what a relay's breaker says to a measurement right now.
type admission int

const (
	// admitFreely: the breaker is closed.
	admitFreely admission = iota
	// admitProbe: the breaker is open past Cooldown, or half-open with its
	// probe abandoned for longer than Cooldown — one caller may go through
	// as the half-open probe.
	admitProbe
	// admitNone: the breaker is open inside Cooldown, or half-open with a
	// live probe.
	admitNone
)

// admissionLocked reads the relay's admission at now without changing
// anything. Callers hold h.mu.
func (h *Health) admissionLocked(name string, now time.Time) admission {
	rh := h.relays[name]
	switch {
	case rh == nil || rh.state == BreakerClosed:
		return admitFreely
	case rh.state == BreakerOpen && now.Sub(rh.openedAt) < h.cfg.Cooldown:
		return admitNone
	case rh.state == BreakerHalfOpen && rh.probing && now.Sub(rh.probeStarted) < h.cfg.Cooldown:
		return admitNone
	}
	return admitProbe
}

// admission reports what Allow would decide for one relay without
// claiming its probe slot — for a caller that is choosing what to measure,
// not yet measuring it.
func (h *Health) admission(name string) admission {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.admissionLocked(name, h.cfg.now())
}

// Allow reports whether a measurement touching the named relays may
// proceed. nil means yes; a non-nil *QuarantineError names the first
// blocking relay. Allow is where open breakers age: once Cooldown has
// elapsed the breaker turns half-open and this caller becomes its single
// probe (a probe abandoned for longer than Cooldown forfeits its slot).
// A caller granted a probe must report the outcome via Success or
// Failure for the implicated relays, so Allow is for the caller about to
// measure: the scan engine's breaker gate.
func (h *Health) Allow(names ...string) *QuarantineError {
	h.mu.Lock()
	now := h.cfg.now()
	// Decide for every relay before committing probe slots, so a pair
	// blocked by its second relay does not burn the first one's probe.
	for _, name := range names {
		if h.admissionLocked(name, now) == admitNone {
			q := &QuarantineError{Relay: name, Cause: h.relays[name].lastErr}
			h.mu.Unlock()
			return q
		}
	}
	var fired []func()
	for _, name := range names {
		if h.admissionLocked(name, now) != admitProbe {
			continue
		}
		rh := h.relays[name]
		if f := h.setState(name, rh, BreakerHalfOpen); f != nil {
			fired = append(fired, f)
		}
		rh.probing = true
		rh.probeStarted = now
	}
	h.mu.Unlock()
	for _, f := range fired {
		f()
	}
	return nil
}

// Success credits the relay with one successful measurement: consecutive
// failures reset, and a half-open breaker closes.
func (h *Health) Success(name string) {
	h.mu.Lock()
	rh := h.get(name)
	rh.successes++
	rh.consecutive = 0
	rh.probing = false
	fire := h.setState(name, rh, BreakerClosed)
	h.mu.Unlock()
	if fire != nil {
		fire()
	}
}

// Failure charges the relay with one failed measurement attempt that took
// elapsed wall-clock time. The K-th consecutive failure opens the
// breaker; a failed half-open probe reopens it immediately.
func (h *Health) Failure(name string, err error, elapsed time.Duration) {
	h.mu.Lock()
	now := h.cfg.now()
	rh := h.get(name)
	rh.failures++
	rh.consecutive++
	rh.failMsSum += float64(elapsed) / float64(time.Millisecond)
	rh.lastErr = err
	var fire func()
	switch rh.state {
	case BreakerHalfOpen:
		rh.probing = false
		rh.openedAt = now
		rh.opens++
		fire = h.setState(name, rh, BreakerOpen)
	case BreakerClosed:
		if rh.consecutive >= h.cfg.FailureThreshold {
			rh.openedAt = now
			rh.opens++
			fire = h.setState(name, rh, BreakerOpen)
		}
	}
	h.mu.Unlock()
	if fire != nil {
		fire()
	}
}

// Reset forgets the relay's scoreboard entirely — churn invalidation: a
// relay that rotated its key or rejoined the consensus is a new
// incarnation whose past failures (and open breaker) say nothing about
// it. If the breaker was open or half-open, the observer sees it close.
func (h *Health) Reset(name string) {
	h.mu.Lock()
	rh := h.relays[name]
	var fire func()
	if rh != nil {
		fire = h.setState(name, rh, BreakerClosed)
		delete(h.relays, name)
	}
	h.mu.Unlock()
	if fire != nil {
		fire()
	}
}

// Snapshot returns every tracked relay's scoreboard row, sorted by name.
func (h *Health) Snapshot() []RelayHealth {
	h.mu.Lock()
	out := make([]RelayHealth, 0, len(h.relays))
	for name, rh := range h.relays {
		row := RelayHealth{
			Name:                name,
			State:               rh.state,
			Successes:           rh.successes,
			Failures:            rh.failures,
			ConsecutiveFailures: rh.consecutive,
			Opens:               rh.opens,
		}
		if rh.failures > 0 {
			row.MeanFailureMs = rh.failMsSum / float64(rh.failures)
		}
		if rh.lastErr != nil {
			row.LastFailure = rh.lastErr.Error()
		}
		out = append(out, row)
	}
	h.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// culprits attributes a pair failure to the relays actually implicated, by
// the role of the circuit that failed (a *CircuitError from MeasurePair):
// C_x charges x, C_y charges y, and C_xy — or an error that names no
// circuit — charges both. The local relays w and z are never charged:
// checkPair keeps them out of every pair.
func culprits(x, y string, err error) []string {
	var ce *CircuitError
	if errors.As(err, &ce) {
		switch ce.Circuit {
		case "C_x":
			return []string{x}
		case "C_y":
			return []string{y}
		}
	}
	return []string{x, y}
}
