// Package faults is the deterministic fault-injection substrate for the
// measurement pipeline. The paper's deployability argument (§4.5, §4.6)
// rests on surviving the live Tor network's churn — relays crash
// mid-campaign, links stall and reset — but the loopback overlay is
// perfectly reliable, so failures must be injected. A Plan describes, under
// a single seed, which links misbehave (per-cell drop/stall/reset
// probabilities) and which relays crash or flap on a schedule; the link and
// dialer wrappers in this package apply it underneath the latency
// injectors, and tornet applies the relay schedules to running overlays.
//
// Determinism is the point: the same Plan seed yields the same per-link
// fault decisions in the same order, so a failing campaign can be replayed
// exactly — the substrate every robustness test builds on.
package faults

import (
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"ting/internal/telemetry"
)

// LinkFaults describes how one directed link misbehaves. The zero value is
// a perfectly healthy link.
type LinkFaults struct {
	// DropProb is the probability a sent cell is silently discarded.
	DropProb float64
	// StallProb is the probability a sent cell is delayed by Stall before
	// transmission (head-of-line: later cells wait behind it, as they would
	// behind a stalled TCP segment).
	StallProb float64
	// Stall is the extra delay a stalled cell experiences.
	Stall time.Duration
	// ResetAfter, if positive, resets the link on the Nth send, whatever
	// the probabilities: the link is torn down instead of transmitting, the
	// sender gets an error and both ends see closure.
	ResetAfter int
	// DialFailProb is the probability a dial to this link's target is
	// refused outright.
	DialFailProb float64
}

// active reports whether any fault is configured.
func (f LinkFaults) active() bool {
	return f.DropProb > 0 || f.StallProb > 0 || f.ResetAfter > 0 || f.DialFailProb > 0
}

// RelaySchedule describes when a relay fails or churns. The zero value
// never fails.
type RelaySchedule struct {
	// CrashAfter, if positive, kills the relay that long after Plan.Begin.
	// The crash is permanent.
	CrashAfter time.Duration
	// FlapPeriod and FlapDown model a flapping relay: each FlapPeriod-long
	// cycle starts with FlapDown of downtime during which dials to the
	// relay fail and its links reset on use. Both must be positive to take
	// effect, with FlapDown < FlapPeriod.
	FlapPeriod time.Duration
	FlapDown   time.Duration
	// JoinAfter, if positive, holds the relay out of the initial overlay
	// and consensus; it starts and publishes that long after Plan.Begin —
	// the scheduled half of consensus churn.
	JoinAfter time.Duration
	// DrainAfter, if positive, gracefully drains the relay that long after
	// Plan.Begin: it refuses new circuits, DESTROYs live ones, leaves the
	// consensus, then closes. Unlike CrashAfter, peers see an orderly
	// departure.
	DrainAfter time.Duration
}

// Wildcard matches any endpoint in a link fault rule.
const Wildcard = "*"

// Plan is a seeded fault schedule for a whole overlay.
type Plan struct {
	// Seed drives every probabilistic decision; per-link RNGs are derived
	// from it so decisions are independent across links but reproducible.
	Seed int64

	mu       sync.Mutex
	links    map[[2]string]LinkFaults
	relays   map[string]RelaySchedule
	crashed  map[string]bool
	dialRngs map[[2]string]*rand.Rand
	started  time.Time
	now      func() time.Time

	tm faultMetrics
}

// faultMetrics counts injected failures as they happen, so a scan's debug
// snapshot shows not just that pairs failed but why. Zero value (all nil
// counters) is the disabled state.
type faultMetrics struct {
	drops       *telemetry.Counter
	stalls      *telemetry.Counter
	resets      *telemetry.Counter
	dialRefused *telemetry.Counter
	crashes     *telemetry.Counter
}

// NewPlan creates an empty plan under the given seed.
func NewPlan(seed int64) *Plan {
	return &Plan{
		Seed:    seed,
		links:   make(map[[2]string]LinkFaults),
		relays:  make(map[string]RelaySchedule),
		crashed: make(map[string]bool),
		now:     time.Now,
	}
}

// SetTelemetry points the plan's fault counters (faults.drops,
// faults.stalls, faults.resets, faults.dial_refused, faults.crashes) at a
// registry. A nil registry disables them. Call before the overlay starts
// sending.
func (p *Plan) SetTelemetry(reg *telemetry.Registry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tm = faultMetrics{
		drops:       reg.Counter("faults.drops"),
		stalls:      reg.Counter("faults.stalls"),
		resets:      reg.Counter("faults.resets"),
		dialRefused: reg.Counter("faults.dial_refused"),
		crashes:     reg.Counter("faults.crashes"),
	}
}

// metrics returns the current counters under the plan lock.
func (p *Plan) metrics() faultMetrics {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tm
}

// SetLink installs a fault rule for the directed link from → to. Either
// endpoint may be Wildcard; the most specific rule wins on lookup
// ((from,to), then (*,to), then (from,*)); a link no rule matches is healthy.
func (p *Plan) SetLink(from, to string, f LinkFaults) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.links[[2]string{from, to}] = f
}

// SetRelay installs a crash/flap schedule for a relay.
func (p *Plan) SetRelay(name string, rs RelaySchedule) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.relays[name] = rs
}

// Relays returns the names with a non-zero schedule, for wiring timers.
func (p *Plan) Relays() map[string]RelaySchedule {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]RelaySchedule, len(p.relays))
	for k, v := range p.relays {
		out[k] = v
	}
	return out
}

// LinkFor resolves the fault rule for the directed link from → to.
func (p *Plan) LinkFor(from, to string) LinkFaults {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, key := range [][2]string{{from, to}, {Wildcard, to}, {from, Wildcard}} {
		if f, ok := p.links[key]; ok {
			return f
		}
	}
	return LinkFaults{}
}

// Begin starts the plan's clock; crash and flap schedules are relative to
// it. Calling Begin again restarts the clock.
func (p *Plan) Begin() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.now == nil {
		p.now = time.Now
	}
	p.started = p.now()
}

// Crash marks a relay down immediately and permanently — the manual,
// fully deterministic crash used by tests and by tornet's crash timers.
func (p *Plan) Crash(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.crashed == nil {
		p.crashed = make(map[string]bool)
	}
	p.crashed[name] = true
	p.tm.crashes.Inc()
}

// Down reports whether the relay is currently failed: crashed manually,
// past its CrashAfter, or inside a flap downtime window.
func (p *Plan) Down(name string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.crashed[name] {
		return true
	}
	rs, ok := p.relays[name]
	if !ok || p.started.IsZero() {
		return false
	}
	elapsed := p.now().Sub(p.started)
	if rs.CrashAfter > 0 && elapsed >= rs.CrashAfter {
		return true
	}
	if rs.FlapPeriod > 0 && rs.FlapDown > 0 && rs.FlapDown < rs.FlapPeriod {
		if elapsed%rs.FlapPeriod < rs.FlapDown {
			return true
		}
	}
	return false
}

// rngFor derives the seeded RNG for one directed link. The derivation
// hashes the endpoints so every link gets an independent but reproducible
// stream.
func (p *Plan) rngFor(from, to string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(from))
	h.Write([]byte{0})
	h.Write([]byte(to))
	return rand.New(rand.NewSource(p.Seed ^ int64(h.Sum64())))
}
