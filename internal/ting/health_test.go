package ting

import (
	"context"
	"errors"
	"testing"
	"time"
)

// testHealth builds a scoreboard on a manual clock the test advances.
// state returns the relay's breaker position (closed for unknown relays).
func (h *Health) state(name string) BreakerState {
	h.mu.Lock()
	defer h.mu.Unlock()
	if rh := h.relays[name]; rh != nil {
		return rh.state
	}
	return BreakerClosed
}

func testHealth(threshold int, cooldown time.Duration) (*Health, *time.Time) {
	now := time.Unix(1000, 0)
	h := NewHealth(HealthConfig{
		FailureThreshold: threshold,
		Cooldown:         cooldown,
		now:              func() time.Time { return now },
	})
	return h, &now
}

func TestBreakerOpensAfterThreshold(t *testing.T) {
	h, _ := testHealth(3, time.Minute)
	boom := errors.New("dial refused")
	for i := 0; i < 2; i++ {
		h.Failure("x", boom, 5*time.Millisecond)
		if got := h.state("x"); got != BreakerClosed {
			t.Fatalf("state after %d failures = %v, want closed", i+1, got)
		}
		if qe := h.Allow("x"); qe != nil {
			t.Fatalf("closed breaker blocked: %v", qe)
		}
	}
	h.Failure("x", boom, 5*time.Millisecond)
	if got := h.state("x"); got != BreakerOpen {
		t.Fatalf("state after threshold = %v, want open", got)
	}
	qe := h.Allow("x", "y")
	if qe == nil {
		t.Fatal("open breaker allowed a measurement")
	}
	if qe.Relay != "x" {
		t.Errorf("blocking relay = %q", qe.Relay)
	}
	if !errors.Is(qe, ErrQuarantined) {
		t.Error("QuarantineError does not match ErrQuarantined")
	}
	if !errors.Is(qe, boom) {
		t.Error("QuarantineError does not unwrap to the opening failure")
	}
	// The healthy relay is unaffected.
	if got := h.state("y"); got != BreakerClosed {
		t.Errorf("bystander state = %v", got)
	}
}

func TestBreakerSuccessResetsConsecutive(t *testing.T) {
	h, _ := testHealth(2, time.Minute)
	err := errors.New("flap")
	h.Failure("x", err, time.Millisecond)
	h.Success("x")
	h.Failure("x", err, time.Millisecond)
	if got := h.state("x"); got != BreakerClosed {
		t.Errorf("interleaved successes still opened the breaker: %v", got)
	}
	h.Failure("x", err, time.Millisecond)
	if got := h.state("x"); got != BreakerOpen {
		t.Errorf("two consecutive failures did not open: %v", got)
	}
}

func TestBreakerHalfOpenProbeLifecycle(t *testing.T) {
	h, now := testHealth(1, 30*time.Second)
	h.Failure("x", errors.New("down"), time.Millisecond)
	if qe := h.Allow("x"); qe == nil {
		t.Fatal("open breaker allowed before cooldown")
	}

	// Cooldown elapses: exactly one probe goes through, the next caller is
	// still blocked while the probe is in flight.
	*now = now.Add(31 * time.Second)
	if qe := h.Allow("x"); qe != nil {
		t.Fatalf("cooldown elapsed but probe blocked: %v", qe)
	}
	if got := h.state("x"); got != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", got)
	}
	if qe := h.Allow("x"); qe == nil {
		t.Fatal("second concurrent probe allowed")
	}

	// Probe success closes the breaker for good.
	h.Success("x")
	if got := h.state("x"); got != BreakerClosed {
		t.Fatalf("state after probe success = %v", got)
	}
	if qe := h.Allow("x"); qe != nil {
		t.Fatalf("closed breaker blocked: %v", qe)
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	h, now := testHealth(1, 30*time.Second)
	h.Failure("x", errors.New("down"), time.Millisecond)
	*now = now.Add(31 * time.Second)
	if qe := h.Allow("x"); qe != nil {
		t.Fatal(qe)
	}
	h.Failure("x", errors.New("still down"), time.Millisecond)
	if got := h.state("x"); got != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	if qe := h.Allow("x"); qe == nil {
		t.Fatal("reopened breaker allowed immediately")
	}
	// A second cooldown earns a second probe.
	*now = now.Add(31 * time.Second)
	if qe := h.Allow("x"); qe != nil {
		t.Fatalf("second cooldown did not half-open: %v", qe)
	}
}

func TestBreakerAbandonedProbeForfeitsSlot(t *testing.T) {
	h, now := testHealth(1, 30*time.Second)
	h.Failure("x", errors.New("down"), time.Millisecond)
	*now = now.Add(31 * time.Second)
	if qe := h.Allow("x"); qe != nil {
		t.Fatal(qe)
	}
	// The prober never reports (cancelled sweep). Its slot expires after
	// another cooldown so the relay is not stuck half-open forever.
	*now = now.Add(31 * time.Second)
	if qe := h.Allow("x"); qe != nil {
		t.Fatalf("stale probe slot never expired: %v", qe)
	}
}

// TestAllowPairCommitsProbesAtomically: a pair blocked by its second relay
// must not burn the first relay's half-open probe slot.
func TestAllowPairCommitsProbesAtomically(t *testing.T) {
	h, now := testHealth(1, 30*time.Second)
	h.Failure("a", errors.New("down"), time.Millisecond)
	// a's cooldown elapses before b even opens, so Allow sees a as a probe
	// candidate and b as freshly blocked.
	*now = now.Add(31 * time.Second)
	h.Failure("b", errors.New("down"), time.Millisecond)
	qe := h.Allow("a", "b")
	if qe == nil || qe.Relay != "b" {
		t.Fatalf("Allow = %v, want blocked by b", qe)
	}
	// a must still be plain open with its probe slot intact, not half-open
	// with a burned probe.
	if got := h.state("a"); got != BreakerOpen {
		t.Fatalf("a's state = %v after blocked pair, want open", got)
	}
	if qe := h.Allow("a"); qe != nil {
		t.Fatalf("a's probe slot was burned: %v", qe)
	}
}

func TestHealthSnapshot(t *testing.T) {
	h, _ := testHealth(2, time.Minute)
	h.Success("b")
	h.Failure("a", errors.New("timeout"), 100*time.Millisecond)
	h.Failure("a", errors.New("timeout"), 300*time.Millisecond)
	rows := h.Snapshot()
	if len(rows) != 2 || rows[0].Name != "a" || rows[1].Name != "b" {
		t.Fatalf("rows = %+v, want a then b", rows)
	}
	a := rows[0]
	if a.State != BreakerOpen || a.Failures != 2 || a.ConsecutiveFailures != 2 || a.Opens != 1 {
		t.Errorf("a's row = %+v", a)
	}
	if a.MeanFailureMs != 200 {
		t.Errorf("MeanFailureMs = %v, want 200", a.MeanFailureMs)
	}
	if a.LastFailure != "timeout" {
		t.Errorf("LastFailure = %q", a.LastFailure)
	}
	if rows[1].Successes != 1 || rows[1].State != BreakerClosed {
		t.Errorf("b's row = %+v", rows[1])
	}
}

func TestBreakerObserverSeesTransitions(t *testing.T) {
	var transitions []string
	obs := &Observer{BreakerChange: func(relay string, from, to BreakerState) {
		transitions = append(transitions, relay+":"+from.String()+">"+to.String())
	}}
	now := time.Unix(0, 0)
	h := NewHealth(HealthConfig{FailureThreshold: 1, Cooldown: time.Second, Observer: obs,
		now: func() time.Time { return now }})
	h.Failure("x", errors.New("down"), 0)
	now = now.Add(2 * time.Second)
	h.Allow("x")
	h.Success("x")
	want := []string{"x:closed>open", "x:open>half-open", "x:half-open>closed"}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Errorf("transition %d = %q, want %q", i, transitions[i], want[i])
		}
	}
}

func TestCulpritsAttribution(t *testing.T) {
	cx := &CircuitError{Circuit: "C_x", Err: errors.New("boom")}
	if got := culprits("x", "y", cx); len(got) != 1 || got[0] != "x" {
		t.Errorf("C_x culprits = %v, want [x]", got)
	}
	cy := &CircuitError{Circuit: "C_y", Err: errors.New("boom")}
	if got := culprits("x", "y", cy); len(got) != 1 || got[0] != "y" {
		t.Errorf("C_y culprits = %v, want [y]", got)
	}
	cxy := &CircuitError{Circuit: "C_xy", Err: errors.New("boom")}
	if got := culprits("x", "y", cxy); len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Errorf("C_xy culprits = %v, want [x y]", got)
	}
	if got := culprits("x", "y", errors.New("opaque")); len(got) != 2 {
		t.Errorf("opaque-error culprits = %v, want both endpoints", got)
	}
	if got := culprits("x", "y", context.Canceled); len(got) != 2 {
		t.Errorf("cancel culprits = %v", got)
	}
}

func TestMeasurePairReturnsTypedCircuitError(t *testing.T) {
	f := newFakeWorld()
	f.errs["y"] = errors.New("y vanished")
	m, err := NewMeasurer(Config{Prober: f, W: "w", Z: "z", Samples: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.MeasurePair(context.Background(), "x", "y")
	var ce *CircuitError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %T %v, want *CircuitError", err, err)
	}
	// y first breaks the full circuit (C_x only touches x).
	if ce.Circuit != "C_xy" {
		t.Errorf("Circuit = %q", ce.Circuit)
	}
	if want := "ting: C_xy: y vanished"; ce.Error() != want {
		t.Errorf("Error() = %q, want %q", ce.Error(), want)
	}
}
