package stats

import (
	"math/rand"
	"testing"
	"time"
)

func TestBackoffGrowthAndCap(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: 50 * time.Millisecond}
	want := []time.Duration{
		0, // attempt 0: no wait
		10 * time.Millisecond,
		20 * time.Millisecond,
		40 * time.Millisecond,
		50 * time.Millisecond, // capped
		50 * time.Millisecond,
	}
	for attempt, w := range want {
		if got := b.Delay(attempt, nil); got != w {
			t.Errorf("Delay(%d) = %v, want %v", attempt, got, w)
		}
	}
}

func TestBackoffZeroBaseDisables(t *testing.T) {
	var b Backoff
	if got := b.Delay(3, rand.New(rand.NewSource(1))); got != 0 {
		t.Errorf("zero-base delay = %v, want 0", got)
	}
}

func TestBackoffJitterBoundedAndSeeded(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 100; i++ {
		d := b.Delay(1, rng)
		if d < 50*time.Millisecond || d > 150*time.Millisecond {
			t.Fatalf("jittered delay %v outside [50ms, 150ms]", d)
		}
	}
	// Same seed → same schedule.
	a := rand.New(rand.NewSource(7))
	c := rand.New(rand.NewSource(7))
	for attempt := 1; attempt <= 5; attempt++ {
		if b.Delay(attempt, a) != b.Delay(attempt, c) {
			t.Fatal("seeded backoff schedule not reproducible")
		}
	}
}

// TestBackoffSeededSchedule pins a seeded retry schedule bit for bit —
// doubling from 100ms, capped at 5s, ±50% jitter, seed 42 — so a replayed
// fault campaign waits exactly as the recorded one did.
func TestBackoffSeededSchedule(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: 5 * time.Second}
	rng := rand.New(rand.NewSource(42))
	want := []time.Duration{87302836, 113200099, 441637540, 567054962, 870109533, 2826218559, 6564385679, 4422229249}
	for i, w := range want {
		if got := b.Delay(i+1, rng); got != w {
			t.Errorf("Delay(%d) = %d, want %d", i+1, got, w)
		}
	}
}
