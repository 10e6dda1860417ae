package ting

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

// stalePairs is what the next Sweep would choose from.
func (mon *Monitor) stalePairs() [][2]int {
	mon.mu.Lock()
	defer mon.mu.Unlock()
	return mon.stalePairsLocked()
}

func monitorConfig(t *testing.T, f *fakeProber, names []string) MonitorConfig {
	t.Helper()
	return MonitorConfig{
		NewMeasurer: func(worker int) (*Measurer, error) {
			return NewMeasurer(Config{Prober: f, W: "w", Z: "z", Samples: 1})
		},
		Names: names,
	}
}

func TestMonitorSweepMeasuresAllWhenEmpty(t *testing.T) {
	f := newFakeWorld()
	mon, err := NewMonitor(monitorConfig(t, f, []string{"x", "y"}))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(mon.stalePairs()); got != 1 {
		t.Fatalf("stale pairs = %d, want 1", got)
	}
	n, err := mon.Sweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("swept %d pairs", n)
	}
	v, err := mon.Matrix().RTT("x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if v != 73 { // the fake world's exact Eq. (4) result
		t.Errorf("monitored RTT = %v, want 73", v)
	}
	st := mon.Stats()
	if st.Sweeps != 1 || st.Measured != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestMonitorSkipsFreshPairs(t *testing.T) {
	f := newFakeWorld()
	cfg := monitorConfig(t, f, []string{"x", "y"})
	now := time.Unix(1000, 0)
	cfg.now = func() time.Time { return now }
	cfg.MaxAge = time.Hour
	mon, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mon.Sweep(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Still fresh: nothing to do.
	n, err := mon.Sweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("second sweep measured %d pairs, want 0", n)
	}
	// Age past MaxAge: stale again.
	now = now.Add(2 * time.Hour)
	n, err = mon.Sweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("post-expiry sweep measured %d pairs, want 1", n)
	}
}

func TestMonitorPairsPerSweepSpreadsLoad(t *testing.T) {
	f := newFakeWorld()
	// Add a third measurable relay to the fake world.
	f.fwd["v"] = 0.5
	for _, peer := range []string{"h", "w", "z"} {
		f.rtt[[2]string{peer, "v"}] = 30
	}
	f.rtt[[2]string{"x", "v"}] = 35
	f.rtt[[2]string{"y", "v"}] = 45

	cfg := monitorConfig(t, f, []string{"x", "y", "v"})
	cfg.PairsPerSweep = 1
	now := time.Unix(0, 0)
	cfg.now = func() time.Time { now = now.Add(time.Minute); return now }
	mon, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for sweep := 1; sweep <= 3; sweep++ {
		n, err := mon.Sweep(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if n != 1 {
			t.Fatalf("sweep %d measured %d pairs, want 1", sweep, n)
		}
	}
	if got := len(mon.stalePairs()); got != 0 {
		t.Errorf("%d pairs still stale after 3 single-pair sweeps", got)
	}
	// All three values present.
	m := mon.Matrix()
	for _, p := range [][2]string{{"x", "y"}, {"x", "v"}, {"y", "v"}} {
		v, err := m.RTT(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		if v <= 0 {
			t.Errorf("pair %v unmeasured", p)
		}
	}
}

func TestMonitorStalestFirst(t *testing.T) {
	f := newFakeWorld()
	f.fwd["v"] = 0.5
	for _, peer := range []string{"h", "w", "z", "x", "y"} {
		f.rtt[[2]string{peer, "v"}] = 25
	}
	cfg := monitorConfig(t, f, []string{"x", "y", "v"})
	cfg.PairsPerSweep = 1
	now := time.Unix(0, 0)
	cfg.now = func() time.Time { now = now.Add(time.Hour); return now }
	cfg.MaxAge = time.Nanosecond // everything immediately stale
	mon, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Three sweeps must cycle through all three pairs (stalest first means
	// never-measured pairs before re-measured ones).
	seen := map[[2]int]int{}
	for i := 0; i < 3; i++ {
		before := mon.Stats().Measured
		if _, err := mon.Sweep(context.Background()); err != nil {
			t.Fatal(err)
		}
		if mon.Stats().Measured != before+1 {
			t.Fatal("sweep did not measure exactly one pair")
		}
		for _, p := range mon.stalePairs() {
			seen[p]++
		}
	}
	m := mon.Matrix()
	measured := 0
	for _, p := range [][2]string{{"x", "y"}, {"x", "v"}, {"y", "v"}} {
		if v, _ := m.RTT(p[0], p[1]); v > 0 {
			measured++
		}
	}
	if measured != 3 {
		t.Errorf("round-robin broke: %d of 3 pairs measured", measured)
	}
}

func TestMonitorValidation(t *testing.T) {
	if _, err := NewMonitor(MonitorConfig{Names: []string{"a", "b"}}); err == nil {
		t.Error("missing NewMeasurer accepted")
	}
	f := newFakeWorld()
	if _, err := NewMonitor(monitorConfig(t, f, []string{"only"})); err == nil {
		t.Error("1-name monitor accepted")
	}
}

func TestMonitorPropagatesErrors(t *testing.T) {
	f := newFakeWorld()
	f.errs["x"] = errors.New("x offline")
	mon, err := NewMonitor(monitorConfig(t, f, []string{"x", "y"}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mon.Sweep(context.Background()); err == nil {
		t.Error("sweep error swallowed")
	}
}

// TestMonitorSkipsQuarantinedRelays: a sweep consults the shared health
// scoreboard — pairs touching an open breaker stay stale instead of burning
// the sweep budget, and outcomes feed the scoreboard back.
func TestMonitorSkipsQuarantinedRelays(t *testing.T) {
	f := bigFakeWorld()
	h := NewHealth(HealthConfig{FailureThreshold: 2, Cooldown: time.Hour})
	// x's breaker is already open, e.g. from a scanner sharing the board.
	h.Failure("x", errors.New("x is down"), time.Millisecond)
	h.Failure("x", errors.New("x is down"), time.Millisecond)
	if h.state("x") != BreakerOpen {
		t.Fatal("setup: x's breaker not open")
	}
	cfg := monitorConfig(t, f, []string{"x", "y", "u", "v"})
	cfg.Health = h
	mon, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := mon.Sweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("swept %d pairs, want the 3 not touching x", n)
	}
	st := mon.Stats()
	if st.Measured != 3 || st.Quarantined != 3 || st.Failed != 0 {
		t.Errorf("stats = %+v, want 3 measured, 3 quarantined, 0 failed", st)
	}
	// x's pairs are still stale — the monitor will retry them once the
	// breaker half-opens.
	if got := len(mon.stalePairs()); got != 3 {
		t.Errorf("%d stale pairs after sweep, want x's 3", got)
	}
	// Sweep successes were credited to the healthy relays.
	for _, r := range h.Snapshot() {
		if r.Name != "x" && r.Successes == 0 {
			t.Errorf("relay %s got no success credit", r.Name)
		}
	}
}

// TestMonitorFailuresFeedHealth: sweep failures open the breaker for the
// implicated relay, and the next sweep quarantines it.
func TestMonitorFailuresFeedHealth(t *testing.T) {
	f := bigFakeWorld()
	f.errs["x"] = errors.New("x offline")
	h := NewHealth(HealthConfig{FailureThreshold: 3, Cooldown: time.Hour})
	cfg := monitorConfig(t, f, []string{"x", "y", "u", "v"})
	cfg.Health = h
	cfg.Workers = 1
	mon, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// First sweep: x's three pairs fail (charging x three times → open),
	// the other three measure.
	if _, err := mon.Sweep(context.Background()); err == nil {
		t.Fatal("sweep with failing relay reported no error")
	}
	if got := h.state("x"); got != BreakerOpen {
		t.Fatalf("x's breaker = %v after failed sweep, want open", got)
	}
	if got := h.state("y"); got != BreakerClosed {
		t.Errorf("bystander y's breaker = %v", got)
	}
	st := mon.Stats()
	if st.Failed != 3 || st.Measured != 3 {
		t.Fatalf("stats = %+v, want 3 failed, 3 measured", st)
	}
	// Second sweep: the stale x-pairs are quarantined, nothing fails, no
	// error surfaces.
	n, err := mon.Sweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("quarantined sweep measured %d pairs", n)
	}
	st = mon.Stats()
	if st.Failed != 3 || st.Quarantined != 3 {
		t.Errorf("stats after quarantined sweep = %+v", st)
	}
}

// breakerWatcher records x's breaker position each time a full circuit
// through x is sampled, i.e. once per attempted x pair.
type breakerWatcher struct {
	*fakeProber
	h *Health

	mu     sync.Mutex
	states []BreakerState
}

func (p *breakerWatcher) SampleCircuit(ctx context.Context, path []string, n int) ([]float64, error) {
	if len(path) == 4 && (path[1] == "x" || path[2] == "x") {
		p.mu.Lock()
		p.states = append(p.states, p.h.state("x"))
		p.mu.Unlock()
	}
	return p.fakeProber.SampleCircuit(ctx, path, n)
}

// TestMonitorHalfOpenProbe: x's breaker is open and past its cooldown, and
// x has recovered. Exactly one x pair is attempted while the breaker is
// half-open — the probe; claiming the slot twice for one pair would
// quarantine it forever — its success closes the breaker, the rest of x's
// pairs follow in this sweep or the next, and Quarantined counts exactly
// the x pairs a sweep stepped over.
func TestMonitorHalfOpenProbe(t *testing.T) {
	now := time.Unix(1000, 0)
	h := NewHealth(HealthConfig{FailureThreshold: 2, Cooldown: time.Hour, now: func() time.Time { return now }})
	h.Failure("x", errors.New("x is down"), time.Millisecond)
	h.Failure("x", errors.New("x is down"), time.Millisecond)
	if h.state("x") != BreakerOpen {
		t.Fatal("setup: x's breaker not open")
	}
	now = now.Add(2 * time.Hour)

	p := &breakerWatcher{fakeProber: bigFakeWorld(), h: h}
	names := []string{"x", "y", "u", "v"}
	cfg := MonitorConfig{
		NewMeasurer: func(worker int) (*Measurer, error) {
			return NewMeasurer(Config{Prober: p, W: "w", Z: "z", Samples: 1})
		},
		Names:  names,
		Health: h,
	}
	mon, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mon.Sweep(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := h.state("x"); got != BreakerClosed {
		t.Fatalf("x's breaker = %v after the probe succeeded, want closed", got)
	}
	steppedOver := len(mon.stalePairs())
	st := mon.Stats()
	if st.Quarantined != steppedOver || st.Measured != 6-steppedOver || st.Failed != 0 {
		t.Errorf("stats after sweep 1 = %+v with %d pairs still stale", st, steppedOver)
	}
	if steppedOver > 2 {
		t.Errorf("%d pairs stepped over; at least one x pair must have been the probe", steppedOver)
	}
	if _, err := mon.Sweep(context.Background()); err != nil {
		t.Fatal(err)
	}
	if stale := mon.stalePairs(); len(stale) != 0 {
		t.Errorf("pairs still stale after the breaker closed: %v", stale)
	}
	if st := mon.Stats(); st.Quarantined != steppedOver || st.Measured != 6 || st.Failed != 0 {
		t.Errorf("stats after sweep 2 = %+v, want %d quarantined, 6 measured", st, steppedOver)
	}
	halfOpen := 0
	for _, s := range p.states {
		switch s {
		case BreakerHalfOpen:
			halfOpen++
		case BreakerOpen:
			t.Error("an x pair was attempted behind an open breaker")
		}
	}
	if len(p.states) != 3 || halfOpen != 1 {
		t.Errorf("x pairs attempted under breaker states %v, want 3 attempts, exactly one half-open", p.states)
	}
}

// TestMonitorStalePairsOrder pins StalePairs against a naive oracle on a
// relay set large enough that a quadratic sort would be felt: never
// measured pairs first, then oldest first, ties in matrix order, fresh
// pairs absent.
func TestMonitorStalePairsOrder(t *testing.T) {
	const n = 200
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("r%03d", i)
	}
	now := time.Unix(1_000_000, 0)
	cfg := MonitorConfig{
		NewMeasurer: func(int) (*Measurer, error) { return nil, errors.New("unused") },
		Names:       names,
		MaxAge:      time.Hour,
		now:         func() time.Time { return now },
	}
	mon, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A third of the pairs never measured, a third aged past MaxAge with
	// few distinct ages (so ties matter), a third fresh.
	rng := rand.New(rand.NewSource(7))
	type aged struct {
		pair [2]int
		at   time.Time
	}
	var want []aged
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p := [2]int{i, j}
			switch rng.Intn(3) {
			case 0:
				want = append(want, aged{pair: p})
			case 1:
				at := now.Add(-time.Duration(2+rng.Intn(5)) * time.Hour)
				mon.when[pairIndex(n, i, j)] = at.UnixNano()
				want = append(want, aged{p, at})
			case 2:
				mon.when[pairIndex(n, i, j)] = now.Add(-time.Duration(rng.Intn(59)) * time.Minute).UnixNano()
			}
		}
	}
	// The oracle: repeatedly take the first pair of the minimum age.
	ages := map[time.Time]bool{}
	for _, a := range want {
		ages[a.at] = true
	}
	var order []time.Time
	for at := range ages {
		order = append(order, at)
	}
	sort.Slice(order, func(i, j int) bool { return order[i].Before(order[j]) })
	var oracle [][2]int
	for _, at := range order {
		for _, a := range want {
			if a.at.Equal(at) {
				oracle = append(oracle, a.pair)
			}
		}
	}
	got := mon.stalePairs()
	if len(got) != len(oracle) {
		t.Fatalf("%d stale pairs, oracle has %d", len(got), len(oracle))
	}
	for i := range got {
		if got[i] != oracle[i] {
			t.Fatalf("stale pair %d = %v, oracle says %v", i, got[i], oracle[i])
		}
	}
}

// TestMonitorSkippedCountsFreshOnly: Skipped counts the pairs a sweep found
// fresh, not the stale pairs PairsPerSweep left for a later sweep.
func TestMonitorSkippedCountsFreshOnly(t *testing.T) {
	cfg := monitorConfig(t, bigFakeWorld(), []string{"x", "y", "u", "v"})
	cfg.PairsPerSweep = 2
	mon, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for sweep, wantSkipped := range []int{0, 2, 6} {
		if _, err := mon.Sweep(context.Background()); err != nil {
			t.Fatal(err)
		}
		if st := mon.Stats(); st.Skipped != wantSkipped || st.Measured != 2*(sweep+1) {
			t.Fatalf("stats after sweep %d = %+v, want %d skipped, %d measured", sweep+1, st, wantSkipped, 2*(sweep+1))
		}
	}
}

// TestMonitorSweepCountsWithError: a sweep in which a pair failed still
// returns how many pairs it measured, beside the failure.
func TestMonitorSweepCountsWithError(t *testing.T) {
	f := bigFakeWorld()
	f.errs["x"] = errors.New("x offline")
	mon, err := NewMonitor(monitorConfig(t, f, []string{"x", "u", "v"}))
	if err != nil {
		t.Fatal(err)
	}
	n, err := mon.Sweep(context.Background())
	if err == nil || n != 1 {
		t.Fatalf("Sweep = %d, %v; want 1 and x's failure", n, err)
	}
	if v, _ := mon.Matrix().RTT("u", "v"); v <= 0 {
		t.Error("the measured pair is missing from the matrix")
	}
}

// TestMonitorSweepAllocs pins what a sweep's selection costs beside the
// pairs it measures: a 100-pair sweep of a 400-relay monitor with a Health,
// every pair stale, through a prober that allocates nothing. The stale list
// (16 bytes a stale pair) is most of it. With the ages in a map, an aged
// copy of the list and a per-sweep admission map it took 239 bytes per pair
// of the relay set; it takes about 18.7 under a ceiling of 22.
func TestMonitorSweepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const runs = 5
	names, sc := nullScan(400)
	now := time.Unix(1_000_000, 0)
	mon, err := NewMonitor(MonitorConfig{
		NewMeasurer:   sc.NewMeasurer,
		Names:         names,
		MaxAge:        time.Nanosecond,
		PairsPerSweep: 100,
		Health:        NewHealth(HealthConfig{}),
		now:           func() time.Time { now = now.Add(time.Hour); return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	sweep := func() {
		if n, err := mon.Sweep(context.Background()); err != nil || n != 100 {
			t.Fatalf("Sweep = %d, %v; want 100 measured", n, err)
		}
	}
	sweep() // warm: the matrix's tiles, the pools, the runtime's first use
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		sweep()
	}
	runtime.ReadMemStats(&after)
	pairs := len(names) * (len(names) - 1) / 2
	perPair := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(pairs)
	t.Logf("%.1f bytes a sweep per pair of the relay set", perPair)
	if perPair > 22 {
		t.Errorf("%.1f bytes a sweep per pair of the relay set, want ≤ 22", perPair)
	}
}

// TestMonitorSweepDropsStaleList: a sweep holds the pairs it kept through
// its scan, not the stale list it chose them from, 16 bytes for every stale
// pair (8 MB on a first sweep of 1000 relays). The live heap is read as the
// sweep builds its first measurer, after the selection, and may grow by no
// more than 1 MB over the live heap before the sweep.
func TestMonitorSweepDropsStaleList(t *testing.T) {
	names, sc := nullScan(1000)
	liveHeap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	var during int64
	mon, err := NewMonitor(MonitorConfig{
		NewMeasurer: func(w int) (*Measurer, error) {
			if w == 0 {
				during = liveHeap()
			}
			return sc.NewMeasurer(w)
		},
		Names:         names,
		PairsPerSweep: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := liveHeap()
	if n, err := mon.Sweep(t.Context()); err != nil || n != 100 {
		t.Fatalf("Sweep = %d, %v; want 100 measured", n, err)
	}
	if grown := during - before; grown >= 1<<20 {
		t.Errorf("the live heap grew by %d bytes from before the sweep to its scan, want < 1 MB", grown)
	}
}
