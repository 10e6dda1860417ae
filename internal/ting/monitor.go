package ting

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"
)

// Monitor keeps an all-pairs RTT matrix fresh over time. §4.6 shows Ting's
// measurements are stable for at least a week, so "taking measurements
// with Ting infrequently and caching them is sufficient" — the monitor
// embodies that workflow: it re-measures the stalest pairs on each sweep,
// spreading load instead of re-scanning everything at once. It owns the
// matrix, the measurement times and the selection of what is stale; the
// measuring itself is a pass of the scan engine (Scanner.run).
type MonitorConfig struct {
	// NewMeasurer builds one measurer per sweep worker. Required.
	NewMeasurer func(worker int) (*Measurer, error)
	// Names are the relays to track. Required, ≥ 2.
	Names []string
	// MaxAge is how old a pair measurement may grow before a sweep
	// refreshes it. Default 24h (well inside the week of §4.6).
	MaxAge time.Duration
	// PairsPerSweep bounds how many pairs one sweep refreshes (load
	// spreading). Default: all stale pairs.
	PairsPerSweep int
	// Workers is the sweep parallelism. Default 2.
	Workers int
	// Observer, if non-nil, receives a SweepDone callback after each sweep
	// with the cumulative stats.
	Observer *Observer
	// Health, if non-nil, is the relay scoreboard a sweep selects against:
	// pairs touching a quarantined relay are stepped over (they stay stale
	// and are reconsidered next time, when the breaker may have
	// half-opened). The selected pairs then pass the scan engine's breaker
	// gate, and their outcomes feed back into the same scoreboard. Share
	// the instance with a Scanner to carry reputation across both.
	Health *Health
	// now is injectable for tests.
	now func() time.Time
}

// Monitor is created by NewMonitor and driven by Sweep or Run.
type Monitor struct {
	cfg    MonitorConfig
	matrix *Matrix

	mu    sync.Mutex
	when  map[[2]int]time.Time // by index pair, smaller first
	stats MonitorStats
}

// MonitorStats counts monitor activity.
type MonitorStats struct {
	Sweeps      int
	Measured    int
	Skipped     int // fresh pairs left alone
	Failed      int // pair measurements that errored (stay stale, retried next sweep)
	Quarantined int // stale pairs skipped because a relay's breaker was open
	LastSweep   time.Time
}

// NewMonitor creates a monitor with an empty (all-stale) matrix.
func NewMonitor(cfg MonitorConfig) (*Monitor, error) {
	if cfg.NewMeasurer == nil {
		return nil, errors.New("ting: monitor missing NewMeasurer")
	}
	if cfg.MaxAge <= 0 {
		cfg.MaxAge = 24 * time.Hour
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	m, err := NewMatrix(cfg.Names)
	if err != nil {
		return nil, err
	}
	return &Monitor{
		cfg:    cfg,
		matrix: m,
		when:   make(map[[2]int]time.Time),
	}, nil
}

// Matrix returns a snapshot copy of the current matrix.
func (mon *Monitor) Matrix() *Matrix {
	mon.mu.Lock()
	defer mon.mu.Unlock()
	return mon.matrix.Clone()
}

// Stats returns a snapshot of monitor counters.
func (mon *Monitor) Stats() MonitorStats {
	mon.mu.Lock()
	defer mon.mu.Unlock()
	return mon.stats
}

// stalePairsLocked lists the pairs older than MaxAge, stalest first.
func (mon *Monitor) stalePairsLocked() [][2]int {
	type agedPair struct {
		pair [2]int
		at   time.Time // zero when never measured
	}
	now := mon.cfg.now()
	var stale []agedPair
	n := mon.matrix.N()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p := [2]int{i, j}
			t, ok := mon.when[p]
			if !ok || now.Sub(t) > mon.cfg.MaxAge {
				stale = append(stale, agedPair{p, t})
			}
		}
	}
	// Stalest first: never-measured pairs sort ahead, and pairs of one age
	// keep their matrix order.
	sort.SliceStable(stale, func(i, j int) bool { return stale[i].at.Before(stale[j].at) })
	out := make([][2]int, len(stale))
	for i, s := range stale {
		out[i] = s.pair
	}
	return out
}

// selectPairs picks the pairs one sweep will attempt from the stale ones
// (stalest first): at most PairsPerSweep of them, stepping over — and
// counting — pairs the breaker scoreboard would refuse, so a dead relay's
// pairs (always the stalest) stay stale for a later sweep instead of
// consuming the budget. Each relay is looked up once per sweep, and the
// look does not claim probe slots: Health.Allow is the scan engine's call,
// made when a pair is about to be measured. A relay due its half-open
// probe gets one pair, since only one attempt can be that probe.
func (mon *Monitor) selectPairs(stale [][2]int) (todo [][2]int, quarantined int) {
	limit := mon.cfg.PairsPerSweep
	if limit <= 0 || limit > len(stale) {
		limit = len(stale)
	}
	h := mon.cfg.Health
	if h == nil {
		return stale[:limit], 0
	}
	todo = make([][2]int, 0, limit)
	names := mon.matrix.Names()
	admits := make(map[int]admission)
	for _, p := range stale {
		if len(todo) >= limit {
			break
		}
		for _, relay := range p {
			if _, seen := admits[relay]; !seen {
				admits[relay] = h.admission(names[relay])
			}
		}
		if admits[p[0]] == admitNone || admits[p[1]] == admitNone {
			quarantined++
			continue
		}
		for _, relay := range p {
			if admits[relay] == admitProbe {
				admits[relay] = admitNone // this pair is its probe
			}
		}
		todo = append(todo, p)
	}
	return todo, quarantined
}

// Sweep refreshes up to PairsPerSweep stale pairs and returns how many it
// measured. A sweep is a restricted, failure-tolerant pass of the scan
// engine (Scanner.run) over the selected pairs, so it inherits the engine's
// breaker deferral, half-circuit memoization and partial-result contract.
// Pairs are not retried within a sweep: a pair that failed stays stale,
// and the next sweep is its retry. Cancelling ctx stops the sweep
// cooperatively: in-flight pairs finish, what was measured is kept,
// unmeasured pairs stay stale, and ctx.Err() is returned. When pairs
// failed, the first failure (by pair name) is returned as the error.
func (mon *Monitor) Sweep(ctx context.Context) (int, error) {
	mon.mu.Lock()
	stale := mon.stalePairsLocked()
	mon.mu.Unlock()
	todo, quarantined := mon.selectPairs(stale)

	mon.mu.Lock()
	total := mon.matrix.N() * (mon.matrix.N() - 1) / 2
	mon.stats.Sweeps++
	mon.stats.Skipped += total - len(todo) - quarantined
	mon.stats.Quarantined += quarantined
	mon.stats.LastSweep = mon.cfg.now()
	mon.mu.Unlock()

	if len(todo) == 0 {
		mon.cfg.Observer.sweepDone(mon.Stats())
		return 0, nil
	}
	engine := Scanner{
		NewMeasurer:  mon.cfg.NewMeasurer,
		Workers:      mon.cfg.Workers,
		Observer:     mon.cfg.Observer,
		Health:       mon.cfg.Health,
		SkipFailures: true,
	}
	m, failures, err := engine.runFresh(ctx, mon.matrix.Names(), nil, todo)
	if m == nil {
		return 0, err
	}

	mon.mu.Lock()
	now := mon.cfg.now()
	measured := 0
	for _, p := range todo {
		if m.provAt(p[0], p[1]) != ProvFresh {
			continue
		}
		mon.matrix.write(p[0], p[1], m.at(p[0], p[1]), ProvFresh, 255)
		mon.when[p] = now
		measured++
	}
	mon.stats.Measured += measured
	var firstFailure error
	for _, pe := range failures {
		if pe.Attempts == 0 {
			// Parked behind a breaker that opened mid-sweep and never
			// attempted: stepped over, like the pairs selectPairs skipped.
			mon.stats.Quarantined++
			continue
		}
		mon.stats.Failed++
		if firstFailure == nil {
			firstFailure = pe
		}
	}
	mon.mu.Unlock()
	mon.cfg.Observer.sweepDone(mon.Stats())
	if err != nil {
		return 0, err
	}
	if firstFailure != nil {
		return 0, firstFailure
	}
	return measured, nil
}

// Run sweeps until ctx ends, the first sweep at once and then one every
// interval (≤ 0 means 1s), and calls publish after each with the stats, the
// sweep's error, and a snapshot (Matrix) if the sweep measured anything or
// is the first, else nil: an unchanged matrix is not worth a new epoch. A
// sweep error does not stop the loop, so a dead relay cannot wedge the
// serving plane; a sweep ctx cut short is not published.
func (mon *Monitor) Run(ctx context.Context, interval time.Duration, publish func(m *Matrix, stats MonitorStats, err error)) {
	if interval <= 0 {
		interval = time.Second
	}
	lastMeasured := -1 // forces the first publish
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		_, err := mon.Sweep(ctx)
		if ctx.Err() != nil {
			return
		}
		stats := mon.Stats()
		var m *Matrix
		if stats.Measured != lastMeasured {
			lastMeasured = stats.Measured
			m = mon.Matrix()
		}
		publish(m, stats, err)
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}
