package ting

import (
	"cmp"
	"context"
	"errors"
	"slices"
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
	when  []int64 // last measurement by pairIndex, Unix ns; 0 if never
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
	n := m.N()
	return &Monitor{
		cfg:    cfg,
		matrix: m,
		when:   make([]int64, n*(n-1)/2),
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

// pairIndex is pair (i, j), i < j, of n relays in row-major upper-triangle
// order: the monitor's age column is indexed by it.
func pairIndex(n, i, j int) int { return i*(2*n-i-1)/2 + j - i - 1 }

// stalePairsLocked lists the pairs older than MaxAge, stalest first:
// never-measured pairs (age 0, stale whatever the cutoff, which a fake
// clock near Unix 0 makes negative) sort ahead, and pairs of one age keep
// their matrix order.
func (mon *Monitor) stalePairsLocked() [][2]int {
	cutoff := mon.cfg.now().Add(-mon.cfg.MaxAge).UnixNano()
	count := 0
	for _, at := range mon.when {
		if at == 0 || at < cutoff {
			count++
		}
	}
	stale := make([][2]int, 0, count)
	n, i, j := mon.matrix.N(), 0, 1
	for _, at := range mon.when {
		if at == 0 || at < cutoff {
			stale = append(stale, [2]int{i, j})
		}
		if j++; j == n {
			i, j = i+1, i+2
		}
	}
	slices.SortStableFunc(stale, func(a, b [2]int) int {
		return cmp.Compare(mon.when[pairIndex(n, a[0], a[1])], mon.when[pairIndex(n, b[0], b[1])])
	})
	return stale
}

// selectLocked lists the pairs one sweep will attempt from the stale ones
// (stalest first) and counts the stale ones: at most PairsPerSweep of them,
// stepping over — and counting — pairs the breaker scoreboard would refuse,
// so a dead relay's pairs (always the stalest) stay stale for a later sweep
// instead of consuming the budget. admits is each relay's admission by
// index, read once a sweep without claiming probe slots: Health.Allow is
// the scan engine's call, made when a pair is about to be measured. A relay
// due its half-open probe gets one pair, since only one attempt can be it.
// The kept pairs are a copy: the sweep holds them through its scan, and
// the stale list is 16 bytes for every stale pair, kept or not.
func (mon *Monitor) selectLocked(admits []admission) (todo [][2]int, stale, quarantined int) {
	todo = mon.stalePairsLocked()
	stale = len(todo)
	limit := mon.cfg.PairsPerSweep
	if limit <= 0 || limit > stale {
		limit = stale
	}
	kept := 0
	for _, p := range todo {
		if kept == limit {
			break
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
		todo[kept] = p
		kept++
	}
	return slices.Clone(todo[:kept]), stale, quarantined
}

// Sweep refreshes up to PairsPerSweep stale pairs and returns how many it
// measured. A sweep is a restricted, failure-tolerant pass of the scan
// engine (Scanner.run) over the selected pairs, so it inherits the engine's
// breaker deferral, half-circuit memoization and partial-result contract.
// Pairs are not retried within a sweep: a pair that failed stays stale,
// and the next sweep is its retry. Cancelling ctx stops the sweep
// cooperatively: in-flight pairs finish, what was measured is kept,
// unmeasured pairs stay stale, and ctx.Err() is returned. When pairs
// failed, the first failure (by pair name) is returned as the error. The
// count is returned with an error too: what was measured is kept.
func (mon *Monitor) Sweep(ctx context.Context) (int, error) {
	names := mon.matrix.Names()
	admits := make([]admission, len(names)) // admitFreely without a Health
	if h := mon.cfg.Health; h != nil {
		for i, name := range names {
			admits[i] = h.admission(name)
		}
	}
	mon.mu.Lock()
	todo, stale, quarantined := mon.selectLocked(admits)
	mon.stats.Sweeps++
	mon.stats.Skipped += len(mon.when) - stale
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
	m, failures, err := engine.runFresh(ctx, names, nil, todo)
	if m == nil {
		return 0, err
	}

	mon.mu.Lock()
	now := mon.cfg.now().UnixNano()
	measured := 0
	for _, p := range todo {
		if m.provAt(p[0], p[1]) != ProvFresh {
			continue
		}
		mon.matrix.write(p[0], p[1], m.at(p[0], p[1]), ProvFresh, 255)
		mon.when[pairIndex(len(names), p[0], p[1])] = now
		measured++
	}
	mon.stats.Measured += measured
	var firstFailure error
	for _, pe := range failures {
		if pe.Attempts == 0 {
			// Parked behind a breaker that opened mid-sweep and never
			// attempted: stepped over, like the pairs selectLocked skipped.
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
	if err == nil {
		err = firstFailure
	}
	return measured, err
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
