package ting

import (
	"context"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// HalfCache memoizes half-circuit measurements — min R_Cx for circuits of
// the form (w, x) — with singleflight semantics. It is the scanner-side
// embodiment of the paper's own optimization (§3.3, §4.6): min R_Cx depends
// only on x, so an N-node all-pairs campaign needs N half-circuit series,
// not one per pair per side. Without it, every MeasurePair re-samples C_x
// and C_y, tripling the sample budget of a scan.
//
// Entries are keyed by the full circuit path plus the sample count, so a
// cross-scan handle shared between campaigns with different local relays or
// sample budgets never conflates incompatible series. An entry stops
// answering once it is older than the cache's ttl and the next Do measures
// the series again; ttl ≤ 0 means entries never expire (§4.6 says a week of
// stability, so "measure once, cache for the campaign" is sound).
//
// Singleflight: when two workers need the same half circuit concurrently,
// one measures and the others wait for its series instead of duplicating
// the 200 samples. A waiter whose leader fails takes over and measures with
// its own prober (the leader's failure may be its prober's, not the
// relay's), so transient errors do not poison the cache — errors are never
// stored.
//
// A scan's Measurer keeps a private memo in front of the cache (halfMemo,
// measure.go): minima by relay index, filled through Do, so the all-pairs
// steady state takes no lock and builds no key. gen is how the memos learn
// that an answer they hold may no longer be the cache's: Seed and
// InvalidateRelay bump it, and a memo that sees it move forgets everything
// and asks Do again.
type HalfCache struct {
	ttl time.Duration
	now func() time.Time
	gen atomic.Uint64

	mu      sync.Mutex
	entries map[string]halfEntry
	flights map[string]*halfFlight
	onStore func(path []string, samples int, min float64)
}

type halfEntry struct {
	path []string // the cache's own copy; InvalidateRelay looks through it
	min  float64
	when time.Time
}

// halfFlight is one in-progress measurement; min and err are written
// exactly once before done is closed.
type halfFlight struct {
	done chan struct{}
	path []string // the cache's own copy, as an entry's
	min  float64
	when time.Time
	err  error
}

// NewHalfCache creates a half-circuit cache whose entries expire after
// ttl. A ttl ≤ 0 means entries never expire.
func NewHalfCache(ttl time.Duration) *HalfCache {
	return &HalfCache{
		ttl:     ttl,
		now:     time.Now,
		entries: make(map[string]halfEntry, 64),
		flights: make(map[string]*halfFlight, 8),
	}
}

// scanCaches holds the *HalfCache of scans that owned theirs, emptied: a
// campaign worker scans one lease after another, and each lease's cache
// then reuses the last one's map buckets instead of growing its own.
var scanCaches = sync.Pool{New: func() any { return NewHalfCache(0) }}

// ownedHalfCache takes an empty cache for a scan to own.
func ownedHalfCache() *HalfCache { return scanCaches.Get().(*HalfCache) }

// releaseHalfCache empties a cache a scan owned and returns it to the pool.
// The scan's workers have all exited, so nothing measures through it any
// more; clearing the store hook here is what keeps a finished scan's
// checkpoint from hearing the next scan's series. The generation moves, so
// a memo filled against the old entries trusts none of them.
func releaseHalfCache(c *HalfCache) {
	c.mu.Lock()
	clear(c.entries)
	clear(c.flights)
	c.onStore = nil
	c.ttl = 0
	c.now = time.Now
	c.mu.Unlock()
	c.gen.Add(1)
	scanCaches.Put(c)
}

// halfKey identifies one half-circuit series: the exact path plus the
// sample count it was measured with.
func halfKey(path []string, samples int) string {
	return string(halfKeyInto(nil, path, samples))
}

// halfKeyInto appends the same key to a caller-owned buffer. Do builds its
// key on the stack and looks it up via map[string(buf)] — which the
// compiler performs without materializing the string — so cache hits, the
// all-pairs steady state, allocate nothing.
func halfKeyInto(buf []byte, path []string, samples int) []byte {
	for i, hop := range path {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, hop...)
	}
	buf = append(buf, '#')
	return strconv.AppendInt(buf, int64(samples), 10)
}

// Seed installs a series without measuring — checkpoint replay. The entry
// is stored as freshly measured and does not fire the store hook (it is
// already in the log it came from).
func (c *HalfCache) Seed(path []string, samples int, min float64) {
	c.mu.Lock()
	c.entries[halfKey(path, samples)] = halfEntry{path: clonePath(path), min: min, when: c.now()}
	c.gen.Add(1)
	c.mu.Unlock()
}

// SetStoreHook registers fn to run after each freshly measured series is
// stored — the scanner's checkpoint append hook. A nil fn unregisters.
// The hook runs outside the cache lock and must be safe for concurrent
// calls from scanner workers.
func (c *HalfCache) SetStoreHook(fn func(path []string, samples int, min float64)) {
	c.mu.Lock()
	c.onStore = fn
	c.mu.Unlock()
}

// InvalidateRelay drops every memoized series whose path contains the
// named relay and returns how many were dropped — churn invalidation: a
// rotated key means new crypto (and possibly a new host) behind the same
// nickname, so its cached minima no longer describe the relay. In-flight
// measurements through the relay are dropped too: each finishes and
// answers the callers already waiting on it, but a flight no longer in the
// map stores nothing and fires no hook, and the next Do measures the new
// identity.
func (c *HalfCache) InvalidateRelay(name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for key, e := range c.entries {
		if slices.Contains(e.path, name) {
			delete(c.entries, key)
			dropped++
		}
	}
	for key, f := range c.flights {
		if slices.Contains(f.path, name) {
			delete(c.flights, key)
		}
	}
	// Bumped under the lock, after the deletes: a memo that reads the new
	// generation and asks Do finds the entry gone.
	c.gen.Add(1)
	return dropped
}

// Do returns the memoized minimum RTT for the half circuit, measuring it
// with fn on a miss. Concurrent calls for the same key share one
// measurement; obs (nil-safe) is told whether this call hit, measured, or
// waited on another worker's in-flight series.
func (c *HalfCache) Do(ctx context.Context, path []string, samples int, obs *Observer, fn func(context.Context) (float64, error)) (float64, error) {
	min, _, err := c.do(ctx, path, samples, obs, fn)
	return min, err
}

// do is Do, also returning when the series it answers with was stored —
// what a memo in front of a ttl'd cache needs to lapse with the entry.
func (c *HalfCache) do(ctx context.Context, path []string, samples int, obs *Observer, fn func(context.Context) (float64, error)) (float64, time.Time, error) {
	// The key lives on the stack; the string conversions inside the map
	// indexes below do not allocate. A real string is only made on the miss
	// path, where a measurement is about to dwarf it.
	var kb [96]byte
	key := halfKeyInto(kb[:0], path, samples)
	for {
		c.mu.Lock()
		if e, ok := c.entries[string(key)]; ok && !c.expired(e) {
			c.mu.Unlock()
			obs.halfCircuit(path, HalfCircuitHit)
			return e.min, e.when, nil
		}
		if f, ok := c.flights[string(key)]; ok {
			c.mu.Unlock()
			obs.halfCircuit(path, HalfCircuitWait)
			select {
			case <-ctx.Done():
				return 0, time.Time{}, ctx.Err()
			case <-f.done:
			}
			if f.err == nil {
				return f.min, f.when, nil
			}
			if err := ctx.Err(); err != nil {
				return 0, time.Time{}, err
			}
			// The leader failed but we are still live: loop and either find
			// a fresher flight to join or measure ourselves.
			continue
		}
		// The flight, the entry and the hook all outlive this call, so none
		// may alias the Measurer's scratch path.
		skey := string(key)
		f := &halfFlight{done: make(chan struct{}), path: clonePath(path)}
		c.flights[skey] = f
		c.mu.Unlock()

		obs.halfCircuit(path, HalfCircuitMiss)
		min, err := fn(ctx)
		f.min, f.err = min, err
		c.mu.Lock()
		// A flight InvalidateRelay dropped — the map holds another flight
		// for the key, or none — measured a relay's old identity.
		current := c.flights[skey] == f
		if current {
			delete(c.flights, skey)
		}
		var hook func(path []string, samples int, min float64)
		if err == nil && current {
			f.when = c.now()
			c.entries[skey] = halfEntry{path: f.path, min: min, when: f.when}
			hook = c.onStore
		}
		c.mu.Unlock()
		close(f.done)
		if hook != nil {
			hook(f.path, samples, min)
		}
		return min, f.when, err
	}
}

func (c *HalfCache) expired(e halfEntry) bool {
	return c.ttl > 0 && c.now().Sub(e.when) > c.ttl
}
