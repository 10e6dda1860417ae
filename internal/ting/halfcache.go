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
// A scan also reads the cache by relay matrix index without the lock
// (index, measure.go's halfMin): a slot points at the series the map
// stores, and only the lock holder writes one — do when it answers from or
// stores into the map; Seed and InvalidateRelay when they clear slots. A
// cache serves one scan at a time (ScanBudget's batches take turns), which
// sizes the index before its workers start. A reader trusts a slot only if
// its path, sample count and age fit the request, so a slot an earlier
// scan left is either a valid answer or a miss.
type HalfCache struct {
	ttl time.Duration
	now func() time.Time

	mu      sync.Mutex
	entries map[string]*halfSeries
	flights map[string]*halfSeries
	index   []atomic.Pointer[halfSeries] // by relay index; grows between scans
	onStore func(path []string, samples int, min float64)
}

// halfSeries is one half-circuit series: a flight until done is closed
// (min and failed are written once before), and, when it succeeded and was
// still current, the entry the map and the index point at. What an index
// reader checks comes first, and a two-hop path is kept in hops, so a hit
// reads one object.
type halfSeries struct {
	samples int
	min     float64
	hops    [2]string
	path    []string      // the cache's own copy, in hops when it fits; InvalidateRelay looks through it
	done    chan struct{} // nil for a seeded series
	when    int64         // when stored, in Unix nanoseconds
	failed  bool
}

// NewHalfCache creates a half-circuit cache whose entries expire after
// ttl. A ttl ≤ 0 means entries never expire.
func NewHalfCache(ttl time.Duration) *HalfCache {
	return &HalfCache{
		ttl:     ttl,
		now:     time.Now,
		entries: make(map[string]*halfSeries, 64),
		flights: make(map[string]*halfSeries, 8),
	}
}

// scanCaches holds the *HalfCache of scans that owned theirs, emptied: a
// campaign worker scans one lease after another, and each lease's cache
// then reuses the last one's map buckets and index instead of growing its
// own.
var scanCaches = sync.Pool{New: func() any { return NewHalfCache(0) }}

// ownedHalfCache takes an empty cache for a scan to own.
func ownedHalfCache() *HalfCache { return scanCaches.Get().(*HalfCache) }

// releaseHalfCache empties a cache a scan owned and returns it to the pool.
// The scan's workers have all exited and its store hook is cleared, so
// nothing measures through it any more.
func releaseHalfCache(c *HalfCache) {
	c.mu.Lock()
	c.clearIndex()
	clear(c.entries)
	clear(c.flights)
	c.mu.Unlock()
	scanCaches.Put(c)
}

// sizeIndex gives the index at least n slots, before a scan's workers
// start; a relay that joins past it is answered by the map.
func (c *HalfCache) sizeIndex(n int) {
	c.mu.Lock()
	if len(c.index) < n {
		c.index = make([]atomic.Pointer[halfSeries], n)
	}
	c.mu.Unlock()
}

// clearIndex empties every slot; the caller holds mu.
func (c *HalfCache) clearIndex() {
	for i := range c.index {
		c.index[i].Store(nil)
	}
}

// indexed answers for relay index i from the index, without the lock: the
// slot's series must be path's, measured with samples, and not lapsed.
func (c *HalfCache) indexed(path []string, samples, i int) (float64, bool) {
	if uint(i) >= uint(len(c.index)) {
		return 0, false
	}
	s := c.index[i].Load()
	if s == nil || s.samples != samples || !slices.Equal(s.path, path) || c.expired(s) {
		return 0, false
	}
	return s.min, true
}

// halfKey identifies one half-circuit series: the exact path plus the
// sample count it was measured with.
func halfKey(path []string, samples int) string {
	return string(halfKeyInto(nil, path, samples))
}

// halfKeyInto appends the same key to a caller-owned buffer. Do builds its
// key on the stack and looks it up via map[string(buf)] — which the
// compiler performs without materializing the string — so cache hits
// allocate nothing.
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
// already in the log it came from). The index is cleared, so no slot keeps
// answering with the series it replaces.
func (c *HalfCache) Seed(path []string, samples int, min float64) {
	c.mu.Lock()
	s := &halfSeries{samples: samples, min: min, when: c.now().UnixNano()}
	s.path = append(s.hops[:0], path...)
	c.entries[halfKey(path, samples)] = s
	c.clearIndex()
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
// map stores nothing, in the map or the index, and fires no hook, and the
// next Do measures the new identity.
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
	for i := range c.index {
		if s := c.index[i].Load(); s != nil && slices.Contains(s.path, name) {
			c.index[i].Store(nil)
		}
	}
	return dropped
}

// Do returns the memoized minimum RTT for the half circuit, measuring it
// with fn on a miss. Concurrent calls for the same key share one
// measurement; obs (nil-safe) is told whether this call hit, measured, or
// waited on another worker's in-flight series.
func (c *HalfCache) Do(ctx context.Context, path []string, samples int, obs *Observer, fn func(context.Context) (float64, error)) (float64, error) {
	return c.do(ctx, path, samples, -1, obs, fn)
}

// do is Do for the relay at index i (-1 for none): the series it answers
// from the map or stores there also fills i's slot.
func (c *HalfCache) do(ctx context.Context, path []string, samples, i int, obs *Observer, fn func(context.Context) (float64, error)) (float64, error) {
	// The key lives on the stack; the string conversions inside the map
	// indexes below do not allocate. A real string is only made on the miss
	// path, where a measurement is about to dwarf it.
	var kb [96]byte
	key := halfKeyInto(kb[:0], path, samples)
	for {
		c.mu.Lock()
		if e, ok := c.entries[string(key)]; ok && !c.expired(e) {
			c.setSlot(i, e)
			c.mu.Unlock()
			obs.halfCircuit(path, HalfCircuitHit)
			return e.min, nil
		}
		if f, ok := c.flights[string(key)]; ok {
			c.mu.Unlock()
			obs.halfCircuit(path, HalfCircuitWait)
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-f.done:
			}
			if !f.failed {
				return f.min, nil
			}
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			// The leader failed but we are still live: loop and either find
			// a fresher flight to join or measure ourselves.
			continue
		}
		// The flight, the entry and the hook all outlive this call, so none
		// may alias the Measurer's scratch path.
		skey := string(key)
		f := &halfSeries{done: make(chan struct{}), samples: samples}
		f.path = append(f.hops[:0], path...)
		c.flights[skey] = f
		c.mu.Unlock()

		obs.halfCircuit(path, HalfCircuitMiss)
		min, err := fn(ctx)
		f.min, f.failed = min, err != nil
		c.mu.Lock()
		// A flight InvalidateRelay dropped — the map holds another flight
		// for the key, or none — measured a relay's old identity.
		current := c.flights[skey] == f
		if current {
			delete(c.flights, skey)
		}
		var hook func(path []string, samples int, min float64)
		if err == nil && current {
			f.when = c.now().UnixNano()
			c.entries[skey] = f
			c.setSlot(i, f)
			hook = c.onStore
		}
		c.mu.Unlock()
		close(f.done)
		if hook != nil {
			hook(f.path, samples, min)
		}
		return min, err
	}
}

// setSlot points slot i, if the index has it, at s; the caller holds mu.
func (c *HalfCache) setSlot(i int, s *halfSeries) {
	if uint(i) < uint(len(c.index)) {
		c.index[i].Store(s)
	}
}

func (c *HalfCache) expired(s *halfSeries) bool {
	return c.ttl > 0 && c.now().UnixNano()-s.when > int64(c.ttl)
}
