package ting

import (
	"context"
	"slices"
	"strings"
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
//
// A miss on a warm pooled cache allocates nothing: the key is the path's own
// strings, the flight's channel is made only when a second caller waits on
// it, and the series is one the last scan to own the cache left in spare.
// So a series lives only until the scan that owns the cache releases it,
// and the path the store hook gets is valid only for the call.
type HalfCache struct {
	ttl time.Duration
	now func() time.Time

	mu      sync.Mutex
	entries map[halfKey]*halfSeries
	flights map[halfKey]*halfSeries
	index   []atomic.Pointer[halfSeries] // by relay index; grows between scans
	spare   []*halfSeries                // what the last released scan stored, zeroed, for this one's misses
	onStore func(path []string, samples int, min float64)
}

// halfSeries is one half-circuit series: a flight until its leader has
// written min and failed and, if a waiter made done, closed it; and, when it
// succeeded and was still current, the entry the map and the index point
// at. What an index reader checks comes first, and a two-hop path is kept
// in hops, so a hit reads one object.
type halfSeries struct {
	samples int
	min     float64
	hops    [2]string
	path    []string      // the cache's own copy, in hops when it fits; InvalidateRelay looks through it
	done    chan struct{} // made, under mu, by the flight's first waiter; nil if none came
	when    int64         // when stored, in Unix nanoseconds
	failed  bool
}

// halfKey identifies one half-circuit series: the exact path plus the
// sample count it was measured with. A two-hop path, every half circuit a
// Measurer asks for, is its two hops, the caller's own strings, so building
// a key allocates nothing; any other length (Do takes any path) is joined
// into long, which is never empty.
type halfKey struct {
	w, x    string
	long    string
	samples int
}

func keyOf(path []string, samples int) halfKey {
	if len(path) == 2 {
		return halfKey{w: path[0], x: path[1], samples: samples}
	}
	return halfKey{long: strings.Join(path, ",") + "#", samples: samples}
}

// NewHalfCache creates a half-circuit cache whose entries expire after
// ttl. A ttl ≤ 0 means entries never expire.
func NewHalfCache(ttl time.Duration) *HalfCache {
	return &HalfCache{
		ttl:     ttl,
		now:     time.Now,
		entries: make(map[halfKey]*halfSeries, 64),
		flights: make(map[halfKey]*halfSeries, 8),
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
	c.reset()
	scanCaches.Put(c)
}

// reset empties the cache and keeps the series its map held, zeroed, as
// spares for the next scan's misses. Only a cache nothing measures through
// may be reset: once its index is cleared and its map emptied, no worker,
// slot or entry reaches those series.
func (c *HalfCache) reset() {
	c.mu.Lock()
	c.clearIndex()
	for _, s := range c.entries {
		*s = halfSeries{}
		c.spare = append(c.spare, s)
	}
	clear(c.entries)
	clear(c.flights)
	c.mu.Unlock()
}

// newSeries returns a series of path measured with samples, a spare if
// there is one; the caller holds mu.
func (c *HalfCache) newSeries(path []string, samples int) *halfSeries {
	var s *halfSeries
	if n := len(c.spare); n > 0 {
		s, c.spare = c.spare[n-1], c.spare[:n-1]
	} else {
		s = new(halfSeries)
	}
	s.samples = samples
	s.path = append(s.hops[:0], path...)
	return s
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

// Seed installs a series without measuring — checkpoint replay. The entry
// is stored as freshly measured and does not fire the store hook (it is
// already in the log it came from). The index is cleared, so no slot keeps
// answering with the series it replaces.
func (c *HalfCache) Seed(path []string, samples int, min float64) {
	c.mu.Lock()
	s := c.newSeries(path, samples)
	s.min, s.when = min, c.now().UnixNano()
	c.entries[keyOf(path, samples)] = s
	c.clearIndex()
	c.mu.Unlock()
}

// SetStoreHook registers fn to run after each freshly measured series is
// stored — the scanner's checkpoint append hook. A nil fn unregisters.
// The hook runs outside the cache lock and must be safe for concurrent
// calls from scanner workers. path is the cache's own and valid only for
// the call: a pooled cache reuses it for a later scan's series.
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
	key := keyOf(path, samples)
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok && !c.expired(e) {
			c.setSlot(i, e)
			c.mu.Unlock()
			obs.halfCircuit(path, HalfCircuitHit)
			return e.min, nil
		}
		if f, ok := c.flights[key]; ok {
			// Its leader reads done under mu once it has measured, so the
			// first waiter makes the channel here and the leader closes it;
			// a flight nobody joins never has one.
			if f.done == nil {
				f.done = make(chan struct{})
			}
			done := f.done
			c.mu.Unlock()
			obs.halfCircuit(path, HalfCircuitWait)
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-done:
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
		f := c.newSeries(path, samples)
		c.flights[key] = f
		c.mu.Unlock()

		obs.halfCircuit(path, HalfCircuitMiss)
		min, err := fn(ctx)
		f.min, f.failed = min, err != nil
		c.mu.Lock()
		// A flight InvalidateRelay dropped — the map holds another flight
		// for the key, or none — measured a relay's old identity.
		current := c.flights[key] == f
		if current {
			delete(c.flights, key)
		}
		var hook func(path []string, samples int, min float64)
		if err == nil && current {
			f.when = c.now().UnixNano()
			c.entries[key] = f
			c.setSlot(i, f)
			hook = c.onStore
		}
		done := f.done
		c.mu.Unlock()
		if done != nil {
			close(done)
		}
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
