package ting

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ting/internal/inet"
)

// halfEvents is a concurrency-safe HalfCircuit observer for tests.
type halfEvents struct {
	hits, misses, waits atomic.Int64
}

func (h *halfEvents) observer() *Observer {
	return &Observer{
		HalfCircuit: func(path []string, ev HalfCircuitEvent) {
			switch ev {
			case HalfCircuitHit:
				h.hits.Add(1)
			case HalfCircuitMiss:
				h.misses.Add(1)
			case HalfCircuitWait:
				h.waits.Add(1)
			}
		},
	}
}

// TestHalfCacheSingleflight: N concurrent callers for the same key share
// one measurement — fn runs exactly once, one caller reports a miss, and
// everyone else either waited on the flight or hit the completed entry.
func TestHalfCacheSingleflight(t *testing.T) {
	c := NewHalfCache(0)
	ev := &halfEvents{}
	obs := ev.observer()
	path := []string{"w", "x"}

	const callers = 16
	var calls atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]float64, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.Do(context.Background(), path, 50, obs,
				func(context.Context) (float64, error) {
					calls.Add(1)
					<-release // hold the flight until every caller launched
					return 41.5, nil
				})
		}(i)
	}
	close(release)
	wg.Wait()

	for i := range results {
		if errs[i] != nil || results[i] != 41.5 {
			t.Fatalf("caller %d: (%v, %v), want (41.5, nil)", i, results[i], errs[i])
		}
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("fn ran %d times, want exactly 1", got)
	}
	if ev.misses.Load() != 1 {
		t.Errorf("misses = %d, want 1", ev.misses.Load())
	}
	if got := ev.hits.Load() + ev.waits.Load(); got != callers-1 {
		t.Errorf("hits+waits = %d, want %d", got, callers-1)
	}
	if len(c.entries) != 1 {
		t.Errorf("Len = %d", len(c.entries))
	}
}

// TestHalfCacheKeying: different paths and different sample counts are
// distinct series — a cross-scan handle must never conflate a 10-sample
// min with a 200-sample min.
func TestHalfCacheKeying(t *testing.T) {
	c := NewHalfCache(0)
	measure := func(v float64) func(context.Context) (float64, error) {
		return func(context.Context) (float64, error) { return v, nil }
	}
	if v, _ := c.Do(context.Background(), []string{"w", "x"}, 10, nil, measure(1)); v != 1 {
		t.Fatalf("first series = %v", v)
	}
	if v, _ := c.Do(context.Background(), []string{"w", "x"}, 200, nil, measure(2)); v != 2 {
		t.Errorf("sample count not part of the key: %v", v)
	}
	if v, _ := c.Do(context.Background(), []string{"w", "y"}, 10, nil, measure(3)); v != 3 {
		t.Errorf("path not part of the key: %v", v)
	}
	if v, _ := c.Do(context.Background(), []string{"w", "x"}, 10, nil, measure(99)); v != 1 {
		t.Errorf("memoized series re-measured: %v", v)
	}
	if len(c.entries) != 3 {
		t.Errorf("Len = %d, want 3", len(c.entries))
	}
}

// TestHalfCacheFlightWaiters: a caller that finds a series in flight
// waits for it, and the first such waiter makes the flight's channel (a
// flight nobody joins has none). The waiter takes the leader's answer; takes
// over with its own fn when the leader fails, since the failure may be the
// leader's prober's, and errors are never stored; returns promptly with its
// context's error when that ends mid-wait, the leader unaffected; and still
// gets the answer of a flight that InvalidateRelay dropped, whose
// pre-rotation minimum is neither stored nor handed to the store hook, so
// the next Do measures the relay's new identity.
func TestHalfCacheFlightWaiters(t *testing.T) {
	cases := []struct {
		name      string
		leaderErr error                             // the leader's measurement fails with it; else it reads 40
		mid       func(c *HalfCache, cancel func()) // with the waiter blocked, before the leader finishes
		waiter    float64                           // what the waiter gets: the flight's 40 or its takeover's 77
		waiterErr error                             // or this error instead
		misses    int64                             // the leader, and a takeover
		next      float64                           // what the next Do answers: a hit, or 45 if it measures
		hooked    []float64                         // every series the store hook saw
	}{
		{name: "joins", waiter: 40, misses: 1, next: 40, hooked: []float64{40}},
		{name: "leader fails", leaderErr: errors.New("leader's prober wedged"), waiter: 77, misses: 2, next: 77, hooked: []float64{77}},
		{name: "waiter cancelled", mid: func(_ *HalfCache, cancel func()) { cancel() }, waiterErr: context.Canceled, misses: 1, next: 40, hooked: []float64{40}},
		{name: "rotation", mid: func(c *HalfCache, _ func()) { c.InvalidateRelay("x") }, waiter: 40, misses: 1, next: 45, hooked: []float64{45}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewHalfCache(0)
			var mu sync.Mutex
			var hooked []float64
			c.SetStoreHook(func(_ []string, _ int, min float64) {
				mu.Lock()
				hooked = append(hooked, min)
				mu.Unlock()
			})
			ev := &halfEvents{}
			obs := ev.observer()
			path := []string{"w", "x"}
			flightDone := func() (chan struct{}, bool) {
				c.mu.Lock()
				defer c.mu.Unlock()
				f, ok := c.flights[keyOf(path, 5)]
				if !ok {
					return nil, false
				}
				return f.done, true
			}

			leaderIn, leaderGo := make(chan struct{}), make(chan struct{})
			leaderDone := make(chan error, 1)
			go func() {
				v, err := c.Do(t.Context(), path, 5, obs, func(context.Context) (float64, error) {
					close(leaderIn)
					<-leaderGo
					return 40, tc.leaderErr
				})
				if err == nil && v != 40 {
					err = fmt.Errorf("leader = %v, want its own 40", v)
				}
				leaderDone <- err
			}()
			<-leaderIn // the flight is registered and in fn
			if done, ok := flightDone(); !ok || done != nil {
				t.Fatalf("before any waiter the flight is registered %v with channel %v, want registered without one", ok, done)
			}

			ctx, cancel := context.WithCancel(t.Context())
			defer cancel()
			var takeovers atomic.Int64
			type result struct {
				v   float64
				err error
			}
			waiterDone := make(chan result, 1)
			go func() {
				v, err := c.Do(ctx, path, 5, obs, func(context.Context) (float64, error) {
					if tc.leaderErr == nil {
						t.Error("waiter measured instead of taking the flight's answer")
					}
					takeovers.Add(1)
					return 77, nil
				})
				waiterDone <- result{v, err}
			}()
			for ev.waits.Load() == 0 {
				time.Sleep(100 * time.Microsecond)
			}
			if done, ok := flightDone(); !ok || done == nil {
				t.Fatalf("with a waiter the flight is registered %v with channel %v, want one made", ok, done)
			}
			if tc.mid != nil {
				tc.mid(c, cancel)
			}
			var got result
			if ctx.Err() != nil {
				// A cancelled waiter returns while the leader still measures.
				select {
				case got = <-waiterDone:
				case <-time.After(5 * time.Second):
					t.Fatal("cancelled waiter still blocked on the flight")
				}
			}
			close(leaderGo)
			if err := <-leaderDone; tc.leaderErr == nil && err != nil || tc.leaderErr != nil && err != tc.leaderErr {
				t.Errorf("leader error = %v, want %v", err, tc.leaderErr)
			}
			if ctx.Err() == nil {
				got = <-waiterDone
			}
			if tc.waiterErr != nil && !errors.Is(got.err, tc.waiterErr) || tc.waiterErr == nil && (got.err != nil || got.v != tc.waiter) {
				t.Errorf("waiter = (%v, %v), want (%v, %v)", got.v, got.err, tc.waiter, tc.waiterErr)
			}
			if want := tc.misses - 1; takeovers.Load() != want {
				t.Errorf("the waiter measured %d times, want %d", takeovers.Load(), want)
			}
			if ev.misses.Load() != tc.misses {
				t.Errorf("misses = %d, want %d", ev.misses.Load(), tc.misses)
			}

			measured := false
			v, err := c.Do(t.Context(), path, 5, obs, func(context.Context) (float64, error) {
				measured = true
				return 45, nil
			})
			if err != nil || v != tc.next || measured != (tc.next == 45) {
				t.Errorf("next Do = (%v, %v), measured %v; want %v", v, err, measured, tc.next)
			}
			if len(c.entries) != 1 {
				t.Errorf("the cache holds %d series, want 1 (errors and dropped flights never stored)", len(c.entries))
			}
			mu.Lock()
			defer mu.Unlock()
			if !slices.Equal(hooked, tc.hooked) {
				t.Errorf("store hook saw %v, want %v", hooked, tc.hooked)
			}
		})
	}
}

// TestHalfCacheTTL: entries lapse after the TTL and are re-measured; a
// ttl ≤ 0 cache never expires.
func TestHalfCacheTTL(t *testing.T) {
	c := NewHalfCache(time.Minute)
	now := time.Unix(0, 0)
	c.now = func() time.Time { return now }
	path := []string{"w", "x"}

	v, err := c.Do(context.Background(), path, 5, nil,
		func(context.Context) (float64, error) { return 10, nil })
	if err != nil || v != 10 {
		t.Fatalf("first Do = (%v, %v)", v, err)
	}
	now = now.Add(30 * time.Second) // still fresh
	v, _ = c.Do(context.Background(), path, 5, nil,
		func(context.Context) (float64, error) { return 20, nil })
	if v != 10 {
		t.Errorf("fresh entry re-measured: %v", v)
	}
	now = now.Add(time.Hour) // lapsed
	v, _ = c.Do(context.Background(), path, 5, nil,
		func(context.Context) (float64, error) { return 20, nil })
	if v != 20 {
		t.Errorf("stale entry served: %v", v)
	}

	eternal := NewHalfCache(0)
	enow := time.Unix(0, 0)
	eternal.now = func() time.Time { return enow }
	eternal.Do(context.Background(), path, 5, nil,
		func(context.Context) (float64, error) { return 1, nil })
	enow = enow.Add(1000 * time.Hour)
	if v, _ := eternal.Do(context.Background(), path, 5, nil,
		func(context.Context) (float64, error) { return 2, nil }); v != 1 {
		t.Errorf("ttl=0 entry expired: %v", v)
	}
}

// TestScanMemoLapsesWithCacheTTL: the cache's index answers for a ttl'd
// cache only while the cache's entry would. One worker, pairs in plan order; the
// clock jumps past the ttl during (x,u)'s full circuit, so x and y lapse
// and are re-measured when next consulted, at (x,v) and (y,u): six misses,
// N + 2.
func TestScanMemoLapsesWithCacheTTL(t *testing.T) {
	hc := NewHalfCache(time.Minute)
	now := time.Unix(0, 0)
	hc.now = func() time.Time { return now }
	hook := func(path []string) {
		if len(path) == 4 && path[1] == "x" && path[2] == "u" {
			now = now.Add(2 * time.Minute)
		}
	}
	ev := &halfEvents{}
	sc := &Scanner{
		NewMeasurer: func(int) (*Measurer, error) {
			return NewMeasurer(Config{Prober: &hookProber{f: bigFakeWorld(), hook: hook}, W: "w", Z: "z", Samples: 1, Observer: ev.observer()})
		},
		Workers:      1,
		halfCircuits: hc,
	}
	if _, failures, err := sc.Scan(context.Background(), []string{"x", "y", "u", "v"}); err != nil || len(failures) != 0 {
		t.Fatalf("scan = (%v, %v), want clean", failures, err)
	}
	if got := ev.misses.Load(); got != 6 {
		t.Errorf("half-circuit misses = %d, want 6: x and y re-measured once their entries lapsed", got)
	}
	if got := ev.hits.Load() + ev.misses.Load(); got != 12 {
		t.Errorf("hits + misses = %d, want 2·pairs = 12", got)
	}
}

// TestHalfCacheHammer floods one cache from many goroutines over a small
// key set with an aggressive TTL, so hits, misses, waits, takeovers, and
// expiry all interleave — primarily a -race workout, but every returned
// value must still be the key's own.
func TestHalfCacheHammer(t *testing.T) {
	c := NewHalfCache(200 * time.Microsecond)
	ev := &halfEvents{}
	obs := ev.observer()

	const (
		goroutines = 32
		iters      = 200
		keys       = 8
	)
	var wg sync.WaitGroup
	var bad atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (g + i) % keys
				path := []string{"w", fmt.Sprintf("r%d", k)}
				want := float64(100 + k)
				v, err := c.Do(context.Background(), path, 3, obs,
					func(context.Context) (float64, error) {
						if i%7 == 0 {
							time.Sleep(10 * time.Microsecond) // widen the flight window
						}
						if i%13 == 0 {
							return 0, errors.New("transient")
						}
						return want, nil
					})
				if err == nil && v != want {
					bad.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if bad.Load() != 0 {
		t.Errorf("%d calls returned another key's value", bad.Load())
	}
	total := ev.hits.Load() + ev.misses.Load() + ev.waits.Load()
	if total < goroutines*iters {
		t.Errorf("observer saw %d events for ≥ %d consultations", total, goroutines*iters)
	}
}

// seriesCounter tallies circuit series by path through an Observer; it is
// how the tests below prove how many measurements a scan actually issued.
type seriesCounter struct {
	mu     sync.Mutex
	byPath map[string]int
}

func newSeriesCounter() *seriesCounter {
	return &seriesCounter{byPath: make(map[string]int)}
}

func (s *seriesCounter) observer(inner *Observer) *Observer {
	o := &Observer{}
	if inner != nil {
		*o = *inner
	}
	prev := o.CircuitDone
	o.CircuitDone = func(path []string, n int, elapsed time.Duration, err error) {
		if err == nil {
			s.mu.Lock()
			s.byPath[strings.Join(path, ",")]++
			s.mu.Unlock()
		}
		if prev != nil {
			prev(path, n, elapsed, err)
		}
	}
	return o
}

// counts returns (half-circuit series, full-circuit series, distinct half
// circuits measured more than once).
func (s *seriesCounter) counts() (halves, fulls, dupHalves int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for path, n := range s.byPath {
		if strings.Count(path, ",") == 1 { // (w, x)
			halves += n
			if n > 1 {
				dupHalves++
			}
		} else {
			fulls += n
		}
	}
	return
}

// TestScanMeasuresEachHalfCircuitOnce is the acceptance check for
// half-circuit memoization: a 20-node all-pairs scan over the model world
// issues exactly N + pairs circuit series — each of the 20 half circuits
// measured once, each of the 190 full circuits once — instead of the
// unmemoized 3·pairs = 570.
func TestScanMeasuresEachHalfCircuitOnce(t *testing.T) {
	const n = 20
	topo, host, nodeOf := modelWorld(t, n, 200)
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = topo.Node(inet.NodeID(i)).Name
	}

	sc := newSeriesCounter()
	ev := &halfEvents{}
	obs := sc.observer(ev.observer())
	scanner := &Scanner{
		NewMeasurer: func(worker int) (*Measurer, error) {
			p := NewModelProber(topo, host, nodeOf, 300+int64(worker))
			return NewMeasurer(Config{Prober: p, W: "w", Z: "z", Samples: 2, Observer: obs})
		},
		Workers:  4,
		Observer: obs,
	}
	m, failures, err := scanner.Scan(context.Background(), names)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 0 {
		t.Fatalf("failures = %v", failures)
	}

	pairs := n * (n - 1) / 2
	halves, fulls, dups := sc.counts()
	t.Logf("series: %d half + %d full = %d (budget N+pairs = %d)",
		halves, fulls, halves+fulls, n+pairs)
	if dups != 0 {
		t.Errorf("%d half circuits measured more than once", dups)
	}
	if halves != n {
		t.Errorf("half-circuit series = %d, want exactly N = %d", halves, n)
	}
	if fulls != pairs {
		t.Errorf("full-circuit series = %d, want pairs = %d", fulls, pairs)
	}
	if total := halves + fulls; total > n+pairs {
		t.Errorf("scan issued %d series, budget is N + pairs = %d", total, n+pairs)
	}
	// Every pair consults the cache twice (C_x and C_y): N misses measured,
	// the rest answered by a hit or by waiting on the one in-flight series.
	if ev.misses.Load() != n {
		t.Errorf("half-circuit misses = %d, want %d", ev.misses.Load(), n)
	}
	if got := ev.hits.Load() + ev.waits.Load() + ev.misses.Load(); got != int64(2*pairs) {
		t.Errorf("half-circuit consultations = %d, want 2·pairs = %d", got, 2*pairs)
	}
	// The matrix itself is intact: spot-check symmetry and positivity.
	for i := 1; i < n; i++ {
		v, err := m.RTT(names[0], names[i])
		if err != nil || v <= 0 {
			t.Errorf("RTT(%s,%s) = %v, %v", names[0], names[i], v, err)
		}
	}
}

// TestScannerDisableHalfCache pins the opt-out: with memoization off the
// scan is the paper's literal §4.2 procedure, 3 series per pair.
func TestScannerDisableHalfCache(t *testing.T) {
	f := newFakeWorld()
	sc := newSeriesCounter()
	ev := &halfEvents{}
	obs := sc.observer(ev.observer())
	scanner := &Scanner{
		NewMeasurer: func(worker int) (*Measurer, error) {
			return NewMeasurer(Config{Prober: f, W: "w", Z: "z", Samples: 1, Observer: obs})
		},
		DisableHalfCache: true,
		Observer:         obs,
	}
	if _, _, err := scanner.Scan(context.Background(), []string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	halves, fulls, _ := sc.counts()
	if halves != 2 || fulls != 1 {
		t.Errorf("series = %d half + %d full, want 2 + 1 (no memoization)", halves, fulls)
	}
	if ev.hits.Load()+ev.misses.Load()+ev.waits.Load() != 0 {
		t.Errorf("half-circuit cache consulted with DisableHalfCache set")
	}
}

// TestScannerCrossScanHalfCache: a caller-supplied HalfCache carries
// memoized half circuits from one campaign into the next — the second scan
// measures zero new half-circuit series.
func TestScannerCrossScanHalfCache(t *testing.T) {
	f := newFakeWorld()
	hc := NewHalfCache(0)
	ev := &halfEvents{}
	newScanner := func(sc *seriesCounter) *Scanner {
		obs := sc.observer(ev.observer())
		return &Scanner{
			NewMeasurer: func(worker int) (*Measurer, error) {
				return NewMeasurer(Config{Prober: f, W: "w", Z: "z", Samples: 1, Observer: obs})
			},
			halfCircuits: hc,
			Observer:     obs,
		}
	}
	first := newSeriesCounter()
	if _, _, err := newScanner(first).Scan(context.Background(), []string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	if halves, _, _ := first.counts(); halves != 2 {
		t.Fatalf("first scan measured %d half circuits, want 2", halves)
	}
	second := newSeriesCounter()
	m, _, err := newScanner(second).Scan(context.Background(), []string{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	if halves, fulls, _ := second.counts(); halves != 0 || fulls != 1 {
		t.Errorf("second scan: %d half + %d full series, want 0 + 1 (cross-scan reuse)", halves, fulls)
	}
	if v, _ := m.RTT("x", "y"); v != 73 {
		t.Errorf("RTT = %v, want 73", v)
	}
}

// TestAssignJobsReuseGrouping pins the reuse-aware scheduler: all pairs
// sharing a first endpoint land on one worker, and the LPT placement keeps
// worker loads within the largest group of each other.
func TestAssignJobsReuseGrouping(t *testing.T) {
	todo := allPairJobs(7)
	const workers = 3
	queues := assignJobs(todo, workers, false)

	ownerOf := make(map[int32]int)
	total := 0
	for w, jobs := range queues {
		total += len(jobs)
		for _, job := range jobs {
			if prev, ok := ownerOf[job.x]; ok && prev != w {
				t.Errorf("group %d split across workers %d and %d", job.x, prev, w)
			}
			ownerOf[job.x] = w
		}
	}
	if total != len(todo) {
		t.Errorf("assigned %d jobs, want %d", total, len(todo))
	}
	// Largest group is (0, ·) with 6 jobs; LPT keeps the spread under it.
	min, max := len(queues[0]), len(queues[0])
	for _, q := range queues[1:] {
		if len(q) < min {
			min = len(q)
		}
		if len(q) > max {
			max = len(q)
		}
	}
	if max-min > 6 {
		t.Errorf("load spread %d (min %d, max %d) exceeds the largest group", max-min, min, max)
	}

	// Shuffled mode deals the given order round-robin, preserving it.
	shuffled := assignJobs(todo, workers, true)
	for w, jobs := range shuffled {
		for i, job := range jobs {
			if want := todo[i*workers+w]; job != want {
				t.Fatalf("shuffled deal broke order at worker %d slot %d", w, i)
			}
		}
	}
}

// TestHalfCacheInvalidateSeparatorNames: invalidation compares hops, it
// does not parse them back out of the key, so a nickname holding the key's
// own separators is dropped under its own name and no other.
func TestHalfCacheInvalidateSeparatorNames(t *testing.T) {
	hc := NewHalfCache(0)
	hc.Seed([]string{"w", "a,b"}, 2, 40)
	hc.Seed([]string{"w", "c#2"}, 2, 50)
	if n := hc.InvalidateRelay("a"); n != 0 {
		t.Errorf(`InvalidateRelay("a") dropped %d series, want 0: "a,b" is another relay`, n)
	}
	if n := hc.InvalidateRelay("a,b"); n != 1 {
		t.Errorf(`InvalidateRelay("a,b") dropped %d series, want 1`, n)
	}
	if n := hc.InvalidateRelay("c#2"); n != 1 {
		t.Errorf(`InvalidateRelay("c#2") dropped %d series, want 1`, n)
	}
}

// halfOracle is the serial model of HalfCache seen through the index the
// workers share. Every path in the property is [w, x], so an entry is keyed by x:
// the last stored minimum and when it was stored, an answer while no older
// than the ttl (ttl ≤ 0: forever). InvalidateRelay("w") drops everything.
type halfOracle struct {
	ttl     time.Duration
	entries map[string]oracleEntry
}

type oracleEntry struct {
	min  float64
	when time.Time
}

func (o *halfOracle) lookup(x string, now time.Time) (float64, bool) {
	e, ok := o.entries[x]
	return e.min, ok && (o.ttl <= 0 || now.Sub(e.when) <= o.ttl)
}

func (o *halfOracle) store(x string, min float64, now time.Time) {
	o.entries[x] = oracleEntry{min, now}
}

func (o *halfOracle) invalidate(name string) int {
	n := 0
	for x := range o.entries {
		if name == "w" || name == x {
			delete(o.entries, x)
			n++
		}
	}
	return n
}

// oracleWorker is one scan worker of the property: a Measurer over the
// shared cache and its index, and a prober whose next series the test
// scripts.
type oracleWorker struct {
	m      *Measurer
	probe  func() (float64, error)
	calls  int
	events []HalfCircuitEvent
	waited chan struct{} // one send per HalfCircuitWait
}

func (w *oracleWorker) SampleCircuit(ctx context.Context, path []string, n int) ([]float64, error) {
	w.calls++
	v, err := w.probe()
	if err != nil {
		return nil, err
	}
	return []float64{v}, nil
}

// halfMin asks the cache's index, and then its map, for x's half circuit,
// recording what the Observer hears and the prober calls it made.
func (w *oracleWorker) halfMin(names []string, i int) (float64, error) {
	w.events, w.calls = w.events[:0], 0
	return w.m.halfMin(context.Background(), []string{"w", names[i]}, i)
}

// TestHalfCacheAgainstOracle runs random sequences through a HalfCache and
// the index its three workers share and checks each step against halfOracle: Do that
// hits, misses, or fails; a waiter on a leader that succeeds or fails, with
// a Seed or an InvalidateRelay landing mid-flight; Seed; InvalidateRelay of
// one relay or of the shared first hop; clock jumps to either side of the
// ttl. Every answer, error, Observer event, prober call, dropped count and
// store-hook firing must be the oracle's. The runs share one cache, reset
// between them, so all but the first reuse its series. The seed is printed
// on failure.
func TestHalfCacheAgainstOracle(t *testing.T) {
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	names := []string{"x0", "x1", "x2", "x3", "x4"}
	errProbe := errors.New("probe failed")
	hc := NewHalfCache(0)
	for run := 0; run < 40; run++ {
		ttl := time.Duration(run%2) * time.Minute
		now := time.Unix(1700000000, 0)
		// Each run after the first measures into the series the last one
		// stored, as a pooled cache's next scan does.
		hc.reset()
		hc.ttl, hc.now = ttl, func() time.Time { return now }
		hc.sizeIndex(len(names))
		var mu sync.Mutex
		var hooked, wantHooked []float64
		hc.SetStoreHook(func(_ []string, _ int, min float64) {
			mu.Lock()
			hooked = append(hooked, min)
			mu.Unlock()
		})
		o := &halfOracle{ttl: ttl, entries: map[string]oracleEntry{}}
		workers := make([]*oracleWorker, 3)
		for k := range workers {
			w := &oracleWorker{waited: make(chan struct{}, 1)}
			obs := &Observer{HalfCircuit: func(_ []string, ev HalfCircuitEvent) {
				w.events = append(w.events, ev)
				if ev == HalfCircuitWait {
					w.waited <- struct{}{}
				}
			}}
			m, err := NewMeasurer(Config{Prober: w, W: "w", Z: "z", Samples: 1, Observer: obs})
			if err != nil {
				t.Fatal(err)
			}
			m.hc = hc
			w.m = m
			workers[k] = w
		}
		for op := 0; op < 150; op++ {
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("seed %d, run %d (ttl %v), op %d: %s", seed, run, ttl, op, fmt.Sprintf(format, args...))
			}
			expect := func(w *oracleWorker, calls int, events ...HalfCircuitEvent) {
				t.Helper()
				if w.calls != calls || !slices.Equal(w.events, events) {
					fail("%d prober calls, events %v; want %d, %v", w.calls, w.events, calls, events)
				}
			}
			i := rng.Intn(len(names))
			x := names[i]
			v := float64(op) + 0.5
			switch kind := rng.Intn(10); {
			case kind < 4: // Do
				w := workers[rng.Intn(len(workers))]
				probeFails := rng.Intn(4) == 0
				w.probe = func() (float64, error) {
					if probeFails {
						return 0, errProbe
					}
					return v, nil
				}
				want, fresh := o.lookup(x, now)
				got, err := w.halfMin(names, i)
				switch {
				case fresh:
					if got != want || err != nil {
						fail("hit on %s = (%v, %v), want %v", x, got, err, want)
					}
					expect(w, 0, HalfCircuitHit)
				case probeFails:
					if !errors.Is(err, errProbe) {
						fail("failed series on %s = (%v, %v)", x, got, err)
					}
					expect(w, 1, HalfCircuitMiss)
				default:
					if got != v || err != nil {
						fail("miss on %s = (%v, %v), want %v", x, got, err, v)
					}
					expect(w, 1, HalfCircuitMiss)
					o.store(x, v, now)
					wantHooked = append(wantHooked, v)
				}
			case kind == 4:
				hc.Seed([]string{"w", x}, 1, v)
				o.store(x, v, now)
			case kind == 5:
				name := x
				if rng.Intn(5) == 0 {
					name = "w"
				}
				if got, want := hc.InvalidateRelay(name), o.invalidate(name); got != want {
					fail("InvalidateRelay(%s) dropped %d, want %d", name, got, want)
				}
			case kind < 8:
				now = now.Add([]time.Duration{time.Second, 30 * time.Second, time.Minute, time.Minute + 1}[rng.Intn(4)])
			default: // a leader measures, a waiter joins its flight
				if _, fresh := o.lookup(x, now); fresh {
					continue
				}
				p := rng.Perm(len(workers))
				a, b := workers[p[0]], workers[p[1]]
				leaderFails := rng.Intn(2) == 0
				entered, release := make(chan struct{}), make(chan struct{})
				a.probe = func() (float64, error) {
					close(entered)
					<-release
					if leaderFails {
						return 0, errProbe
					}
					return v, nil
				}
				vb := v + 0.25
				b.probe = func() (float64, error) { return vb, nil }
				type result struct {
					v   float64
					err error
				}
				ra, rb := make(chan result, 1), make(chan result, 1)
				go func() { v, err := a.halfMin(names, i); ra <- result{v, err} }()
				select {
				case <-entered:
				case r := <-ra:
					fail("leader answered (%v, %v) without measuring", r.v, r.err)
				}
				go func() { v, err := b.halfMin(names, i); rb <- result{v, err} }()
				select {
				case <-b.waited:
				case r := <-rb:
					close(release)
					fail("waiter answered (%v, %v) without waiting on the flight", r.v, r.err)
				}
				dropped := false
				switch rng.Intn(3) {
				case 1:
					name := x
					if rng.Intn(3) == 0 {
						name = "w"
					}
					if got, want := hc.InvalidateRelay(name), o.invalidate(name); got != want {
						fail("mid-flight InvalidateRelay(%s) dropped %d, want %d", name, got, want)
					}
					dropped = true
				case 2:
					hc.Seed([]string{"w", x}, 1, v+0.125)
					o.store(x, v+0.125, now)
				}
				close(release)
				la, lb := <-ra, <-rb
				expect(a, 1, HalfCircuitMiss)
				switch {
				case !leaderFails:
					if la.v != v || la.err != nil || lb.v != v || lb.err != nil {
						fail("leader (%v, %v), waiter (%v, %v), want both %v", la.v, la.err, lb.v, lb.err, v)
					}
					expect(b, 0, HalfCircuitWait)
					if !dropped {
						o.store(x, v, now)
						wantHooked = append(wantHooked, v)
					}
				case !errors.Is(la.err, errProbe):
					fail("failed leader = (%v, %v)", la.v, la.err)
				default:
					if want, fresh := o.lookup(x, now); fresh {
						if lb.v != want || lb.err != nil {
							fail("waiter after a failed leader = (%v, %v), want the seeded %v", lb.v, lb.err, want)
						}
						expect(b, 0, HalfCircuitWait, HalfCircuitHit)
						break
					}
					if lb.v != vb || lb.err != nil {
						fail("takeover = (%v, %v), want %v", lb.v, lb.err, vb)
					}
					expect(b, 1, HalfCircuitWait, HalfCircuitMiss)
					o.store(x, vb, now)
					wantHooked = append(wantHooked, vb)
				}
			}
			mu.Lock()
			same := slices.Equal(hooked, wantHooked)
			mu.Unlock()
			if !same {
				fail("store hook fired with %v, want %v", hooked, wantHooked)
			}
		}
	}
}

// TestHalfCacheIndexAfterRotation: a rotation clears only the rotated
// relay's slot, so every other relay still answers from the index with the
// cache lock held — a locked consultation would block — and a leader whose
// flight the rotation dropped answers its caller but writes neither the
// map nor the index.
func TestHalfCacheIndexAfterRotation(t *testing.T) {
	names := []string{"x0", "x1", "x2", "x3", "x4"}
	hc := NewHalfCache(0)
	hc.sizeIndex(len(names))
	w := &oracleWorker{waited: make(chan struct{}, 1)}
	obs := &Observer{HalfCircuit: func(_ []string, ev HalfCircuitEvent) { w.events = append(w.events, ev) }}
	m, err := NewMeasurer(Config{Prober: w, W: "w", Z: "z", Samples: 1, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	m.hc, w.m = hc, m
	for i := range names {
		w.probe = func() (float64, error) { return float64(10 + i), nil }
		if v, err := w.halfMin(names, i); v != float64(10+i) || err != nil {
			t.Fatalf("first %s = (%v, %v)", names[i], v, err)
		}
	}

	// While rotated's leader is measuring its new identity, its key rotates
	// again: the flight is dropped.
	const rotated = 2
	entered, release := make(chan struct{}), make(chan struct{})
	w.probe = func() (float64, error) {
		close(entered)
		<-release
		return 99, nil
	}
	hc.InvalidateRelay(names[rotated])
	led := make(chan float64, 1)
	go func() {
		v, _ := m.halfMin(context.Background(), []string{"w", names[rotated]}, rotated)
		led <- v
	}()
	select {
	case <-entered:
	case v := <-led:
		t.Fatalf("rotated %s answered %v from its old identity's slot", names[rotated], v)
	}
	if got := hc.InvalidateRelay(names[rotated]); got != 0 {
		t.Errorf("second rotation dropped %d entries, want 0: only a flight was left", got)
	}
	close(release)
	if v := <-led; v != 99 {
		t.Errorf("dropped leader answered %v, want its own series 99", v)
	}
	if s := hc.index[rotated].Load(); s != nil {
		t.Errorf("slot %d holds %v after its relay rotated, want empty", rotated, s.min)
	}

	others := make(chan error, 1)
	hc.mu.Lock()
	go func() {
		for i := range names {
			if i == rotated {
				continue
			}
			w.events = w.events[:0]
			v, err := m.halfMin(context.Background(), []string{"w", names[i]}, i)
			if v != float64(10+i) || err != nil || !slices.Equal(w.events, []HalfCircuitEvent{HalfCircuitHit}) {
				others <- fmt.Errorf("%s = (%v, %v), events %v; want %v from the index", names[i], v, err, w.events, 10+i)
				return
			}
		}
		others <- nil
	}()
	select {
	case err := <-others:
		hc.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		hc.mu.Unlock()
		<-others
		t.Fatal("an unrotated relay consulted the locked map")
	}

	w.probe = func() (float64, error) { return 50, nil }
	if v, err := w.halfMin(names, rotated); v != 50 || err != nil || w.calls != 1 {
		t.Errorf("rotated relay = (%v, %v) after %d prober calls, want its next series 50, measured once", v, err, w.calls)
	}
}
