package ting

import (
	"context"
	"errors"
	"fmt"
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

// TestHalfCacheLeaderFailureTakeover: a waiter whose leader fails measures
// with its own fn instead of inheriting the error, and the failed series is
// never cached.
func TestHalfCacheLeaderFailureTakeover(t *testing.T) {
	c := NewHalfCache(0)
	ev := &halfEvents{}
	obs := ev.observer()
	path := []string{"w", "x"}

	leaderIn := make(chan struct{})
	leaderGo := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, err := c.Do(context.Background(), path, 5, obs,
			func(context.Context) (float64, error) {
				close(leaderIn)
				<-leaderGo
				return 0, errors.New("leader's prober wedged")
			})
		leaderDone <- err
	}()
	<-leaderIn // the flight is registered and in fn

	var takeoverCalls atomic.Int64
	waiterDone := make(chan struct{})
	var waiterVal float64
	var waiterErr error
	go func() {
		defer close(waiterDone)
		waiterVal, waiterErr = c.Do(context.Background(), path, 5, obs,
			func(context.Context) (float64, error) {
				takeoverCalls.Add(1)
				return 77, nil
			})
	}()
	// The waiter must be blocked on the flight before the leader fails.
	for ev.waits.Load() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	close(leaderGo)

	if err := <-leaderDone; err == nil || !strings.Contains(err.Error(), "wedged") {
		t.Fatalf("leader error = %v", err)
	}
	<-waiterDone
	if waiterErr != nil || waiterVal != 77 {
		t.Fatalf("waiter = (%v, %v), want (77, nil)", waiterVal, waiterErr)
	}
	if takeoverCalls.Load() != 1 {
		t.Errorf("takeover measured %d times", takeoverCalls.Load())
	}
	// The takeover shows up as a second miss; the failed series was not
	// cached, the successful one was.
	if ev.misses.Load() != 2 {
		t.Errorf("misses = %d, want 2 (leader + takeover)", ev.misses.Load())
	}
	if len(c.entries) != 1 {
		t.Errorf("Len = %d, want 1 (errors never cached)", len(c.entries))
	}
	if v, err := c.Do(context.Background(), path, 5, obs,
		func(context.Context) (float64, error) {
			t.Error("cached series re-measured after takeover")
			return 0, nil
		}); err != nil || v != 77 {
		t.Errorf("post-takeover hit = (%v, %v)", v, err)
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

// TestScanMemoLapsesWithCacheTTL: a worker's memo answers for a ttl'd cache
// only while the cache's entry would. One worker, pairs in plan order; the
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

// TestHalfCacheCancelledWaiter: a waiter whose own context dies while the
// leader is still measuring returns promptly with the context error; the
// leader is unaffected.
func TestHalfCacheCancelledWaiter(t *testing.T) {
	c := NewHalfCache(0)
	ev := &halfEvents{}
	obs := ev.observer()
	path := []string{"w", "x"}

	leaderIn := make(chan struct{})
	leaderGo := make(chan struct{})
	leaderDone := make(chan float64, 1)
	go func() {
		v, _ := c.Do(context.Background(), path, 5, obs,
			func(context.Context) (float64, error) {
				close(leaderIn)
				<-leaderGo
				return 55, nil
			})
		leaderDone <- v
	}()
	<-leaderIn

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, err := c.Do(ctx, path, 5, obs,
			func(context.Context) (float64, error) {
				t.Error("cancelled waiter measured")
				return 0, nil
			})
		waiterDone <- err
	}()
	for ev.waits.Load() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	select {
	case err := <-waiterDone:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("waiter error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter still blocked on the flight")
	}
	close(leaderGo)
	if v := <-leaderDone; v != 55 {
		t.Errorf("leader = %v, want 55", v)
	}
}

// TestHalfCacheRotationDropsFlight: a half series in flight when its relay
// rotates still answers the caller waiting on it, but its pre-rotation
// minimum is neither stored nor handed to the store hook (the checkpoint),
// so the next Do measures the relay's new identity.
func TestHalfCacheRotationDropsFlight(t *testing.T) {
	c := NewHalfCache(0)
	var stored []float64
	var storedMu sync.Mutex
	c.SetStoreHook(func(_ []string, _ int, min float64) {
		storedMu.Lock()
		stored = append(stored, min)
		storedMu.Unlock()
	})
	ev := &halfEvents{}
	obs := ev.observer()
	path := []string{"w", "x"}

	leaderIn := make(chan struct{})
	leaderGo := make(chan struct{})
	leaderDone := make(chan float64, 1)
	go func() {
		v, _ := c.Do(context.Background(), path, 5, obs,
			func(context.Context) (float64, error) {
				close(leaderIn)
				<-leaderGo
				return 40, nil
			})
		leaderDone <- v
	}()
	<-leaderIn
	waiterDone := make(chan float64, 1)
	go func() {
		v, _ := c.Do(context.Background(), path, 5, obs,
			func(context.Context) (float64, error) {
				t.Error("waiter measured instead of joining the flight")
				return 0, nil
			})
		waiterDone <- v
	}()
	for ev.waits.Load() == 0 {
		time.Sleep(100 * time.Microsecond)
	}

	c.InvalidateRelay("x")
	close(leaderGo)
	if v := <-leaderDone; v != 40 {
		t.Errorf("leader = %v, want its own series, 40", v)
	}
	if v := <-waiterDone; v != 40 {
		t.Errorf("waiter = %v, want the flight's answer, 40", v)
	}

	measured := false
	v, err := c.Do(context.Background(), path, 5, obs,
		func(context.Context) (float64, error) {
			measured = true
			return 45, nil
		})
	if err != nil || !measured || v != 45 {
		t.Errorf("Do after the rotation = (%v, %v), measured %v; want the new identity measured, 45", v, err, measured)
	}
	storedMu.Lock()
	defer storedMu.Unlock()
	if len(stored) != 1 || stored[0] != 45 {
		t.Errorf("store hook saw %v, want only the post-rotation series [45]", stored)
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
