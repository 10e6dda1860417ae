package ting

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	mrand "math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ting/internal/directory"
	"ting/internal/faults"
	"ting/internal/geo"
	"ting/internal/inet"
	"ting/internal/onion"
	"ting/internal/telemetry"
	"ting/internal/tornet"
)

// churnDesc builds a publishable descriptor with a seed-determined onion
// key, so two calls with different seeds model a key rotation of the same
// nickname.
func churnDesc(t testing.TB, name string, seed int64) *directory.Descriptor {
	t.Helper()
	id, err := onion.NewIdentity(mrand.New(mrand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return &directory.Descriptor{
		Nickname:      name,
		Addr:          "addr-" + name,
		OnionKey:      id.Public(),
		BandwidthKBps: 100,
	}
}

// statScan is a scan over names carrying only what its per-relay state
// needs: adaptive deadlines clamped to [50ms, 1s], the matrix and the
// schedule a join grows, and no Directory, log or cache.
func statScan(t *testing.T, obs *Observer, names ...string) *scan {
	t.Helper()
	m, err := NewMatrix(names)
	if err != nil {
		t.Fatal(err)
	}
	sc := &scan{
		s:      &Scanner{AdaptiveDeadline: true, MinPairTimeout: 50 * time.Millisecond, PairTimeout: time.Second, Observer: obs},
		m:      m,
		relays: make([]relayState, len(names)),
		fps:    make(map[string]string),
		// One pair still open, so a join is not too late to be scheduled.
		sched: newSchedule([]pairJob{{x: 0, y: 1}}, 1, false),
	}
	sc.names.Store(&names)
	return sc
}

// observeN feeds n identical attempt durations of pair (x, y).
func observeN(sc *scan, x, y int32, n int, d time.Duration) {
	for i := 0; i < n; i++ {
		sc.observe(pairJob{x: x, y: y}, d)
	}
}

func TestDeadlineEstimator(t *testing.T) {
	var sets atomic.Int64
	obs := &Observer{DeadlineSet: func(x, y string, d time.Duration) { sets.Add(1) }}
	sc := statScan(t, obs, "a", "b", "c", "d", "e", "f", "g", "h")
	deadline := func(x, y int32) (time.Duration, bool) { return sc.deadline(pairJob{x: x, y: y}) }

	if _, ok := deadline(0, 1); ok {
		t.Fatal("estimator ready before any observation")
	}
	observeN(sc, 0, 1, 2, 100*time.Millisecond)
	if _, ok := deadline(0, 1); ok {
		t.Fatal("estimator ready before warmup")
	}
	observeN(sc, 0, 1, 1, 100*time.Millisecond)
	d, ok := deadline(0, 1)
	if !ok {
		t.Fatal("estimator not ready after warmup")
	}
	// Identical observations: mean 100ms, deviation 0 — the bound is the
	// mean itself, above the 50ms floor and below the 1s ceiling.
	if d != 100*time.Millisecond {
		t.Errorf("deadline = %v, want 100ms", d)
	}
	if sets.Load() == 0 {
		t.Error("DeadlineSet observer never fired")
	}

	// The pair is bounded by its SLOWER relay, so an asymmetric pair is
	// not strangled by its fast end.
	observeN(sc, 2, 3, 3, 400*time.Millisecond)
	if d, _ := deadline(0, 2); d != 400*time.Millisecond {
		t.Errorf("mixed-pair deadline = %v, want the slower relay's 400ms", d)
	}

	// Floor clamp: a streak of near-zero observations cannot emit less
	// than the floor.
	observeN(sc, 4, 5, 3, time.Millisecond)
	if d, _ := deadline(4, 5); d != 50*time.Millisecond {
		t.Errorf("deadline = %v, want the 50ms floor", d)
	}

	// Ceiling clamp.
	observeN(sc, 6, 7, 3, 10*time.Second)
	if d, _ := deadline(6, 7); d != time.Second {
		t.Errorf("deadline = %v, want the 1s ceiling", d)
	}

	// A rotation drops the relay's history; the pair falls back to the
	// global statistic instead of the forgotten one.
	sc.rotate("g", "", 1)
	sc.rotate("h", "", 1)
	if _, ok := deadline(6, 7); !ok {
		t.Error("after a rotation, the global statistic should still answer")
	}
	if sc.relays[6].lat.n != 0 {
		t.Error("the rotation left the relay's statistics behind")
	}
}

// TestDeadlineStatsFollowJoinAndRotation drives the per-relay statistics
// through a join and a rotation: the joined relay's statistic lives at its
// new matrix index, past the slice the scan began with, and a rotation
// forgets only the rotated relay, which falls back to the global statistic
// while its pair partner keeps its history.
func TestDeadlineStatsFollowJoinAndRotation(t *testing.T) {
	sc := statScan(t, nil, "a", "b", "c")
	deadline := func(x, y int32) time.Duration {
		t.Helper()
		d, ok := sc.deadline(pairJob{x: x, y: y})
		if !ok {
			t.Fatalf("no deadline for (%d,%d)", x, y)
		}
		return d
	}
	observeN(sc, 0, 1, 3, 100*time.Millisecond)

	sc.join("d", "fp-d", 1)
	d, ok := sc.m.Index("d")
	if !ok || d != 3 || len(sc.relays) != 4 {
		t.Fatalf("join: d at %d (%v), %d relay states; want index 3 of 4", d, ok, len(sc.relays))
	}
	observeN(sc, 3, 2, 3, 400*time.Millisecond)
	if got := deadline(3, 0); got != 400*time.Millisecond {
		t.Errorf("joined relay's deadline against a = %v, want its own 400ms", got)
	}
	sc.join("e", "fp-e", 2) // never observed: a pair with e reads d's statistic alone
	if got := deadline(3, 4); got != 400*time.Millisecond {
		t.Errorf("deadline (d,e) before the rotation = %v, want d's 400ms", got)
	}

	sc.rotate("d", "fp-d2", 3)
	for i, want := range []int{3, 3, 3, 0, 0} {
		if n := sc.relays[i].lat.n; n != want {
			t.Errorf("after rotating d: relay %d has %d observations, want %d", i, n, want)
		}
	}
	// d falls back to the global statistic: 100ms three times, then 400ms
	// three times.
	var g ewmaStat
	for _, ms := range []time.Duration{100, 100, 100, 400, 400, 400} {
		g.observe(ms * time.Millisecond)
	}
	if got, want := deadline(3, 4), time.Duration(g.bound()*float64(time.Millisecond)); got != want {
		t.Errorf("deadline (d,e) after the rotation = %v, want the global %v", got, want)
	}
	if got := deadline(3, 2); got != 400*time.Millisecond {
		t.Errorf("deadline (d,c) after the rotation = %v, want c's kept 400ms", got)
	}
}

func TestHalfCacheInvalidateRelay(t *testing.T) {
	hc := NewHalfCache(0)
	hc.Seed([]string{"w", "x"}, 2, 40)
	hc.Seed([]string{"w", "y"}, 2, 50)
	hc.Seed([]string{"w", "x", "q"}, 2, 70)
	hc.Seed([]string{"w", "xx"}, 2, 10) // name-prefix trap: must survive
	if n := hc.InvalidateRelay("x"); n != 2 {
		t.Errorf("InvalidateRelay dropped %d series, want 2", n)
	}
	if len(hc.entries) != 2 {
		t.Errorf("cache holds %d series after invalidation, want 2", len(hc.entries))
	}
	if n := hc.InvalidateRelay("x"); n != 0 {
		t.Errorf("second invalidation dropped %d series, want 0", n)
	}
}

func TestHealthReset(t *testing.T) {
	var transitions []string
	obs := &Observer{BreakerChange: func(relay string, from, to BreakerState) {
		transitions = append(transitions, fmt.Sprintf("%s:%v->%v", relay, from, to))
	}}
	h := NewHealth(HealthConfig{FailureThreshold: 2, Cooldown: time.Hour, Observer: obs})
	boom := errors.New("boom")
	h.Failure("x", boom, 0)
	h.Failure("x", boom, 0)
	if h.state("x") != BreakerOpen {
		t.Fatalf("state = %v after threshold failures, want open", h.state("x"))
	}
	if qe := h.Allow("x", "y"); qe == nil {
		t.Fatal("open breaker granted a probe before cooldown")
	}
	h.Reset("x")
	if h.state("x") != BreakerClosed {
		t.Errorf("state = %v after Reset, want closed", h.state("x"))
	}
	if qe := h.Allow("x", "y"); qe != nil {
		t.Errorf("Allow after Reset = %v, want nil", qe)
	}
	want := 2 // closed->open on the threshold failure, open->closed on Reset
	if len(transitions) != want {
		t.Errorf("breaker transitions = %v, want %d entries", transitions, want)
	}
}

func TestMatrixAddNameGrowsProvenance(t *testing.T) {
	m, err := NewMatrix([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddName("c"); err != nil {
		t.Fatal(err)
	}
	if m.N() != 3 {
		t.Fatalf("N = %d after AddName, want 3", m.N())
	}
	if err := m.Set("a", "c", 12.5); err != nil {
		t.Fatal(err)
	}
	if err := m.SetProv("a", "c", ProvFresh); err != nil {
		t.Fatal(err)
	}
	if err := m.SetProv("b", "c", ProvRemoved); err != nil {
		t.Fatal(err)
	}
	pc := m.ProvCounts()
	if pc.Fresh != 1 || pc.Resumed != 0 || pc.Removed != 1 || pc.Missing != 1 {
		t.Errorf("ProvCounts = %+v, want 1/0/1/1", pc)
	}
	if err := m.AddName("a"); err == nil {
		t.Error("AddName accepted a duplicate name")
	}
}

func TestReplayStateFoldsChurnRecords(t *testing.T) {
	cp := &MemCheckpoint{}
	must := func(rec CheckpointRecord) {
		t.Helper()
		if err := cp.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	must(CheckpointRecord{Kind: RecordCampaign, Names: []string{"a", "b", "c"},
		Epoch: 3, Fps: map[string]string{"a": "f1", "b": "f2", "c": "f3"}})
	must(CheckpointRecord{Kind: RecordPair, J: 1, RTT: 1.5})
	must(CheckpointRecord{Kind: RecordChurn, Op: ChurnOpLeave, Relay: "c", Epoch: 4})
	must(CheckpointRecord{Kind: RecordChurn, Op: ChurnOpJoin, Relay: "d", Fp: "f4", Epoch: 5})
	must(CheckpointRecord{Kind: RecordChurn, Op: ChurnOpRotate, Relay: "a", Fp: "f9", Epoch: 6})
	must(CheckpointRecord{Kind: RecordChurn, Op: ChurnOpLeave, Relay: "d", Epoch: 7})
	must(CheckpointRecord{Kind: RecordChurn, Op: ChurnOpJoin, Relay: "d", Fp: "f5", Epoch: 8})

	st, err := ReplayState(cp)
	if err != nil {
		t.Fatal(err)
	}
	// Departures fold into nothing (Resume reads them off the live
	// consensus); the log keeps each one with its epoch.
	var left []string
	for _, rec := range logRecords(t, cp) {
		if rec.Kind == RecordChurn && rec.Op == ChurnOpLeave {
			left = append(left, fmt.Sprintf("%s@%d", rec.Relay, rec.Epoch))
		}
	}
	if got := strings.Join(left, " "); got != "c@4 d@7" {
		t.Errorf("leave records = %q, want \"c@4 d@7\"", got)
	}
	if got := st.Matrix.Names(); !slices.Equal(got, []string{"a", "b", "c", "d"}) {
		t.Errorf("replayed names = %v, want the header then d, deduplicated", got)
	}
	if st.Fps["a"] != "f9" || st.Fps["d"] != "f5" || st.Fps["b"] != "f2" {
		t.Errorf("Fps = %v, want rotation and rejoin to win", st.Fps)
	}

	bad := &MemCheckpoint{}
	_ = bad.Append(CheckpointRecord{Kind: RecordCampaign, Names: []string{"a", "b"}})
	_ = bad.Append(CheckpointRecord{Kind: RecordChurn, Op: "frobnicate", Relay: "a"})
	if _, err := ReplayState(bad); err == nil {
		t.Error("unknown churn op replayed without error")
	}
	bad2 := &MemCheckpoint{}
	_ = bad2.Append(CheckpointRecord{Kind: RecordCampaign, Names: []string{"a", "b"}})
	_ = bad2.Append(CheckpointRecord{Kind: RecordChurn, Op: ChurnOpLeave})
	if _, err := ReplayState(bad2); err == nil {
		t.Error("churn record without a relay replayed without error")
	}
}

// hookProber runs a hook before every circuit sample — the test's lever
// for triggering consensus churn at an exact point of the scan, from the
// worker goroutine (where no scanner lock is held).
type hookProber struct {
	f    *fakeProber
	hook func(path []string)
}

func (p *hookProber) SampleCircuit(ctx context.Context, path []string, n int) ([]float64, error) {
	if p.hook != nil {
		p.hook(path)
	}
	return p.f.SampleCircuit(ctx, path, n)
}

// drainChurn consumes buffered churn events until one of the wanted kind
// arrives (or a timeout turns into a test error — never a hang).
func drainChurn(t testing.TB, ch <-chan ChurnEvent, kind ChurnKind) {
	deadline := time.NewTimer(10 * time.Second)
	defer deadline.Stop()
	for {
		select {
		case ev := <-ch:
			if ev.Kind == kind {
				return
			}
		case <-deadline.C:
			t.Errorf("timed out waiting for churn event %v", kind)
			return
		}
	}
}

func pathHas(path []string, name string) bool {
	for _, r := range path {
		if r == name {
			return true
		}
	}
	return false
}

// TestScanLosesConsensusHistory: a scan whose view of the consensus falls
// further behind than the directory's bounded history cannot know who left.
// Here v departs and the history turns over between the scan's snapshot and
// its first read of it (NewMeasurer runs in that gap); the scan must stop
// with an error naming the epoch it lost, not measure v as if it were there.
func TestScanLosesConsensusHistory(t *testing.T) {
	f := bigFakeWorld()
	reg := directory.NewRegistry()
	for i, name := range []string{"x", "y", "u", "v"} {
		if err := reg.Publish(churnDesc(t, name, int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	passer := churnDesc(t, "passer", 77)
	sc := &Scanner{
		NewMeasurer: func(worker int) (*Measurer, error) {
			reg.Remove("v")
			// Two deltas a round: more than the history's 1024 in all.
			for i := 0; i < 520; i++ {
				if err := reg.Publish(passer); err != nil {
					return nil, err
				}
				reg.Remove("passer")
			}
			return NewMeasurer(Config{Prober: f, W: "w", Z: "z", Samples: 1})
		},
		Workers:   1,
		Directory: reg,
	}
	m, failures, err := sc.Scan(context.Background(), []string{"x", "y", "u", "v"})
	if err == nil || !strings.Contains(err.Error(), "consensus history") || !strings.Contains(err.Error(), "epoch 4") {
		measured := 0
		if m != nil {
			for _, other := range []string{"x", "y", "u"} {
				if m.Prov(other, "v") == ProvFresh {
					measured++
				}
			}
		}
		t.Fatalf("scan err = %v (%d failures, %d pairs of the departed v measured); want an error naming the consensus history lost after epoch 4",
			err, len(failures), measured)
	}
}

// TestScanChurnRemoveJoinMidScan is the seeded churn acceptance test: one
// relay (v) leaves the consensus mid-scan and another (q) joins. The scan
// must complete without burning retries on v's pairs, tombstone exactly the
// pairs touching v, measure q against every survivor — and a Resume from
// the pre-churn checkpoint prefix must reconcile against the post-churn
// consensus to a bytewise-identical matrix.
func TestScanChurnRemoveJoinMidScan(t *testing.T) {
	f := bigFakeWorld()
	f.fwd["q"] = 0.5
	for _, peer := range []string{"h", "w", "z", "x", "y", "u", "v"} {
		f.rtt[[2]string{peer, "q"}] = 30
	}

	reg := directory.NewRegistry()
	for i, name := range []string{"x", "y", "u", "v"} {
		if err := reg.Publish(churnDesc(t, name, int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	qDesc := churnDesc(t, "q", 99)

	churnCh := make(chan ChurnEvent, 64)
	var retries atomic.Int64
	obs := &Observer{
		Churn: func(ev ChurnEvent) { churnCh <- ev },
		Retry: func(x, y string, attempt int, delay time.Duration, err error) { retries.Add(1) },
	}

	// The hook fires once, on the first circuit that touches v (the pair
	// (x,v) with one worker and reuse-aware order): v starts failing, is
	// removed from the consensus, and q is published. Both deltas are
	// awaited so the scanner has reconciled before the sample proceeds.
	// Workers: 1, so the hook and every errs read share one goroutine.
	var once sync.Once
	hook := func(path []string) {
		if !pathHas(path, "v") {
			return
		}
		once.Do(func() {
			f.errs["v"] = errors.New("circuit destroyed: relay departing")
			if !reg.Remove("v") {
				t.Error("Remove(v) found no relay")
			}
			drainChurn(t, churnCh, ChurnRemoved)
			if err := reg.Publish(qDesc); err != nil {
				t.Error(err)
			}
			drainChurn(t, churnCh, ChurnJoined)
		})
	}

	cp1 := &MemCheckpoint{}
	var lastDone, lastTotal int
	var progMu sync.Mutex
	sc := &Scanner{
		NewMeasurer: func(worker int) (*Measurer, error) {
			return NewMeasurer(Config{Prober: &hookProber{f: f, hook: hook}, W: "w", Z: "z", Samples: 1})
		},
		Workers:    1,
		Retry:      2, // must stay unspent: tombstones bypass the retry budget
		Directory:  reg,
		Checkpoint: cp1,
		Observer:   obs,
		Progress: func(done, total int) {
			progMu.Lock()
			lastDone, lastTotal = done, total
			progMu.Unlock()
		},
	}

	m1, failures, err := sc.Scan(context.Background(), []string{"x", "y", "u", "v"})
	// No SkipFailures: churn tombstones must not abort even a non-tolerant
	// scan.
	if err != nil {
		t.Fatalf("scan err = %v, want nil (tombstones never abort)", err)
	}
	if got := retries.Load(); got != 0 {
		t.Errorf("retries = %d, want 0 — tombstoned pairs must not burn the retry budget", got)
	}
	if len(failures) != 3 {
		t.Fatalf("failures = %v, want the 3 pairs touching v", failures)
	}
	for _, pe := range failures {
		var ce *ChurnError
		if !errors.As(pe.Err, &ce) || !errors.Is(pe.Err, ErrChurned) {
			t.Errorf("pair (%s,%s) failed with %v, want *ChurnError", pe.X, pe.Y, pe.Err)
			continue
		}
		if ce.Relay != "v" || ce.Epoch != 5 {
			t.Errorf("pair (%s,%s): churn error %+v, want relay v at epoch 5", pe.X, pe.Y, ce)
		}
		if pe.X != "v" && pe.Y != "v" {
			t.Errorf("pair (%s,%s) tombstoned but does not touch v", pe.X, pe.Y)
		}
	}

	wantNames := []string{"x", "y", "u", "v", "q"}
	if len(m1.Names()) != len(wantNames) {
		t.Fatalf("matrix names = %v, want %v", m1.Names(), wantNames)
	}
	for i, n := range wantNames {
		if m1.Names()[i] != n {
			t.Fatalf("matrix names = %v, want %v", m1.Names(), wantNames)
		}
	}
	pc1 := m1.ProvCounts()
	if pc1.Fresh != 6 || pc1.Resumed != 0 || pc1.Removed != 3 || pc1.Missing != 1 {
		t.Errorf("provenance = %+v, want 6 fresh, 3 removed, 1 missing (v,q)", pc1)
	}
	if p := m1.Prov("v", "q"); p != ProvMissing {
		t.Errorf("Prov(v,q) = %v, want missing — the ghost pair must never be scheduled", p)
	}
	for _, peer := range []string{"x", "y", "u"} {
		rtt, err := m1.RTT("q", peer)
		if err != nil || rtt <= 0 {
			t.Errorf("RTT(q,%s) = (%v, %v), want a fresh measurement for the joined relay", peer, rtt, err)
		}
	}
	progMu.Lock()
	if lastDone != 9 || lastTotal != 9 {
		t.Errorf("final progress %d/%d, want 9/9 (6 initial + 3 joined pairs)", lastDone, lastTotal)
	}
	progMu.Unlock()
	tombstoneEvents := 0
	for {
		select {
		case ev := <-churnCh:
			if ev.Kind == ChurnTombstoned {
				tombstoneEvents += ev.Tombstoned
			}
		default:
			if tombstoneEvents != 3 {
				t.Errorf("ChurnTombstoned events covered %d pairs, want 3", tombstoneEvents)
			}
			goto resume
		}
	}

resume:
	// The campaign header must pin the pre-churn consensus.
	var header CheckpointRecord
	gotHeader := false
	_ = cp1.Replay(func(rec CheckpointRecord) error {
		if !gotHeader && rec.Kind == RecordCampaign {
			header, gotHeader = rec, true
		}
		return nil
	})
	if !gotHeader || header.Epoch != 4 || len(header.Fps) != 4 {
		t.Fatalf("campaign header = %+v, want epoch 4 with 4 fingerprints", header)
	}

	// Resume from the pre-churn prefix of the log — the campaign as a
	// crash would have left it just before the churn hit — against the
	// post-churn consensus. Reconciliation must converge to the same
	// matrix, bytewise.
	pre := &MemCheckpoint{}
	cut := false
	_ = cp1.Replay(func(rec CheckpointRecord) error {
		if cut || rec.Kind == RecordChurn {
			cut = true
			return nil
		}
		return pre.Append(rec)
	})
	if !cut {
		t.Fatal("no churn record reached the checkpoint log")
	}

	f2 := bigFakeWorld()
	f2.fwd["q"] = 0.5
	for _, peer := range []string{"h", "w", "z", "x", "y", "u", "v"} {
		f2.rtt[[2]string{peer, "q"}] = 30
	}
	sc2 := &Scanner{
		NewMeasurer: func(worker int) (*Measurer, error) {
			return NewMeasurer(Config{Prober: f2, W: "w", Z: "z", Samples: 1})
		},
		Workers:   1,
		Directory: reg,
	}
	m2, failures2, err := sc2.Resume(context.Background(), pre)
	if err != nil {
		t.Fatalf("resume err = %v (failures: %v)", err, failures2)
	}
	// The resume settles (v,q) too — a build-time tombstone instead of the
	// live scan's never-scheduled ghost pair — so it reports 4 churned
	// pairs, but the matrix VALUES are identical.
	pc2 := m2.ProvCounts()
	if pc2.Fresh != 4 || pc2.Resumed != 2 || pc2.Removed != 4 || pc2.Missing != 0 {
		t.Errorf("resume provenance = %+v, want 4/2/4/0", pc2)
	}
	for _, pe := range failures2 {
		if !errors.Is(pe.Err, ErrChurned) {
			t.Errorf("resume pair (%s,%s) failed with %v, want churn tombstones only", pe.X, pe.Y, pe.Err)
		}
	}
	if d := diffValues(m1, m2); d != "" {
		t.Errorf("resumed matrix differs from the live scan's: %s", d)
	}
}

// pairSignal is a MemCheckpoint that closes seen when the first pair record
// of relay index relay is appended.
type pairSignal struct {
	*MemCheckpoint
	relay int
	seen  chan struct{}
	once  sync.Once
}

func (c *pairSignal) Append(rec CheckpointRecord) error {
	err := c.MemCheckpoint.Append(rec)
	if rec.Kind == RecordPair && (rec.I == c.relay || rec.J == c.relay) {
		c.once.Do(func() { close(c.seen) })
	}
	return err
}

// TestCheckpointJoinPrecedesItsPairs: a relay that joins mid-scan has its
// join logged before any of its pairs, so a log cut after a flush never
// holds a pair of a relay it has not introduced. The observer holds q's
// join until one of q's pair records is appended (or 200 ms pass): were
// q's pairs scheduled before the join is logged, a second worker would
// measure one and log it first.
func TestCheckpointJoinPrecedesItsPairs(t *testing.T) {
	f := bigFakeWorld()
	f.fwd["q"] = 0.5
	for _, peer := range []string{"h", "w", "z", "x", "y", "u", "v"} {
		f.rtt[[2]string{peer, "q"}] = 30
	}
	reg := directory.NewRegistry()
	for i, name := range []string{"x", "y", "u", "v"} {
		if err := reg.Publish(churnDesc(t, name, int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	qDesc := churnDesc(t, "q", 99)

	// q is the first relay to join x, y, u, v: index 4.
	cp := &pairSignal{MemCheckpoint: &MemCheckpoint{}, relay: 4, seen: make(chan struct{})}
	joining := make(chan struct{})
	var joinOnce sync.Once
	obs := &Observer{Churn: func(ev ChurnEvent) {
		if ev.Kind != ChurnJoined || ev.Relay != "q" {
			return
		}
		joinOnce.Do(func() { close(joining) })
		select {
		case <-cp.seen:
		case <-time.After(200 * time.Millisecond):
		}
	}}
	// The first circuit publishes q and holds its pair until the scan is
	// logging q's join, so the scan cannot finish before q joins; the
	// other worker stays free to measure whatever is scheduled.
	var fired atomic.Bool
	hook := func([]string) {
		if !fired.CompareAndSwap(false, true) {
			return
		}
		if err := reg.Publish(qDesc); err != nil {
			t.Error(err)
			return
		}
		select {
		case <-joining:
		case <-time.After(10 * time.Second):
			t.Error("q's join never reached the observer")
		}
	}
	sc := &Scanner{
		NewMeasurer: func(worker int) (*Measurer, error) {
			return NewMeasurer(Config{Prober: &hookProber{f: f, hook: hook}, W: "w", Z: "z", Samples: 1})
		},
		Workers:    2,
		Directory:  reg,
		Checkpoint: cp,
		Observer:   obs,
	}
	m, _, err := sc.Scan(context.Background(), []string{"x", "y", "u", "v"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Index("q"); !ok {
		t.Fatal("q never joined the scan")
	}
	var space indexSpace
	qPairs := 0
	for k, rec := range logRecords(t, cp) {
		space.add(rec)
		if rec.Kind != RecordPair {
			continue
		}
		x, y, ok := space.pair(rec)
		if !ok {
			t.Errorf("record %d: pair (%d,%d) logged before the header or a join introduced it", k, rec.I, rec.J)
		}
		if x == "q" || y == "q" {
			qPairs++
		}
	}
	if qPairs == 0 {
		t.Error("no pair of q reached the log")
	}
}

// TestScanChurnRotationInvalidatesHalves: a mid-scan key rotation (same
// nickname, new onion key) must drop the relay's memoized half circuits —
// they describe the old incarnation — while completed pair RTTs are kept.
func TestScanChurnRotationInvalidatesHalves(t *testing.T) {
	f := bigFakeWorld()
	reg := directory.NewRegistry()
	for i, name := range []string{"x", "y", "u", "v"} {
		if err := reg.Publish(churnDesc(t, name, int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}

	churnCh := make(chan ChurnEvent, 16)
	hc := NewHalfCache(0)
	// Rotate x's key while the final pair (u,v) samples its full circuit;
	// x's pairs are all complete by then, so nothing repopulates its halves.
	var once sync.Once
	hook := func(path []string) {
		if !pathHas(path, "u") || !pathHas(path, "v") {
			return
		}
		once.Do(func() {
			if err := reg.Update(churnDesc(t, "x", 1000)); err != nil {
				t.Error(err)
			}
			drainChurn(t, churnCh, ChurnRotated)
		})
	}
	sc := &Scanner{
		NewMeasurer: func(worker int) (*Measurer, error) {
			return NewMeasurer(Config{Prober: &hookProber{f: f, hook: hook}, W: "w", Z: "z", Samples: 1})
		},
		Workers:      1,
		halfCircuits: hc,
		Directory:    reg,
		Observer:     &Observer{Churn: func(ev ChurnEvent) { churnCh <- ev }},
	}
	m, failures, err := sc.Scan(context.Background(), []string{"x", "y", "u", "v"})
	if err != nil || len(failures) != 0 {
		t.Fatalf("scan = (%v, %v), want clean", failures, err)
	}
	// Four half-circuit series were memoized; the rotation dropped x's.
	if len(hc.entries) != 3 {
		t.Errorf("half cache holds %d series after rotation, want 3 (x invalidated)", len(hc.entries))
	}
	if n := hc.InvalidateRelay("x"); n != 0 {
		t.Errorf("x still had %d cached series after the rotation", n)
	}
	// Rotation keeps measured data: every pair has a value.
	if rtt, err := m.RTT("x", "y"); err != nil || rtt <= 0 {
		t.Errorf("RTT(x,y) = (%v, %v): rotation must not discard completed pairs", rtt, err)
	}
}

// rotatingProber answers every circuit with the sum of its hops' delays,
// except that once rotated is set the half circuit (w, x) answers shift ms
// more: the rotated relay's new incarnation.
type rotatingProber struct {
	delay   map[string]float64
	x       string
	shift   float64
	rotated *atomic.Bool
	hook    func(path []string)
}

func (p *rotatingProber) SampleCircuit(ctx context.Context, path []string, n int) ([]float64, error) {
	p.hook(path)
	var v float64
	for _, r := range path {
		v += p.delay[r]
	}
	if len(path) == 2 && path[1] == p.x && p.rotated.Load() {
		v += p.shift
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out, nil
}

// TestScanRotationMidGroupRemeasuresHalfOnce rotates x's key while x's
// group still has pairs queued. The workers' half-circuit memos must let go
// of x's minimum: the remaining pairs re-measure C_x exactly once between
// them (N + 1 misses in all) and every one of them estimates with the new
// minimum, while the pairs measured before keep the old.
func TestScanRotationMidGroupRemeasuresHalfOnce(t *testing.T) {
	const (
		n     = 12
		k     = 4 // x's key rotates during pair (x, names[k])'s full circuit
		shift = 8.0
	)
	reg := directory.NewRegistry()
	names := make([]string, n)
	delay := map[string]float64{"w": 0, "z": 0}
	for i := range names {
		names[i] = fmt.Sprintf("r%02d", i)
		delay[names[i]] = float64(10 + i)
		if err := reg.Publish(churnDesc(t, names[i], int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	x := names[0] // the first group, all on one worker, in order

	churnCh := make(chan ChurnEvent, 16)
	var rotated atomic.Bool
	var once sync.Once
	hook := func(path []string) {
		if len(path) != 4 || path[1] != x || path[2] != names[k] {
			return
		}
		once.Do(func() {
			rotated.Store(true)
			if err := reg.Update(churnDesc(t, x, 1000)); err != nil {
				t.Error(err)
			}
			drainChurn(t, churnCh, ChurnRotated)
		})
	}
	ev := &halfEvents{}
	obs := ev.observer()
	obs.Churn = func(ev ChurnEvent) { churnCh <- ev }
	sc := &Scanner{
		NewMeasurer: func(worker int) (*Measurer, error) {
			p := &rotatingProber{delay: delay, x: x, shift: shift, rotated: &rotated, hook: hook}
			return NewMeasurer(Config{Prober: p, W: "w", Z: "z", Samples: 1, Observer: obs})
		},
		Workers:   2,
		Directory: reg,
		Observer:  obs,
	}
	m, failures, err := sc.Scan(context.Background(), names)
	if err != nil || len(failures) != 0 {
		t.Fatalf("scan = (%v, %v), want clean", failures, err)
	}
	if !rotated.Load() {
		t.Fatal("the rotation never happened")
	}
	pairs := n * (n - 1) / 2
	if got := ev.misses.Load(); got != n+1 {
		t.Errorf("half-circuit misses = %d, want N + 1 = %d: x re-measured exactly once", got, n+1)
	}
	if got := ev.hits.Load() + ev.waits.Load() + ev.misses.Load(); got != int64(2*pairs) {
		t.Errorf("half-circuit consultations = %d, want 2·pairs = %d", got, 2*pairs)
	}
	// Eq. (4) over sums of hop delays: (d_x + d_y)/2, less shift/2 once C_x
	// carries the new incarnation.
	for j := 1; j < n; j++ {
		want := (delay[x] + delay[names[j]]) / 2
		if j > k {
			want -= shift / 2
		}
		if got, _ := m.RTT(x, names[j]); got != want {
			t.Errorf("RTT(%s,%s) = %v, want %v (pair %d of x's group, rotation during pair %d)", x, names[j], got, want, j, k)
		}
	}
}

// wedgeProber wedges the full circuit of one pair until its context
// deadline; everything else answers from the link map instantly. A delay
// turns the wedge into a legitimate slow pair instead, stalling for what
// it returns at the time of the call.
type wedgeProber struct {
	f          *fakeProber
	x, y       string
	delay      func() time.Duration
	slowCalls  atomic.Int64
	totalCalls atomic.Int64
}

func (p *wedgeProber) SampleCircuit(ctx context.Context, path []string, n int) ([]float64, error) {
	p.totalCalls.Add(1)
	if pathHas(path, p.x) && pathHas(path, p.y) {
		p.slowCalls.Add(1)
		if p.delay == nil {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(p.delay()):
		}
	}
	return p.f.SampleCircuit(ctx, path, n)
}

// TestScannerAdaptiveDeadlineCutsTail: with adaptive deadlines on, a
// wedged pair costs roughly MinPairTimeout instead of the full PairTimeout.
func TestScannerAdaptiveDeadlineCutsTail(t *testing.T) {
	f := bigFakeWorld()
	p := &wedgeProber{f: f, x: "u", y: "v"} // (u,v) runs last in reuse-aware order
	var deadlines atomic.Int64
	sc := &Scanner{
		NewMeasurer: func(worker int) (*Measurer, error) {
			return NewMeasurer(Config{Prober: p, W: "w", Z: "z", Samples: 1})
		},
		Workers:          1,
		SkipFailures:     true,
		PairTimeout:      10 * time.Second,
		AdaptiveDeadline: true,
		MinPairTimeout:   30 * time.Millisecond,
		Observer:         &Observer{DeadlineSet: func(x, y string, d time.Duration) { deadlines.Add(1) }},
	}
	start := time.Now()
	_, failures, err := sc.Scan(context.Background(), []string{"x", "y", "u", "v"})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 1 || failures[0].X != "u" || failures[0].Y != "v" {
		t.Fatalf("failures = %v, want exactly the wedged (u,v)", failures)
	}
	if !errors.Is(failures[0].Err, context.DeadlineExceeded) {
		t.Errorf("wedged pair failed with %v, want deadline exceeded", failures[0].Err)
	}
	// Five fast pairs warm the estimator, then the wedge costs ~30ms, not
	// the 10s fixed timeout. Seconds of headroom for slow CI.
	if elapsed > 5*time.Second {
		t.Errorf("scan took %v; adaptive deadline did not cut the wedged pair's tail", elapsed)
	}
	if deadlines.Load() == 0 {
		t.Error("no adaptive deadline was ever handed out")
	}
}

// TestScannerAdaptiveDeadlineRetryGetsFullTimeout: when the estimator
// strangles a legitimately slow pair, the retry runs with the full
// PairTimeout, so the pair is measured, not lost. The slow pair takes
// twice the adaptive deadline the scan handed it, so its first attempt is
// strangled however far load has stretched what the estimator learned. The
// floor sits well above a loaded host's scheduling stalls, so no fast pair
// is strangled beside it.
func TestScannerAdaptiveDeadlineRetryGetsFullTimeout(t *testing.T) {
	f := bigFakeWorld()
	var uvDeadline atomic.Int64 // the last adaptive deadline set for (u,v)
	p := &wedgeProber{f: f, x: "u", y: "v", delay: func() time.Duration { return 2 * time.Duration(uvDeadline.Load()) }}
	var retries atomic.Int64
	sc := &Scanner{
		NewMeasurer: func(worker int) (*Measurer, error) {
			return NewMeasurer(Config{Prober: p, W: "w", Z: "z", Samples: 1})
		},
		Workers:          1,
		SkipFailures:     true,
		Retry:            1,
		Backoff:          time.Millisecond,
		PairTimeout:      10 * time.Second,
		AdaptiveDeadline: true,
		MinPairTimeout:   200 * time.Millisecond,
		Observer: &Observer{
			Retry: func(x, y string, attempt int, delay time.Duration, err error) { retries.Add(1) },
			DeadlineSet: func(x, y string, d time.Duration) {
				if (x == "u" && y == "v") || (x == "v" && y == "u") {
					uvDeadline.Store(int64(d))
				}
			},
		},
	}
	m, failures, err := sc.Scan(context.Background(), []string{"x", "y", "u", "v"})
	if err != nil {
		t.Fatal(err)
	}
	if uvDeadline.Load() == 0 {
		t.Fatal("the scan never set an adaptive deadline for (u,v)")
	}
	if len(failures) != 0 {
		t.Fatalf("failures = %v, want none — the full-timeout retry must rescue the slow pair", failures)
	}
	if got := retries.Load(); got != 1 {
		t.Errorf("retries = %d, want exactly 1 (the strangled first attempt)", got)
	}
	if rtt, err := m.RTT("u", "v"); err != nil || rtt <= 0 {
		t.Errorf("RTT(u,v) = (%v, %v), want the slow pair measured on retry", rtt, err)
	}
}

// TestScannerDrainMidScanFullStack drains a live overlay relay mid-scan:
// the in-flight and pending pairs touching it must settle as *ChurnError
// tombstones (no retry exhaustion, no abort) while every other pair is
// measured. Run under -race in CI.
func TestScannerDrainMidScanFullStack(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack churn test is seconds-long; skipped in -short")
	}
	topo, err := inet.Generate(inet.Config{N: 4, Seed: 91, FlatRegions: true})
	if err != nil {
		t.Fatal(err)
	}
	host := topo.AddHost("host", geo.Coord{Lat: 40, Lon: -74}, 92)
	n, err := tornet.Build(tornet.Config{Topology: topo, Host: host, TimeScale: 0.06})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	names := make([]string, 4)
	for i := range names {
		names[i], _ = n.NodeName(inet.NodeID(i))
	}
	victim := names[3]

	churnCh := make(chan ChurnEvent, 64)
	var once sync.Once
	sc := &Scanner{
		NewMeasurer: func(worker int) (*Measurer, error) {
			p := &StackProber{
				Client:   n.Client,
				Registry: n.Registry,
				Target:   tornet.EchoTarget,
				ToMs:     n.VirtualMs,
			}
			return NewMeasurer(Config{Prober: p, W: tornet.WName, Z: tornet.ZName, Samples: 2})
		},
		Workers:      2,
		SkipFailures: true,
		Retry:        2,
		Backoff:      50 * time.Millisecond,
		Directory:    n.Registry,
		Observer: &Observer{Churn: func(ev ChurnEvent) {
			select {
			case churnCh <- ev:
			default:
			}
		}},
		Progress: func(done, total int) {
			if done >= 1 {
				once.Do(func() { n.DrainRelay(victim) })
			}
		},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	m, failures, err := sc.Scan(ctx, names)
	if err != nil {
		t.Fatalf("scan err = %v, want graceful completion despite the drain", err)
	}
	for _, pe := range failures {
		if pe.X != victim && pe.Y != victim {
			t.Errorf("pair (%s,%s) failed but does not touch the drained relay: %v", pe.X, pe.Y, pe.Err)
			continue
		}
		if !errors.Is(pe.Err, ErrChurned) {
			t.Errorf("pair (%s,%s) failed with %v, want a churn tombstone", pe.X, pe.Y, pe.Err)
		}
	}
	// Every pair among the survivors must be measured.
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			if rtt, err := m.RTT(names[i], names[j]); err != nil || rtt <= 0 {
				t.Errorf("RTT(%s,%s) = (%v, %v), want measured", names[i], names[j], rtt, err)
			}
		}
	}
	drainChurn(t, churnCh, ChurnRemoved)
}

// TestChurnSoakJoinLeaveCancelResume is the churn soak driven by CI: a
// live overlay with a scheduled mid-campaign join and graceful drain, a
// scan cancelled early, and a resume across the consensus epoch bump that
// must reconcile and finish. Artifacts (checkpoint + consensus log) land in
// TING_SOAK_DIR when set so a failing CI run uploads them.
func TestChurnSoakJoinLeaveCancelResume(t *testing.T) {
	if testing.Short() {
		t.Skip("churn soak is seconds-long; skipped in -short")
	}
	dir := os.Getenv("TING_SOAK_DIR")
	if dir == "" {
		dir = t.TempDir()
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	ckptPath := filepath.Join(dir, "churn-soak.ckpt")
	os.Remove(ckptPath) // a fresh campaign each run
	consensusPath := filepath.Join(dir, "churn-soak.consensus.log")

	topo, err := inet.Generate(inet.Config{N: 6, Seed: 81, FlatRegions: true})
	if err != nil {
		t.Fatal(err)
	}
	host := topo.AddHost("host", geo.Coord{Lat: 40, Lon: -74}, 82)
	plan := faults.NewPlan(83)
	joiner := topo.Node(4).Name
	leaver := topo.Node(5).Name
	plan.SetRelay(joiner, faults.RelaySchedule{JoinAfter: 300 * time.Millisecond})
	plan.SetRelay(leaver, faults.RelaySchedule{DrainAfter: 500 * time.Millisecond})
	n, err := tornet.Build(tornet.Config{
		Topology:  topo,
		Host:      host,
		TimeScale: 0.06,
		Faults:    plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	var names []string
	for _, d := range n.Registry.Consensus() {
		names = append(names, d.Nickname)
	}
	if len(names) != 5 {
		t.Fatalf("initial consensus has %d relays, want 5 (joiner held out)", len(names))
	}

	// One telemetry registry across both phases: the ting.churn.* counters
	// and the adaptive-deadline histogram accumulate the whole campaign.
	treg := telemetry.New()
	var evMu sync.Mutex
	var churnLog []string
	newScanner := func(cp Checkpoint, progress func(done, total int)) *Scanner {
		obs := NewTelemetryObserver(treg)
		inner := obs.Churn
		obs.Churn = func(ev ChurnEvent) {
			inner(ev)
			evMu.Lock()
			churnLog = append(churnLog, fmt.Sprintf("epoch=%d kind=%v relay=%s pair=(%s,%s) tombstoned=%d",
				ev.Epoch, ev.Kind, ev.Relay, ev.X, ev.Y, ev.Tombstoned))
			evMu.Unlock()
		}
		return &Scanner{
			NewMeasurer: func(worker int) (*Measurer, error) {
				p := &StackProber{
					Client:   n.Client,
					Registry: n.Registry,
					Target:   tornet.EchoTarget,
					ToMs:     n.VirtualMs,
				}
				return NewMeasurer(Config{Prober: p, W: tornet.WName, Z: tornet.ZName, Samples: 2})
			},
			Workers:          2,
			Shuffle:          84,
			SkipFailures:     true,
			Retry:            2,
			Backoff:          30 * time.Millisecond,
			Health:           NewHealth(HealthConfig{FailureThreshold: 3, Cooldown: 100 * time.Millisecond}),
			Checkpoint:       cp,
			Directory:        n.Registry,
			AdaptiveDeadline: true,
			MinPairTimeout:   500 * time.Millisecond,
			PairTimeout:      10 * time.Second,
			Observer:         obs,
			Progress:         progress,
		}
	}
	writeConsensusLog := func() {
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "# churn soak consensus trail, final epoch %d\n", n.Registry.Epoch())
		if err := n.Registry.EncodeConsensus(&buf); err != nil {
			fmt.Fprintf(&buf, "# encode error: %v\n", err)
		}
		evMu.Lock()
		for _, line := range churnLog {
			fmt.Fprintln(&buf, line)
		}
		evMu.Unlock()
		if err := os.WriteFile(consensusPath, buf.Bytes(), 0o644); err != nil {
			t.Logf("consensus log not written: %v", err)
		}
	}
	defer writeConsensusLog()

	// Phase 1: kill the campaign after the first completed pair.
	cp1, err := OpenFileCheckpoint(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancelScan := context.WithCancel(context.Background())
	defer cancelScan()
	sc1 := newScanner(cp1, func(done, total int) {
		if done >= 1 {
			cancelScan()
		}
	})
	if _, _, err := sc1.Scan(ctx, names); !errors.Is(err, context.Canceled) {
		t.Fatalf("phase 1 err = %v, want context.Canceled", err)
	}
	if err := cp1.Close(); err != nil {
		t.Fatal(err)
	}

	// Let the scheduled churn land before resuming: the joiner must be in
	// the consensus and the leaver gone, so the resume reconciles across
	// both epoch bumps.
	waitUntil := time.Now().Add(15 * time.Second)
	for {
		_, joined := n.Registry.Lookup(joiner)
		_, leaverIn := n.Registry.Lookup(leaver)
		if joined && !leaverIn {
			break
		}
		if time.Now().After(waitUntil) {
			t.Fatalf("churn plan did not fire (joined=%v leaverGone=%v)", joined, !leaverIn)
		}
		time.Sleep(25 * time.Millisecond)
	}

	cp2, err := OpenFileCheckpoint(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	if _, err := ReplayState(cp2); err != nil {
		t.Fatalf("checkpoint unreadable after cancel: %v", err)
	}
	if recs := logRecords(t, cp2); len(recs) == 0 || recs[0].Kind != RecordCampaign || recs[0].Epoch < 5 {
		t.Errorf("checkpoint opens with %+v, want a campaign header at epoch >= 5", recs[:min(len(recs), 1)])
	}

	// Phase 2: resume against the churned consensus, bounded so a stall is
	// a failure rather than a hung job.
	resumeCtx, cancelResume := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancelResume()
	sc2 := newScanner(cp2, nil)
	m, failures, err := sc2.Resume(resumeCtx, cp2)
	if err != nil {
		t.Fatalf("resume err = %v (failures: %v)", err, failures)
	}

	// The matrix covers the original five relays plus the joiner.
	if len(m.Names()) != 6 {
		t.Fatalf("matrix names = %v, want all 6 relays including the joiner", m.Names())
	}
	pc := m.ProvCounts()
	if pc.Fresh+pc.Resumed+pc.Removed+pc.Predicted+pc.Missing != 15 {
		t.Errorf("provenance %+v does not cover 15 pairs", pc)
	}
	if pc.Removed == 0 {
		t.Error("no pair was tombstoned although the leaver drained mid-campaign")
	}
	joinerMeasured := 0
	for _, peer := range m.Names() {
		if peer == joiner {
			continue
		}
		if rtt, err := m.RTT(joiner, peer); err == nil && rtt > 0 {
			joinerMeasured++
		}
	}
	if joinerMeasured == 0 {
		t.Error("the joined relay has no measured pairs")
	}

	// Telemetry: the churn counters and the adaptive-deadline histogram
	// must have seen the campaign.
	if v := treg.Counter("ting.churn.joined").Value(); v < 1 {
		t.Errorf("ting.churn.joined = %d, want >= 1", v)
	}
	if v := treg.Counter("ting.churn.removed").Value(); v < 1 {
		t.Errorf("ting.churn.removed = %d, want >= 1", v)
	}
	if v := treg.Counter("ting.churn.tombstoned_pairs").Value(); v < 1 {
		t.Errorf("ting.churn.tombstoned_pairs = %d, want >= 1", v)
	}
	if c := treg.Snapshot().Histograms["ting.deadline.adaptive_ms"].Count; c < 1 {
		t.Errorf("ting.deadline.adaptive_ms observations = %d, want >= 1", c)
	}
}

// The committed tail-cost benchmark pair: one wedged pair under a fixed
// 150ms PairTimeout versus adaptive deadlines floored at 20ms. The wedge
// dominates both scans, so ns/op is the tail cost — adaptive cuts it
// roughly PairTimeout/MinPairTimeout-fold.
func benchmarkChurnScan(b *testing.B, adaptive bool) {
	f := bigFakeWorld()
	for b.Loop() {
		p := &wedgeProber{f: f, x: "u", y: "v"}
		sc := &Scanner{
			NewMeasurer: func(worker int) (*Measurer, error) {
				return NewMeasurer(Config{Prober: p, W: "w", Z: "z", Samples: 1})
			},
			Workers:      1,
			SkipFailures: true,
			PairTimeout:  150 * time.Millisecond,
		}
		if adaptive {
			sc.AdaptiveDeadline = true
			sc.MinPairTimeout = 20 * time.Millisecond
		}
		if _, failures, err := sc.Scan(context.Background(), []string{"x", "y", "u", "v"}); err != nil || len(failures) != 1 {
			b.Fatalf("scan = (%v, %v), want exactly the wedged pair failing", failures, err)
		}
	}
}

func BenchmarkScanFixedDeadline(b *testing.B)    { benchmarkChurnScan(b, false) }
func BenchmarkScanAdaptiveDeadline(b *testing.B) { benchmarkChurnScan(b, true) }
