package ting

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"ting/internal/faults"
	"ting/internal/geo"
	"ting/internal/inet"
	"ting/internal/tornet"
)

// pairRecorder tracks which pairs a phase actually measured (successful
// MeasurePair calls), so resume tests can pin re-measurement to exactly the
// unfinished pairs.
type pairRecorder struct {
	mu    sync.Mutex
	pairs map[[2]string]bool
}

func newPairRecorder() *pairRecorder {
	return &pairRecorder{pairs: make(map[[2]string]bool)}
}

func (r *pairRecorder) observer() *Observer {
	return &Observer{PairDone: func(x, y string, m *Measurement, err error) {
		if err != nil || m == nil {
			return
		}
		r.mu.Lock()
		r.pairs[pairKey(x, y)] = true
		r.mu.Unlock()
	}}
}

func (r *pairRecorder) has(x, y string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pairs[pairKey(x, y)]
}

func (r *pairRecorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pairs)
}

// cancelAtPair cancels its scan as the at-th pair's own circuit is about to
// be sampled, so that pair fails with the cancellation and every earlier one
// was measured, however the scan groups pairs into runs.
type cancelAtPair struct {
	*fakeProber
	at     int
	pairs  int
	cancel context.CancelFunc
}

func (p *cancelAtPair) SampleCircuit(ctx context.Context, path []string, n int) ([]float64, error) {
	if len(path) == 4 { // w, x, y, z: a pair's circuit, not a half
		if p.pairs++; p.pairs == p.at {
			p.cancel()
		}
	}
	return p.fakeProber.SampleCircuit(ctx, path, n)
}

// TestResumeKeepsJoinedRelaysWithoutDirectory: a relay the log saw join is
// part of the resumed campaign even when the scan has no Directory to
// reconcile against, and the pair measured against it before the crash is
// resumed, not lost.
func TestResumeKeepsJoinedRelaysWithoutDirectory(t *testing.T) {
	cp := &MemCheckpoint{}
	for _, rec := range []CheckpointRecord{
		{Kind: RecordCampaign, Names: []string{"x", "y", "u"}},
		{Kind: RecordChurn, Op: ChurnOpJoin, Relay: "v"},
		{Kind: RecordPair, X: "x", Y: "v", RTT: 7},
	} {
		if err := cp.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	sc := &Scanner{
		NewMeasurer: func(worker int) (*Measurer, error) {
			return NewMeasurer(Config{Prober: bigFakeWorld(), W: "w", Z: "z", Samples: 1})
		},
		Workers: 2,
	}
	m, failures, err := sc.Resume(context.Background(), cp)
	if err != nil || len(failures) != 0 {
		t.Fatalf("resume: %v %v", failures, err)
	}
	if got := m.Names(); !slices.Equal(got, []string{"x", "y", "u", "v"}) {
		t.Fatalf("resumed names = %v, want the header then the joined v", got)
	}
	if v, err := m.RTT("x", "v"); err != nil || v != 7 || m.Prov("x", "v") != ProvResumed {
		t.Errorf("pair (x,v) = %v %v %v, want the logged 7 ms, resumed", v, m.Prov("x", "v"), err)
	}
	if pc := m.ProvCounts(); pc.Resumed != 1 || pc.Fresh != 5 {
		t.Errorf("provenance %+v, want 1 resumed and the other 5 pairs measured", pc)
	}
}

// TestScannerResumeAfterCancel is the durability acceptance test: a scan
// over a deterministic world is cancelled at 50%, then resumed from its
// checkpoint. The resumed scan must re-measure only the unfinished pairs,
// and the final matrix must be byte-identical to an uninterrupted run.
func TestScannerResumeAfterCancel(t *testing.T) {
	names := []string{"x", "y", "u", "v"} // 6 pairs
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	newScanner := func(rec *pairRecorder, cp Checkpoint, obs *Observer, prober CircuitProber) *Scanner {
		return &Scanner{
			NewMeasurer: func(worker int) (*Measurer, error) {
				return NewMeasurer(Config{Prober: prober, W: "w", Z: "z",
					Samples: 2, Observer: rec.observer()})
			},
			Workers:    1, // deterministic order: all of x's pairs first
			Checkpoint: cp,
			Observer:   obs,
		}
	}

	// Phase 1: cancel inside the 4th pair's measurement — after exactly 3
	// pairs, whether the scan settled them one by one or in one run.
	cp1, err := OpenFileCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec1 := newPairRecorder()
	var appends int
	sc1 := newScanner(rec1, cp1, &Observer{CheckpointAppend: func(*CheckpointRecord) { appends++ }},
		&cancelAtPair{fakeProber: bigFakeWorld(), at: 4, cancel: cancel})
	partial, failures, err := sc1.Scan(ctx, names)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("phase 1 err = %v, want context.Canceled", err)
	}
	if len(failures) != 0 {
		t.Fatalf("phase 1 failures = %v", failures)
	}
	if partial == nil {
		t.Fatal("cancelled scan returned no partial matrix")
	}
	if pc := partial.ProvCounts(); pc.Fresh != 3 || pc.Resumed != 0 || pc.Missing != 3 {
		t.Fatalf("phase 1 provenance = %+v, want 3 fresh, 0 resumed, 3 missing", pc)
	}
	if rec1.len() != 3 {
		t.Fatalf("phase 1 measured %d pairs, want 3", rec1.len())
	}
	// 1 campaign header + 3 pairs + 4 half circuits (C_x, C_y, C_u, C_v).
	if appends != 8 {
		t.Errorf("phase 1 checkpoint appends = %d, want 8", appends)
	}
	if err := cp1.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: resume from the log in a fresh process's shoes.
	cp2, err := OpenFileCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	rec2 := newPairRecorder()
	var gotPairs, gotHalves int
	sc2 := newScanner(rec2, nil, &Observer{CheckpointReplay: func(pairs, halves int) {
		gotPairs, gotHalves = pairs, halves
	}}, bigFakeWorld())
	m, failures, err := sc2.Resume(context.Background(), cp2)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 0 {
		t.Fatalf("phase 2 failures = %v", failures)
	}
	if gotPairs != 3 || gotHalves != 4 {
		t.Errorf("replayed %d pairs, %d halves, want 3 and 4", gotPairs, gotHalves)
	}
	if rec2.len() != 3 {
		t.Errorf("phase 2 measured %d pairs, want only the 3 unfinished", rec2.len())
	}
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			x, y := names[i], names[j]
			in1, in2 := rec1.has(x, y), rec2.has(x, y)
			if in1 && in2 {
				t.Errorf("pair (%s,%s) measured in both phases", x, y)
			}
			if !in1 && !in2 {
				t.Errorf("pair (%s,%s) measured in neither phase", x, y)
			}
			wantProv := ProvFresh
			if in1 {
				wantProv = ProvResumed
			}
			if got := m.Prov(x, y); got != wantProv {
				t.Errorf("Prov(%s,%s) = %v, want %v", x, y, got, wantProv)
			}
		}
	}
	if pc := m.ProvCounts(); pc.Fresh != 3 || pc.Resumed != 3 || pc.Missing != 0 {
		t.Errorf("final provenance = %+v, want 3/3/0", pc)
	}

	// The resumed campaign's matrix is indistinguishable from one that was
	// never interrupted.
	un := newScanner(newPairRecorder(), nil, nil, bigFakeWorld())
	want, _, err := un.Scan(context.Background(), names)
	if err != nil {
		t.Fatal(err)
	}
	var gotBuf, wantBuf bytes.Buffer
	if err := m.Encode(&gotBuf); err != nil {
		t.Fatal(err)
	}
	if err := want.Encode(&wantBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBuf.Bytes(), wantBuf.Bytes()) {
		t.Errorf("resumed matrix differs from uninterrupted run:\n%s\nvs\n%s", gotBuf.String(), wantBuf.String())
	}
}

// TestScannerQuarantinesDeadRelay is the breaker acceptance test: a relay
// that is down for the whole scan opens its breaker within K failures, the
// scan completes without stalling, and the relay's remaining pairs are
// reported as ErrQuarantined instead of burning attempts.
func TestScannerQuarantinesDeadRelay(t *testing.T) {
	f := bigFakeWorld()
	f.errs["x"] = errors.New("x is toast")
	h := NewHealth(HealthConfig{FailureThreshold: 2, Cooldown: time.Hour})
	var quarNonFinal, quarFinal int
	var quarMu sync.Mutex
	sc := &Scanner{
		NewMeasurer: func(worker int) (*Measurer, error) {
			return NewMeasurer(Config{Prober: f, W: "w", Z: "z", Samples: 1})
		},
		Workers:      1, // x's three pairs are attempted back to back
		SkipFailures: true,
		Health:       h,
		Observer: &Observer{Quarantine: func(x, y, relay string, final bool) {
			quarMu.Lock()
			if final {
				quarFinal++
			} else {
				quarNonFinal++
			}
			quarMu.Unlock()
		}},
	}
	var lastDone, lastTotal int
	sc.Progress = func(done, total int) { lastDone, lastTotal = done, total }
	names := []string{"x", "y", "u", "v"}
	m, failures, err := sc.Scan(context.Background(), names)
	if err != nil {
		t.Fatal(err)
	}
	if lastDone != 6 || lastTotal != 6 {
		t.Errorf("progress stalled at %d/%d", lastDone, lastTotal)
	}
	if len(failures) != 3 {
		t.Fatalf("failures = %v, want the 3 pairs touching x", failures)
	}
	var quarantined, plain int
	for _, pe := range failures {
		if pe.X != "x" && pe.Y != "x" {
			t.Errorf("healthy pair (%s,%s) failed: %v", pe.X, pe.Y, pe.Err)
		}
		if errors.Is(pe.Err, ErrQuarantined) {
			quarantined++
			if pe.Attempts != 0 {
				t.Errorf("quarantined pair consumed %d attempts, want 0", pe.Attempts)
			}
		} else {
			plain++
		}
	}
	// Two failures open the breaker (K=2); the third pair never measures.
	if plain != 2 || quarantined != 1 {
		t.Errorf("plain=%d quarantined=%d, want 2 and 1", plain, quarantined)
	}
	if got := h.state("x"); got != BreakerOpen {
		t.Errorf("x's breaker = %v, want open", got)
	}
	if quarNonFinal != 1 || quarFinal != 1 {
		t.Errorf("quarantine callbacks: %d deferrals, %d finals, want 1 and 1", quarNonFinal, quarFinal)
	}
	// Healthy relays never charged, their pairs all measured.
	for _, pair := range [][2]string{{"y", "u"}, {"y", "v"}, {"u", "v"}} {
		if v, _ := m.RTT(pair[0], pair[1]); v <= 0 {
			t.Errorf("healthy pair %v unmeasured", pair)
		}
	}
	for _, relay := range []string{"y", "u", "v"} {
		if got := h.state(relay); got != BreakerClosed {
			t.Errorf("%s's breaker = %v", relay, got)
		}
	}
}

// relayFlakyProber fails any circuit through relay for its first n calls,
// then recovers — a relay coming back from a flap.
type relayFlakyProber struct {
	*fakeProber
	mu    sync.Mutex
	relay string
	left  int
}

func (p *relayFlakyProber) SampleCircuit(ctx context.Context, path []string, n int) ([]float64, error) {
	touches := false
	for _, r := range path {
		if r == p.relay {
			touches = true
			break
		}
	}
	if touches {
		p.mu.Lock()
		if p.left > 0 {
			p.left--
			p.mu.Unlock()
			return nil, errors.New("relay flapping")
		}
		p.mu.Unlock()
	}
	return p.fakeProber.SampleCircuit(ctx, path, n)
}

// TestScannerQuarantineRecovery: the breaker half-opens once the cooldown
// passes, the deferred pair becomes the probe, and its success closes the
// breaker — the relay rejoins the campaign instead of being written off.
func TestScannerQuarantineRecovery(t *testing.T) {
	p := &relayFlakyProber{fakeProber: bigFakeWorld(), relay: "x", left: 2}
	h := NewHealth(HealthConfig{FailureThreshold: 2, Cooldown: time.Nanosecond})
	sc := &Scanner{
		NewMeasurer: func(worker int) (*Measurer, error) {
			return NewMeasurer(Config{Prober: p, W: "w", Z: "z", Samples: 1})
		},
		Workers:      1,
		SkipFailures: true,
		Health:       h,
	}
	names := []string{"x", "y", "u", "v"}
	m, failures, err := sc.Scan(context.Background(), names)
	if err != nil {
		t.Fatal(err)
	}
	// The first two x-pairs burned the flap; the third was deferred, came
	// back as the half-open probe, and succeeded.
	if len(failures) != 2 {
		t.Fatalf("failures = %v, want the 2 pre-recovery pairs", failures)
	}
	for _, pe := range failures {
		if errors.Is(pe.Err, ErrQuarantined) {
			t.Errorf("pre-recovery failure reported as quarantined: %v", pe)
		}
	}
	if v, _ := m.RTT("x", "v"); v <= 0 {
		t.Error("recovered relay's deferred pair not measured")
	}
	if got := h.state("x"); got != BreakerClosed {
		t.Errorf("x's breaker = %v after successful probe, want closed", got)
	}
}

// TestScannerQuarantineCancelDuringDeferral: cancelling a scan while pairs
// sit in the deferred parking lot must not deadlock the queue-close logic.
func TestScannerQuarantineCancelDuringDeferral(t *testing.T) {
	f := bigFakeWorld()
	f.errs["x"] = errors.New("x is down")
	h := NewHealth(HealthConfig{FailureThreshold: 1, Cooldown: time.Hour})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// One worker, so the callbacks below run on one goroutine at a time.
	var parked, givenUp, parkedAtCancel, lastDone, lastTotal int
	sc := &Scanner{
		NewMeasurer: func(worker int) (*Measurer, error) {
			return NewMeasurer(Config{Prober: f, W: "w", Z: "z", Samples: 1})
		},
		Workers:      1,
		SkipFailures: true,
		Health:       h,
		Observer: &Observer{Quarantine: func(x, y, relay string, final bool) {
			if final {
				givenUp++
			} else {
				parked++
			}
		}},
		// Cancel while x's later pairs are parked behind the open breaker.
		Progress: func(done, total int) {
			lastDone, lastTotal = done, total
			if done >= 2 && ctx.Err() == nil {
				parkedAtCancel = parked
				cancel()
			}
		},
	}
	done := make(chan struct{})
	var err error
	go func() {
		defer close(done)
		_, _, err = sc.Scan(ctx, []string{"x", "y", "u", "v"})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("scan deadlocked with deferred jobs at cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	// Nothing tells the schedule about the cancellation: the lot comes back
	// because every release counts toward open == len(parked), and the
	// dealt-back pairs are released unmeasured like any other — not given
	// the breaker's final verdict, and not counted as done.
	if parkedAtCancel == 0 {
		t.Error("the lot was empty at cancellation; the test no longer covers a cancelled scan with parked pairs")
	}
	if givenUp != 0 {
		t.Errorf("%d parked pairs were settled as quarantined after cancellation, want them released unmeasured", givenUp)
	}
	if lastDone >= lastTotal {
		t.Errorf("progress reached %d/%d on a cancelled scan", lastDone, lastTotal)
	}
	stacks := make([]byte, 1<<20)
	stacks = stacks[:runtime.Stack(stacks, true)]
	if bytes.Contains(stacks, []byte("(*schedule).take")) {
		t.Errorf("a worker is still waiting in schedule.take after Scan returned:\n%s", stacks)
	}
}

// TestChaosSoakFlapCancelResume is the full-stack chaos soak driven by CI:
// a live in-process overlay with a seeded flap plan on one relay, a scan
// cancelled mid-campaign, then a resume that must finish the job. The
// checkpoint lands in TING_SOAK_DIR when set, so a failing CI run uploads
// the log as an artifact.
func TestChaosSoakFlapCancelResume(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack soak is seconds-long; skipped in -short")
	}
	dir := os.Getenv("TING_SOAK_DIR")
	if dir == "" {
		dir = t.TempDir()
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	ckptPath := filepath.Join(dir, "chaos-soak.ckpt")
	os.Remove(ckptPath) // a fresh campaign each run

	topo, err := inet.Generate(inet.Config{N: 4, Seed: 61, FlatRegions: true})
	if err != nil {
		t.Fatal(err)
	}
	host := topo.AddHost("host", geo.Coord{Lat: 40, Lon: -74}, 62)
	plan := faults.NewPlan(63)
	flappy := topo.Node(2).Name
	plan.SetRelay(flappy, faults.RelaySchedule{FlapPeriod: 400 * time.Millisecond, FlapDown: 80 * time.Millisecond})
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

	names := make([]string, 4)
	for i := range names {
		names[i], _ = n.NodeName(inet.NodeID(i))
	}
	newScanner := func(cp Checkpoint, progress func(done, total int)) *Scanner {
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
			Workers:      2,
			Shuffle:      64,
			SkipFailures: true,
			Retry:        2,
			Backoff:      30 * time.Millisecond,
			Health:       NewHealth(HealthConfig{FailureThreshold: 3, Cooldown: 100 * time.Millisecond}),
			Checkpoint:   cp,
			Progress:     progress,
		}
	}

	// Phase 1: kill the campaign after two completed pairs.
	cp1, err := OpenFileCheckpoint(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sc1 := newScanner(cp1, func(done, total int) {
		if done >= 2 {
			cancel()
		}
	})
	if _, _, err := sc1.Scan(ctx, names); !errors.Is(err, context.Canceled) {
		t.Fatalf("phase 1 err = %v, want context.Canceled", err)
	}
	if err := cp1.Close(); err != nil {
		t.Fatal(err)
	}

	// What survived the kill is what Resume must not re-measure.
	cp2, err := OpenFileCheckpoint(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	st, err := ReplayState(cp2)
	if err != nil {
		t.Fatalf("checkpoint unreadable after cancel: %v", err)
	}
	if replayedPairs(st) == 0 {
		t.Fatal("no completed pairs reached the checkpoint before cancellation")
	}

	// Phase 2: resume against the still-flapping overlay, bounded so a
	// stall is a failure rather than a hung job.
	resumeCtx, cancelResume := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancelResume()
	sc2 := newScanner(cp2, nil)
	m, failures, err := sc2.Resume(resumeCtx, cp2)
	if err != nil {
		t.Fatalf("resume err = %v (failures: %v)", err, failures)
	}
	pc := m.ProvCounts()
	if pc.Resumed != replayedPairs(st) {
		t.Errorf("resumed %d pairs, checkpoint held %d", pc.Resumed, replayedPairs(st))
	}
	if pc.Fresh+pc.Resumed+pc.Missing != 6 {
		t.Errorf("provenance %+v does not cover 6 pairs", pc)
	}
	if pc.Missing != len(failures) {
		t.Errorf("%d missing cells but %d reported failures", pc.Missing, len(failures))
	}
	// Every replayed pair kept its checkpointed value — resume measured
	// only the rest.
	names = st.Matrix.Names()
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			rtt, ok := replayed(st, names[i], names[j])
			if !ok {
				continue
			}
			if v, _ := m.RTT(names[i], names[j]); v != rtt {
				t.Errorf("replayed pair (%s,%s) changed: %v -> %v", names[i], names[j], rtt, v)
			}
			if got := m.Prov(names[i], names[j]); got != ProvResumed {
				t.Errorf("replayed pair (%s,%s) provenance = %v", names[i], names[j], got)
			}
		}
	}
}
