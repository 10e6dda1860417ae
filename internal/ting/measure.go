package ting

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ting/internal/stats"
)

// DefaultSamples is the per-circuit sample count used for the paper's
// main experiments ("For the remainder of the experiments in this paper,
// we continue using 200 samples", §4.4).
const DefaultSamples = 200

// Config configures a Measurer.
type Config struct {
	// Prober takes the circuit samples. Required.
	Prober CircuitProber
	// W and Z name the measurer's two local relays. Required.
	W, Z string
	// Samples is the per-circuit sample count; default DefaultSamples.
	Samples int
	// Observer, if non-nil, receives measurement-lifecycle callbacks
	// (circuit timings, raw samples, pair results). Use
	// NewTelemetryObserver to feed a telemetry.Registry.
	Observer *Observer
}

// Measurer measures RTTs between arbitrary relay pairs.
//
// A Measurer is not safe for concurrent use: it reuses internal scratch
// (circuit paths, sample buffers) across measurements to keep the all-pairs
// scan loop allocation-free. The Scanner gives each worker its own Measurer
// via Config.NewMeasurer. Path slices handed to observers and probers alias
// that scratch and are only valid until the next measurement; anything that
// outlives the call (the half-circuit store hook) gets a private copy.
type Measurer struct {
	cfg Config
	// pathBuf backs the three circuit paths of one pair measurement:
	// [W x | W x y Z | W y].
	pathBuf [8]string
	// sbuf is the reused sample buffer for probers implementing SamplerInto.
	sbuf []float64
	// hc is the scan's half-circuit cache, set by the scan that owns this
	// Measurer: min R_Cx per half circuit, so pairs sharing an endpoint
	// reuse the series (§3.3/§4.6). Outside a scan it is nil and every
	// series is measured.
	hc *HalfCache
}

// SamplerInto is an optional CircuitProber extension: SampleCircuitInto
// takes len(out) samples into a caller-owned buffer instead of allocating a
// fresh slice per circuit. The Measurer detects it and reuses one buffer
// across every circuit it measures.
type SamplerInto interface {
	SampleCircuitInto(ctx context.Context, path []string, out []float64) error
}

// NewMeasurer validates cfg and returns a Measurer.
func NewMeasurer(cfg Config) (*Measurer, error) {
	if cfg.Prober == nil {
		return nil, errors.New("ting: config missing Prober")
	}
	if cfg.W == "" || cfg.Z == "" {
		return nil, errors.New("ting: config missing local relays W and Z")
	}
	if cfg.W == cfg.Z {
		return nil, errors.New("ting: W and Z must be distinct relays")
	}
	if cfg.Samples == 0 {
		cfg.Samples = DefaultSamples
	}
	if cfg.Samples < 0 {
		return nil, fmt.Errorf("ting: negative sample count %d", cfg.Samples)
	}
	return &Measurer{cfg: cfg}, nil
}

// Close releases resources the prober holds (cached circuits, open
// streams). Probers without a Close method make this a no-op.
func (m *Measurer) Close() {
	if c, ok := m.cfg.Prober.(interface{ Close() }); ok {
		c.Close()
	}
}

// Measurement is the result of one pair measurement.
type Measurement struct {
	X, Y string
	// RTT is the Eq. (4) estimate of R(x,y) in milliseconds. Its expected
	// error is +F_x+F_y, the two relays' floor forwarding delays.
	RTT float64
	// MinFull, MinX, MinY are the minimum sampled RTTs of C_xy, C_x, C_y.
	MinFull, MinX, MinY float64
	// SamplesPerCircuit records the sample count used.
	SamplesPerCircuit int
	// Elapsed is the wall-clock measurement time.
	Elapsed time.Duration
}

// CircuitError reports which of a pair measurement's three circuits
// failed. The health scoreboard uses Circuit to attribute the failure to
// the relay actually implicated (C_x charges x, C_y charges y, C_xy both)
// instead of blaming both endpoints of the pair.
type CircuitError struct {
	// Circuit is "C_x", "C_xy", or "C_y" (§3.3 naming).
	Circuit string
	Err     error
}

func (e *CircuitError) Error() string { return "ting: " + e.Circuit + ": " + e.Err.Error() }

// Unwrap exposes the underlying transport or cancellation error.
func (e *CircuitError) Unwrap() error { return e.Err }

// MeasurePair measures R(x, y) per §3.3: it builds the full circuit
// (w,x,y,z) plus the two isolation circuits (w,x) and (w,y), min-filters
// the samples, and applies Eq. (4). Cancellation is cooperative: ctx is
// checked before each of the three circuit measurements, and every prober
// additionally aborts mid-circuit — so a cancelled scan stops within a
// few samples rather than burning the rest of the campaign. Failures are
// reported as *CircuitError naming the circuit that broke.
func (m *Measurer) MeasurePair(ctx context.Context, x, y string) (*Measurement, error) {
	_, res, err := m.measurePair(ctx, x, y, -1, -1, true)
	return res, err
}

// measurePair is the one pair path, MeasurePair's and the scan's: it
// returns the Eq. (4) estimate and, when keep is set or a PairDone
// observer listens, the full Measurement. Only then is the clock read and
// the Measurement allocated, so a scan without that observer measures each
// pair allocation-free. xi and yi are x's and y's matrix indices, the keys
// of the half-circuit cache's index, or -1 outside a scan.
func (m *Measurer) measurePair(ctx context.Context, x, y string, xi, yi int, keep bool) (float64, *Measurement, error) {
	if err := m.checkPair(x, y); err != nil {
		return 0, nil, err
	}
	keep = keep || m.cfg.Observer != nil && m.cfg.Observer.PairDone != nil
	var start time.Time
	if keep {
		start = time.Now()
	}
	minFull, minX, minY, cerr := m.measureMins(ctx, x, y, xi, yi)
	if cerr != nil {
		m.cfg.Observer.pairDone(x, y, nil, cerr.Err)
		return 0, nil, cerr
	}
	rtt := Estimate(minFull, minX, minY)
	if !keep {
		return rtt, nil, nil
	}
	res := &Measurement{
		X: x, Y: y,
		RTT:               rtt,
		MinFull:           minFull,
		MinX:              minX,
		MinY:              minY,
		SamplesPerCircuit: m.cfg.Samples,
		Elapsed:           time.Since(start),
	}
	m.cfg.Observer.pairDone(x, y, res, nil)
	return rtt, res, nil
}

// measureMins runs the three circuit series of one pair over scratch-backed
// paths; xi and yi are as for measurePair. A non-nil *CircuitError names
// the failing circuit.
func (m *Measurer) measureMins(ctx context.Context, x, y string, xi, yi int) (minFull, minX, minY float64, cerr *CircuitError) {
	// C_x first, then the full circuit: the full path extends C_x's, so a
	// reusing prober (leaky-pipe extension) grows one circuit instead of
	// building two. The estimate is order-independent.
	b := &m.pathBuf // element by element: a literal is built, then block-copied
	b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7] = m.cfg.W, x, m.cfg.W, x, y, m.cfg.Z, m.cfg.W, y
	pathX := m.pathBuf[0:2:2]
	pathFull := m.pathBuf[2:6:6]
	pathY := m.pathBuf[6:8:8]
	minX, err := m.halfMin(ctx, pathX, xi)
	if err != nil {
		return 0, 0, 0, &CircuitError{Circuit: "C_x", Err: err}
	}
	minFull, err = m.measureMin(ctx, pathFull)
	if err != nil {
		return 0, 0, 0, &CircuitError{Circuit: "C_xy", Err: err}
	}
	minY, err = m.halfMin(ctx, pathY, yi)
	if err != nil {
		return 0, 0, 0, &CircuitError{Circuit: "C_y", Err: err}
	}
	return minFull, minX, minY, nil
}

// Estimate applies Eq. (4): R(x,y) = R_Cxy − ½R_Cx − ½R_Cy.
func Estimate(minFull, minX, minY float64) float64 {
	return minFull - minX/2 - minY/2
}

func (m *Measurer) checkPair(x, y string) error {
	switch {
	case x == "" || y == "":
		return errors.New("ting: empty relay name")
	case x == y:
		return fmt.Errorf("ting: cannot measure %q against itself", x)
	case x == m.cfg.W || x == m.cfg.Z || y == m.cfg.W || y == m.cfg.Z:
		return errors.New("ting: target pair must not include the local relays")
	}
	return nil
}

// halfMin returns the minimum of a two-hop circuit's series. Within a scan
// half circuits are memoized through the scan's cache: min R_Cx depends
// only on x, so the series is worth exactly one measurement per freshness
// window. i is x's matrix index: the cache's index answers first, before
// any closure is built or lock taken, and the Observer hears exactly one
// hit, wait or miss. Outside a scan the series is measured.
func (m *Measurer) halfMin(ctx context.Context, path []string, i int) (float64, error) {
	hc := m.hc
	if hc == nil {
		return m.measureMin(ctx, path)
	}
	if min, ok := hc.indexed(path, m.cfg.Samples, i); ok {
		m.cfg.Observer.halfCircuit(path, HalfCircuitHit)
		return min, nil
	}
	return hc.do(ctx, path, m.cfg.Samples, i, m.cfg.Observer,
		func(ctx context.Context) (float64, error) {
			return m.measureMin(ctx, path)
		})
}

// measureMin takes the configured number of samples through path and
// returns the minimum — the aggregation that makes forwarding delays vanish
// from the estimate (§3.3). Probers implementing SamplerInto fill the
// Measurer's reused sample buffer; others keep the allocating SampleCircuit
// contract. The clock is read only for an observer's CircuitDone.
func (m *Measurer) measureMin(ctx context.Context, path []string) (float64, error) {
	if ended(ctx) {
		return 0, ctx.Err()
	}
	obs := m.cfg.Observer
	timed := obs != nil && obs.CircuitDone != nil
	var start time.Time
	if timed {
		start = time.Now()
	}
	var samples []float64
	var err error
	if si, ok := m.cfg.Prober.(SamplerInto); ok {
		if cap(m.sbuf) < m.cfg.Samples {
			m.sbuf = make([]float64, m.cfg.Samples)
		}
		samples = m.sbuf[:m.cfg.Samples]
		if err = si.SampleCircuitInto(ctx, path, samples); err != nil {
			samples = nil
		}
	} else {
		samples, err = m.cfg.Prober.SampleCircuit(ctx, path, m.cfg.Samples)
	}
	if timed {
		obs.CircuitDone(path, len(samples), time.Since(start), err)
	}
	if err != nil {
		return 0, err
	}
	obs.samples(path, samples)
	return stats.Min(samples)
}

// SampleSeries exposes the raw per-sample RTTs of one circuit — the data
// behind the sample-size analysis of §4.4 (Figure 6).
func (m *Measurer) SampleSeries(ctx context.Context, x, y string, n int) ([]float64, error) {
	if err := m.checkPair(x, y); err != nil {
		return nil, err
	}
	return m.cfg.Prober.SampleCircuit(ctx, []string{m.cfg.W, x, y, m.cfg.Z}, n)
}

// ForwardingEstimate is the §4.3 forwarding-delay estimate for one relay,
// computed with both ICMP- and TCP-based direct RTTs. On networks that
// treat protocols differently the two disagree and can go negative —
// Figure 5's "extremely odd behavior".
type ForwardingEstimate struct {
	X string
	// ICMPMs and TCPMs are F_x estimated with ping and tcptraceroute
	// respectively, in milliseconds.
	ICMPMs float64
	TCPMs  float64
	// LocalMs is F_w = F_z, the local relays' delay from step (4).
	LocalMs float64
}

// EstimateForwarding reproduces the §4.3 procedure for relay x:
//
//  1. measure R_C1 over circuit (w, z);
//  2. estimate F_w = F_z = (R_C1 − R̃(s,w) − R̃(z,d)) / 2;
//  3. measure R_C2 over circuit (w, x, z);
//  4. F_x = R_C2 − F_w − F_z − 2·R̃(w,x) − 2·R̃(s,w).
//
// Direct RTTs R̃ are min-of-pingSamples via ICMP and, separately, TCP.
func (m *Measurer) EstimateForwarding(ctx context.Context, x string, direct DirectProber, pingSamples int) (*ForwardingEstimate, error) {
	if x == "" || x == m.cfg.W || x == m.cfg.Z {
		return nil, fmt.Errorf("ting: invalid forwarding target %q", x)
	}
	if pingSamples <= 0 {
		return nil, errors.New("ting: pingSamples must be positive")
	}
	rc1, err := m.measureMin(ctx, []string{m.cfg.W, m.cfg.Z})
	if err != nil {
		return nil, fmt.Errorf("ting: C1: %w", err)
	}
	rc2, err := m.measureMin(ctx, []string{m.cfg.W, x, m.cfg.Z})
	if err != nil {
		return nil, fmt.Errorf("ting: C2: %w", err)
	}
	// w and z run on the measurement host: R̃(s,w) and R̃(z,d) are
	// loopback, effectively zero, and R̃(w,x) equals the host↔x direct RTT.
	fLocal := rc1 / 2

	icmp, err := minDirect(direct.Ping, x, pingSamples)
	if err != nil {
		return nil, fmt.Errorf("ting: ping %s: %w", x, err)
	}
	tcp, err := minDirect(direct.TCPPing, x, pingSamples)
	if err != nil {
		return nil, fmt.Errorf("ting: tcpping %s: %w", x, err)
	}
	// The (w,x,z) circuit crosses the host↔x distance twice per round trip
	// (w→x out, x→z back, and again on the pong), i.e. two direct RTTs.
	return &ForwardingEstimate{
		X:       x,
		ICMPMs:  rc2 - 2*fLocal - 2*icmp,
		TCPMs:   rc2 - 2*fLocal - 2*tcp,
		LocalMs: fLocal,
	}, nil
}

func minDirect(probe func(string) (float64, error), target string, n int) (float64, error) {
	best := 0.0
	for i := 0; i < n; i++ {
		v, err := probe(target)
		if err != nil {
			return 0, err
		}
		if i == 0 || v < best {
			best = v
		}
	}
	return best, nil
}
