// Package ting implements the paper's core contribution: measuring the
// round-trip time between two arbitrary Tor relays x and y from a single
// vantage point, with no modification to relays and no cooperation from
// other users (§3).
//
// The measurer owns two local relays w and z colocated with its echo
// client/server pair (all "on the same host h"). For a pair (x, y) it
// builds three circuits —
//
//	C_xy = (w, x, y, z)    the full circuit
//	C_x  = (w, x)          isolates the RTT to x
//	C_y  = (w, y)          isolates the RTT to y
//
// — samples each many times, takes minimums, and applies Eq. (4):
//
//	R(x,y) ≈ min R_Cxy − ½ min R_Cx − ½ min R_Cy
//
// with expected error F_x + F_y, the two relays' floor forwarding delays.
//
// Sampling is abstracted behind CircuitProber so the same algorithm runs
// over the full onion-routing stack (StackProber), over a live control
// port (ControlProber, see package control), or directly against the
// synthetic Internet model (ModelProber) when experiments need millions of
// samples.
package ting

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"ting/internal/client"
	"ting/internal/directory"
	"ting/internal/echo"
	"ting/internal/inet"
)

// CircuitProber takes RTT samples through a circuit of named relays. The
// interface is context-first: every prober accepts a context and aborts
// sampling as early as it can when the context is cancelled or its
// deadline expires, so a cancelled scan stops within a few samples rather
// than burning the rest of the campaign.
type CircuitProber interface {
	// SampleCircuit builds (or reuses) a circuit through the named relays
	// in order and returns n end-to-end RTT samples in milliseconds.
	// Cancellation is cooperative: implementations check ctx between
	// protocol steps and between samples (or small batches of samples).
	SampleCircuit(ctx context.Context, path []string, n int) ([]float64, error)
}

// DirectProber takes non-Tor RTT samples from the measurement host to a
// relay — the ping / tcptraceroute measurements of §4.3. Ting's estimator
// never uses these (mixing Tor and non-Tor paths is exactly the strawman
// §3.2 rejects); they exist to reproduce the forwarding-delay validation
// and the strawman ablation.
type DirectProber interface {
	Ping(target string) (float64, error)
	TCPPing(target string) (float64, error)
}

// ModelProber samples circuits directly from the synthetic Internet's
// ground-truth model. It is exact by construction and fast enough for the
// paper's large sweeps (930 pairs × 1000 samples, 10,000 live pairs).
//
// A ModelProber is not safe for concurrent use: its underlying model
// prober draws from one RNG stream and SampleCircuitInto reuses a node-ID
// scratch. Give each scanner worker its own (seeded differently), as the
// experiments' World helper does.
type ModelProber struct {
	// Exact replaces stochastic sampling with the model's deterministic
	// floor: every sample is exactly the path's propagation legs plus the
	// relays' forwarding floors, with no queueing or jitter and no RNG
	// draws. Under Exact the measured value of a pair depends only on the
	// topology — not on which worker measures it, in what order, or in
	// which process — which is what lets a sharded campaign's merged
	// matrix be bytewise equal to a single-process scan of the same world.
	Exact bool

	prober *inet.Prober
	host   inet.NodeID
	nodeOf map[string]inet.NodeID
	ids    []inet.NodeID
}

// NewModelProber creates a prober at the given host node. nodeOf maps
// relay names (as used in circuit paths) to topology nodes.
func NewModelProber(topo *inet.Topology, host inet.NodeID, nodeOf map[string]inet.NodeID, seed int64) *ModelProber {
	m := make(map[string]inet.NodeID, len(nodeOf))
	for k, v := range nodeOf {
		m[k] = v
	}
	return &ModelProber{
		prober: inet.NewProber(topo, seed),
		host:   host,
		nodeOf: m,
	}
}

// SampleCircuit implements CircuitProber. The model world has no real I/O
// to interrupt, so cancellation is checked between batches of samples —
// one branch per stackProbeBatch samples, mirroring StackProber, instead
// of a context poll inside the million-sample hot loop.
func (p *ModelProber) SampleCircuit(ctx context.Context, path []string, n int) ([]float64, error) {
	if n <= 0 {
		return nil, errors.New("ting: sample count must be positive")
	}
	out := make([]float64, n)
	if err := p.SampleCircuitInto(ctx, path, out); err != nil {
		return nil, err
	}
	return out, nil
}

// SampleCircuitInto implements SamplerInto: like SampleCircuit but filling
// a caller-owned buffer, so a scan's million-sample inner loop allocates
// nothing. The path→node resolution scratch is reused across calls.
func (p *ModelProber) SampleCircuitInto(ctx context.Context, path []string, out []float64) error {
	if len(out) == 0 {
		return errors.New("ting: sample count must be positive")
	}
	if cap(p.ids) < len(path) {
		p.ids = make([]inet.NodeID, len(path))
	}
	ids := p.ids[:len(path)]
	for i, name := range path {
		id, ok := p.nodeOf[name]
		if !ok {
			return fmt.Errorf("ting: unknown relay %q", name)
		}
		ids[i] = id
	}
	if p.Exact {
		s, err := p.prober.TorPathFloorRTT(p.host, ids)
		if err != nil {
			return err
		}
		for i := range out {
			out[i] = s
		}
		if ended(ctx) {
			return ctx.Err()
		}
		return nil
	}
	for i := range out {
		if i%stackProbeBatch == 0 && ended(ctx) {
			return ctx.Err()
		}
		s, err := p.prober.TorPathRTT(p.host, ids)
		if err != nil {
			return err
		}
		out[i] = s
	}
	return nil
}

// Ping implements DirectProber with one ICMP sample host↔target.
func (p *ModelProber) Ping(target string) (float64, error) {
	id, ok := p.nodeOf[target]
	if !ok {
		return 0, fmt.Errorf("ting: unknown relay %q", target)
	}
	return p.prober.Ping(p.host, id), nil
}

// PingBetween returns one ICMP sample between two relays directly — the
// all-pairs ping ground truth the paper's PlanetLab validation compares
// against (§4.2). Only the model world can do this; on the real network
// the whole point of Ting is that third parties cannot.
func (p *ModelProber) PingBetween(a, b string) (float64, error) {
	ai, ok := p.nodeOf[a]
	if !ok {
		return 0, fmt.Errorf("ting: unknown relay %q", a)
	}
	bi, ok := p.nodeOf[b]
	if !ok {
		return 0, fmt.Errorf("ting: unknown relay %q", b)
	}
	return p.prober.Ping(ai, bi), nil
}

// TCPPing implements DirectProber with one TCP sample host↔target.
func (p *ModelProber) TCPPing(target string) (float64, error) {
	id, ok := p.nodeOf[target]
	if !ok {
		return 0, fmt.Errorf("ting: unknown relay %q", target)
	}
	return p.prober.TCPPing(p.host, id), nil
}

// StackProber samples circuits through the real mintor stack: it builds
// each circuit with the onion proxy, attaches an echo stream through the
// exit, and times application-level probes — exactly the measurement path
// of §3.1 ("all of our measurements occur strictly over Tor circuits").
type StackProber struct {
	// Client is the onion proxy on the measurement host.
	Client *client.Client
	// Registry resolves relay nicknames to descriptors.
	Registry *directory.Registry
	// Target is the echo destination name the exit connects to.
	Target string
	// ToMs converts measured wall-clock durations to (virtual)
	// milliseconds; nil means plain milliseconds.
	ToMs func(time.Duration) float64
	// Reuse keeps the last circuit open between calls and reshapes it into
	// the next requested path instead of rebuilding: the longest common
	// prefix is kept (RELAY_TRUNCATE), the remainder extended. Tor's
	// leaky-pipe topology lets C_x = (w,x) become C_xy = (w,x,y,z) with two
	// EXTENDs, and (w,x,y,z) become (w,x,y',z) with a TRUNCATE and two more
	// — one link to w and about two handshakes per pair for a whole scan,
	// where separate builds dial w and shake hands with every hop each
	// time. If reshaping fails the circuit is closed and built afresh.
	Reuse bool

	mu       sync.Mutex
	lastPath []string
	lastCirc *client.Circuit
}

// SampleCircuit implements CircuitProber. Probes run in batches so a
// cancelled scan stops after at most stackProbeBatch samples rather than
// finishing the whole series.
func (p *StackProber) SampleCircuit(ctx context.Context, path []string, n int) ([]float64, error) {
	if n <= 0 {
		return nil, errors.New("ting: sample count must be positive")
	}
	if ended(ctx) {
		return nil, ctx.Err()
	}
	circ, err := p.circuitFor(path)
	if err != nil {
		return nil, err
	}
	if !p.Reuse {
		defer circ.Close()
	}
	st, err := circ.OpenStream(p.Target)
	if err != nil {
		return nil, fmt.Errorf("ting: attach stream: %w", err)
	}
	defer st.Close()

	return probeSeries(ctx, st, n, p.ToMs)
}

// stackProbeBatch is how many samples a prober takes between ctx checks.
const stackProbeBatch = 8

// ended reports whether ctx is done — the engine's per-pair and per-batch
// cancellation check. It is a non-blocking receive on Done, an atomic load
// once the channel exists, because Go 1.24's cancelCtx.Err takes the
// context's mutex, and every worker of a scan without a PairTimeout
// shares one context. Read ctx.Err() only once this says true.
func ended(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// probeSeries takes n echo round trips over rw, an open stream to the echo
// server, and converts them through toMs (nil means plain milliseconds). ctx
// is checked between batches of stackProbeBatch probes, so cancellation lands
// within a few samples even when each round trip is fast.
func probeSeries(ctx context.Context, rw io.ReadWriter, n int, toMs func(time.Duration) float64) ([]float64, error) {
	if toMs == nil {
		toMs = func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	}
	ec := echo.NewClient(rw)
	out := make([]float64, 0, n)
	for len(out) < n {
		if ended(ctx) {
			return nil, ctx.Err()
		}
		rtts, err := ec.ProbeN(min(n-len(out), stackProbeBatch))
		if err != nil {
			return nil, fmt.Errorf("ting: probe: %w", err)
		}
		for _, d := range rtts {
			out = append(out, toMs(d))
		}
	}
	return out, nil
}

// circuitFor returns a circuit through exactly path, reusing or extending
// the cached one when Reuse is on.
func (p *StackProber) circuitFor(path []string) (*client.Circuit, error) {
	descs := make([]*directory.Descriptor, len(path))
	for i, name := range path {
		d, ok := p.Registry.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("ting: unknown relay %q", name)
		}
		descs[i] = d
	}
	if !p.Reuse {
		circ, err := p.Client.BuildCircuit(descs)
		if err != nil {
			return nil, fmt.Errorf("ting: build circuit: %w", err)
		}
		return circ, nil
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.lastCirc != nil {
		if k := commonPrefix(p.lastPath, path); k >= 1 && len(path) >= 2 && reshape(p.lastCirc, k, descs) == nil {
			p.lastPath = append(p.lastPath[:0], path...)
			return p.lastCirc, nil
		}
		// Nothing shared, or reshaping failed; fall through to a fresh
		// build, whose error (if any) is the one reported.
		p.lastCirc.Close()
		p.lastCirc = nil
		p.lastPath = nil
	}
	circ, err := p.Client.BuildCircuit(descs)
	if err != nil {
		return nil, fmt.Errorf("ting: build circuit: %w", err)
	}
	p.lastCirc = circ
	p.lastPath = append([]string(nil), path...)
	return circ, nil
}

// reshape turns circ, whose first k hops are descs[:k], into a circuit
// through exactly descs: cut back to the shared prefix, then extend hop by
// hop. Both steps are no-ops when the circuit already has the right shape.
func reshape(circ *client.Circuit, k int, descs []*directory.Descriptor) error {
	if err := circ.Truncate(k); err != nil {
		return err
	}
	for _, d := range descs[k:] {
		if err := circ.Extend(d); err != nil {
			return err
		}
	}
	return nil
}

// Close releases the cached circuit (Reuse mode).
func (p *StackProber) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.lastCirc != nil {
		p.lastCirc.Close()
		p.lastCirc = nil
		p.lastPath = nil
	}
}

// commonPrefix returns how many leading relays a and b share.
func commonPrefix(a, b []string) int {
	k := 0
	for k < len(a) && k < len(b) && a[k] == b[k] {
		k++
	}
	return k
}
