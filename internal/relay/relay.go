// Package relay implements a mintor onion router: it accepts link
// connections, answers CREATE handshakes, extends circuits onward, forwards
// relay cells while adding/removing its onion layer, and (for exit relays)
// opens streams to destinations.
//
// The implementation mirrors the Tor behaviours Ting depends on:
//
//   - relays learn only their predecessor and successor on a circuit;
//   - every forwarded cell pays the relay's forwarding delay, the F terms
//     of Eq. (1) — injectable here so the overlay reproduces the paper's
//     queueing behaviour;
//   - relays refuse to extend a circuit to themselves (a node cannot appear
//     twice on a circuit, §3.1);
//   - exit policies restrict BEGIN targets, like the paper's restrictive
//     exit policy that only allowed the authors' own echo hosts (§4.1).
package relay

import (
	"errors"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ting/internal/cell"
	"ting/internal/link"
	"ting/internal/onion"
	"ting/internal/telemetry"
)

// StreamDialer opens exit-side byte streams toward named targets.
type StreamDialer interface {
	DialStream(target string) (io.ReadWriteCloser, error)
}

// Config configures a relay.
type Config struct {
	// Nickname names the relay in logs and is its self-identity for the
	// extend-to-self check. Required.
	Nickname string
	// Addr is the relay's own published link address; EXTEND requests for
	// this address are refused. Required.
	Addr string
	// Identity is the relay's onion key pair. Required.
	Identity *onion.Identity
	// Listener accepts inbound links. Required.
	Listener link.Listener
	// RelayDialer opens links to other relays for circuit extension.
	// Required.
	RelayDialer link.Dialer
	// ExitDialer, if non-nil, makes the relay exit-capable.
	ExitDialer StreamDialer
	// ExitPolicy, if non-nil, further restricts exit targets.
	ExitPolicy func(target string) bool
	// ForwardDelay, if non-nil, is sampled once per relay-cell traversal
	// and slept before processing — the forwarding delay of §3.2.
	ForwardDelay func() time.Duration
	// Telemetry, if non-nil, receives relay counters (relay.cells_relayed,
	// relay.circuits_created, ...) shared with the rest of the stack. Nil
	// disables instrumentation at the cost of one branch per event.
	Telemetry *telemetry.Registry
}

func (c *Config) validate() error {
	switch {
	case c.Nickname == "":
		return errors.New("relay: config missing Nickname")
	case c.Addr == "":
		return errors.New("relay: config missing Addr")
	case c.Identity == nil:
		return errors.New("relay: config missing Identity")
	case c.Listener == nil:
		return errors.New("relay: config missing Listener")
	case c.RelayDialer == nil:
		return errors.New("relay: config missing RelayDialer")
	}
	return nil
}

// extendTimeout bounds how long an EXTEND waits for the next relay's CREATED.
const extendTimeout = 30 * time.Second

// Relay is a running onion router.
type Relay struct {
	cfg Config
	rng struct {
		sync.Mutex
		*rand.Rand
	}

	closeOnce sync.Once
	closed    chan struct{}
	draining  atomic.Bool
	wg        sync.WaitGroup

	mu    sync.Mutex
	conns map[*connState]struct{}

	outMu    sync.Mutex
	outSlots map[string]*outSlot

	stats Stats
	tm    relayMetrics
}

// relayMetrics holds the relay's telemetry counters, resolved once at
// construction so the forwarding hot path pays one atomic add per event
// (or one nil check when telemetry is off).
type relayMetrics struct {
	circuitsCreated   *telemetry.Counter
	circuitsDestroyed *telemetry.Counter
	cellsRelayed      *telemetry.Counter
	streamsOpened     *telemetry.Counter
	handshakeFailures *telemetry.Counter
	truncates         *telemetry.Counter
}

// Stats counts relay activity, for tests and operational visibility. The
// fields are atomics: CellsRelayed is bumped per cell by every connection's
// read loop, which must not serialise on a relay-wide lock.
type Stats struct {
	CircuitsBuilt atomic.Int64
	CellsRelayed  atomic.Int64
	StreamsOpened atomic.Int64
}

// New creates a relay; call Start to run it.
func New(cfg Config) (*Relay, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := &Relay{
		cfg:      cfg,
		closed:   make(chan struct{}),
		conns:    make(map[*connState]struct{}),
		outSlots: make(map[string]*outSlot),
	}
	r.rng.Rand = rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(len(cfg.Nickname))<<32))
	r.tm = relayMetrics{
		circuitsCreated:   cfg.Telemetry.Counter("relay.circuits_created"),
		circuitsDestroyed: cfg.Telemetry.Counter("relay.circuits_destroyed"),
		cellsRelayed:      cfg.Telemetry.Counter("relay.cells_relayed"),
		streamsOpened:     cfg.Telemetry.Counter("relay.streams_opened"),
		handshakeFailures: cfg.Telemetry.Counter("relay.handshake_failures"),
		truncates:         cfg.Telemetry.Counter("relay.truncates"),
	}
	return r, nil
}

// Start launches the accept loop in the background.
func (r *Relay) Start() {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.acceptLoop()
	}()
}

// Stats returns circuit/cell/stream counters.
func (r *Relay) Stats() (circuits, cells, streams int) {
	return int(r.stats.CircuitsBuilt.Load()), int(r.stats.CellsRelayed.Load()), int(r.stats.StreamsOpened.Load())
}

// OutConnCount reports how many onward relay connections are open. Tor
// multiplexes all circuits between a relay pair over one connection; tests
// assert the same economy here.
func (r *Relay) OutConnCount() int {
	r.outMu.Lock()
	defer r.outMu.Unlock()
	n := 0
	for _, s := range r.outSlots {
		if s.oc != nil {
			n++
		}
	}
	return n
}

// Drain moves the relay into the draining half of a graceful departure:
// new CREATE handshakes are refused with DESTROY, EXTEND requests fail as
// "relay draining", and every live circuit is torn down with DESTROY
// propagated in both directions. The listener stays open so peers observe
// orderly refusals rather than connection resets; the owner unpublishes
// the descriptor and calls Close once peers have had a chance to react.
// Drain is idempotent.
func (r *Relay) Drain() {
	if !r.draining.CompareAndSwap(false, true) {
		return
	}
	r.mu.Lock()
	conns := make([]*connState, 0, len(r.conns))
	for cs := range r.conns {
		conns = append(conns, cs)
	}
	r.mu.Unlock()
	for _, cs := range conns {
		cs.mu.Lock()
		circs := make([]*circuit, 0, len(cs.circuits))
		for _, circ := range cs.circuits {
			circs = append(circs, circ)
		}
		cs.mu.Unlock()
		for _, circ := range circs {
			circ.destroy(true, true)
		}
	}
}

// Draining reports whether Drain has been called.
func (r *Relay) Draining() bool { return r.draining.Load() }

// Close shuts the relay down and waits for its goroutines.
func (r *Relay) Close() error {
	r.closeOnce.Do(func() {
		close(r.closed)
		r.cfg.Listener.Close()
		r.mu.Lock()
		for cs := range r.conns {
			cs.lk.Close()
		}
		r.mu.Unlock()
		r.outMu.Lock()
		slots := make([]*outSlot, 0, len(r.outSlots))
		for _, s := range r.outSlots {
			slots = append(slots, s)
		}
		r.outMu.Unlock()
		for _, s := range slots {
			if s.oc != nil {
				s.oc.lk.Close()
			}
		}
	})
	r.wg.Wait()
	return nil
}

func (r *Relay) acceptLoop() {
	for {
		lk, err := r.cfg.Listener.Accept()
		if err != nil {
			return
		}
		cs := &connState{r: r, lk: lk, circuits: make(map[cell.CircID]*circuit)}
		r.mu.Lock()
		r.conns[cs] = struct{}{}
		r.mu.Unlock()
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			cs.readLoop()
			r.mu.Lock()
			delete(r.conns, cs)
			r.mu.Unlock()
		}()
	}
}

func (r *Relay) forwardDelay() {
	if r.cfg.ForwardDelay == nil {
		return
	}
	if d := r.cfg.ForwardDelay(); d > 0 {
		time.Sleep(d)
	}
}

func (r *Relay) newCircID() cell.CircID {
	r.rng.Lock()
	defer r.rng.Unlock()
	for {
		if id := cell.CircID(r.rng.Uint32()); id != 0 {
			return id
		}
	}
}

// connState tracks one inbound link and the circuits whose client-facing
// side it carries.
type connState struct {
	r  *Relay
	lk link.Link

	mu       sync.Mutex
	circuits map[cell.CircID]*circuit
}

// readLoop dispatches inbound cells. One cell is reused across iterations;
// every handler below copies what it keeps.
func (cs *connState) readLoop() {
	defer cs.teardown()
	var c cell.Cell
	for {
		if err := cs.lk.Recv(&c); err != nil {
			return
		}
		switch c.Cmd {
		case cell.Relay:
			cs.handleRelay(&c)
		case cell.Create:
			cs.handleCreate(&c)
		case cell.Destroy:
			cs.handleDestroy(c.Circ)
		default:
			// Padding, and anything a relay has no business receiving
			// here (CREATED on an inbound link): ignored.
		}
	}
}

// handleRelay removes this hop's layer from a forward RELAY cell, pays the
// per-traversal forwarding delay of Eq. (1), and either consumes the cell
// (it is addressed to this hop) or passes it, in place, to the next relay.
func (cs *connState) handleRelay(c *cell.Cell) {
	r := cs.r
	circ := cs.lookup(c.Circ)
	if circ == nil {
		return
	}
	circ.hop.CryptForward(&c.Payload)
	r.forwardDelay()
	if circ.hop.VerifyForward(&c.Payload) {
		circ.handleOwnCell(&c.Payload)
		return
	}
	circ.mu.Lock()
	next, nextID := circ.next, circ.nextID
	circ.mu.Unlock()
	if next == nil {
		// Unrecognized at the end of the circuit.
		circ.destroy(true, false)
		return
	}
	c.Circ = nextID
	r.countRelayed()
	if err := next.lk.Send(c); err != nil {
		circ.destroy(true, false)
	}
}

// countRelayed records one cell passed along a circuit, in either
// direction, in this relay's Stats and in the shared registry.
func (r *Relay) countRelayed() {
	r.stats.CellsRelayed.Add(1)
	r.tm.cellsRelayed.Inc()
}

func (cs *connState) teardown() {
	cs.mu.Lock()
	circs := make([]*circuit, 0, len(cs.circuits))
	for _, circ := range cs.circuits {
		circs = append(circs, circ)
	}
	cs.circuits = make(map[cell.CircID]*circuit)
	cs.mu.Unlock()
	for _, circ := range circs {
		circ.destroy(false, true)
	}
	cs.lk.Close()
}

func (cs *connState) lookup(id cell.CircID) *circuit {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.circuits[id]
}

func (cs *connState) remove(id cell.CircID) {
	cs.mu.Lock()
	delete(cs.circuits, id)
	cs.mu.Unlock()
}

func (cs *connState) handleCreate(c *cell.Cell) {
	r := cs.r
	if r.Draining() {
		// Graceful departure: refuse new circuits so clients re-path
		// instead of building through a relay about to vanish.
		_ = link.SendControl(cs.lk, c.Circ, cell.Destroy, nil)
		return
	}
	cs.mu.Lock()
	if _, dup := cs.circuits[c.Circ]; dup {
		cs.mu.Unlock()
		_ = link.SendControl(cs.lk, c.Circ, cell.Destroy, nil)
		return
	}
	cs.mu.Unlock()

	reply, hop, err := onion.ServerHandshake(r.cfg.Identity, c.Payload[:onion.KeyLen], nil)
	if err != nil {
		r.tm.handshakeFailures.Inc()
		_ = link.SendControl(cs.lk, c.Circ, cell.Destroy, nil)
		return
	}
	circ := &circuit{
		r:       r,
		prevCS:  cs,
		prevID:  c.Circ,
		hop:     hop,
		streams: make(map[cell.StreamID]*exitStream),
	}
	cs.mu.Lock()
	cs.circuits[c.Circ] = circ
	cs.mu.Unlock()

	if err := link.SendControl(cs.lk, c.Circ, cell.Created, reply); err != nil {
		circ.destroy(false, false)
		return
	}
	r.stats.CircuitsBuilt.Add(1)
	r.tm.circuitsCreated.Inc()
}

func (cs *connState) handleDestroy(id cell.CircID) {
	if circ := cs.lookup(id); circ != nil {
		circ.destroy(false, true)
	}
}
