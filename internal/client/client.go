// Package client implements the mintor onion proxy: it builds circuits
// through explicitly chosen relays and attaches byte streams to them.
//
// It enforces the two local-client policies the paper works within (§3.1):
// one-hop circuits are disallowed, and a relay cannot appear on a circuit
// more than once. Ting never needs to violate these — its circuits are
// (w, x), (w, y), and (w, x, y, z) — but it must function under them, which
// is exactly why the measurement host runs two local relays.
package client

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ting/internal/cell"
	"ting/internal/directory"
	"ting/internal/link"
	"ting/internal/telemetry"
)

// Config configures an onion proxy.
type Config struct {
	// Dialer opens links to entry relays. Required.
	Dialer link.Dialer
	// Timeout bounds every protocol wait (circuit build steps, stream
	// opens). Default 15s.
	Timeout time.Duration
	// Telemetry, if non-nil, receives proxy counters (client.handshakes,
	// client.circuits_built, ...). Nil disables instrumentation.
	Telemetry *telemetry.Registry
}

// Client is an onion proxy. It is safe for concurrent use; each circuit
// gets its own link to its entry relay.
type Client struct {
	cfg Config
	rng struct {
		sync.Mutex
		*rand.Rand
	}
	tm clientMetrics
}

// clientMetrics holds the proxy's telemetry counters, resolved once at
// construction.
type clientMetrics struct {
	circuitsBuilt  *telemetry.Counter
	buildFailures  *telemetry.Counter
	handshakes     *telemetry.Counter
	extends        *telemetry.Counter
	truncates      *telemetry.Counter
	truncateFails  *telemetry.Counter
	streamsOpened  *telemetry.Counter
	streamFailures *telemetry.Counter
}

// New creates a Client.
func New(cfg Config) (*Client, error) {
	if cfg.Dialer == nil {
		return nil, errors.New("client: config missing Dialer")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 15 * time.Second
	}
	c := &Client{cfg: cfg}
	c.rng.Rand = rand.New(rand.NewSource(time.Now().UnixNano()))
	c.tm = clientMetrics{
		circuitsBuilt:  cfg.Telemetry.Counter("client.circuits_built"),
		buildFailures:  cfg.Telemetry.Counter("client.circuit_build_failures"),
		handshakes:     cfg.Telemetry.Counter("client.handshakes"),
		extends:        cfg.Telemetry.Counter("client.extends"),
		truncates:      cfg.Telemetry.Counter("client.truncates"),
		truncateFails:  cfg.Telemetry.Counter("client.truncate_failures"),
		streamsOpened:  cfg.Telemetry.Counter("client.streams_opened"),
		streamFailures: cfg.Telemetry.Counter("client.stream_failures"),
	}
	return c, nil
}

// ErrPathTooShort is returned for paths of fewer than two hops: the local
// client refuses one-hop circuits, as Tor does.
var ErrPathTooShort = errors.New("client: one-hop circuits are disallowed")

// ErrRepeatedRelay is returned when a relay appears twice on a path.
var ErrRepeatedRelay = errors.New("client: a relay cannot appear on a circuit more than once")

// BuildCircuit constructs a circuit through exactly the given relays, in
// order, performing one handshake per hop. The last relay is the exit.
func (c *Client) BuildCircuit(path []*directory.Descriptor) (*Circuit, error) {
	if len(path) < 2 {
		return nil, ErrPathTooShort
	}
	seen := make(map[string]bool, len(path))
	for _, d := range path {
		if d == nil {
			return nil, errors.New("client: nil descriptor in path")
		}
		if seen[d.Nickname] {
			return nil, fmt.Errorf("%w: %s", ErrRepeatedRelay, d.Nickname)
		}
		seen[d.Nickname] = true
	}

	lk, err := c.cfg.Dialer.Dial(path[0].Addr)
	if err != nil {
		c.tm.buildFailures.Inc()
		return nil, fmt.Errorf("client: dial entry %s: %w", path[0].Nickname, err)
	}
	circ := newCircuit(c, lk, c.newCircID(), path)
	if err := circ.build(); err != nil {
		circ.Close()
		c.tm.buildFailures.Inc()
		return nil, err
	}
	c.tm.circuitsBuilt.Inc()
	return circ, nil
}

func (c *Client) newCircID() cell.CircID {
	c.rng.Lock()
	defer c.rng.Unlock()
	for {
		if id := cell.CircID(c.rng.Uint32()); id != 0 {
			return id
		}
	}
}
