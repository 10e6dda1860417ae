// Package inet models the synthetic Internet under the Ting reproduction.
//
// The paper measures the live Tor network and a PlanetLab testbed, neither of
// which is available offline. This package replaces them with a generated
// topology whose latency structure exhibits the phenomena the paper studies:
//
//   - propagation delay bounded below by great-circle distance at 2/3 c,
//   - per-pair routing inflation, sampled independently, which naturally
//     creates triangle inequality violations (§5.2.1),
//   - per-node access-link delays (residential vs. datacenter),
//   - per-network differential treatment of ICMP and non-Tor TCP traffic
//     for roughly 35% of networks (§3.2, §4.3, Figure 5), and
//   - per-relay stochastic forwarding delays with heavy-tailed queueing,
//     so that minimum-finding takes many samples (§4.4, Figure 6).
//
// The ground-truth RTT matrix is exactly known, which is what makes the
// validation experiments (Figures 3, 4, 7) meaningful: the "real" value the
// paper got from ping is available here by construction.
package inet

import (
	"fmt"
	"math"
	"math/rand"

	"ting/internal/geo"
)

// NodeID identifies a node within a Topology.
type NodeID int

// Class describes what kind of network hosts a node. The paper finds the
// live Tor relay population to be roughly 61% residential with the rest in
// universities and hosting providers (§5.3).
type Class int

// Node classes.
const (
	Residential Class = iota
	Datacenter
	University
)

// String returns the lowercase class name.
func (c Class) String() string {
	switch c {
	case Residential:
		return "residential"
	case Datacenter:
		return "datacenter"
	case University:
		return "university"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Node is a host on the synthetic Internet.
type Node struct {
	ID     NodeID
	Name   string
	Coord  geo.Coord
	Region string
	Class  Class

	// AccessMs is the round-trip contribution of the node's access link,
	// added to every RTT involving this node.
	AccessMs float64

	// Biased marks networks that treat ICMP/TCP/Tor traffic differently
	// (§3.2). For such nodes, direct ping and tcptraceroute measurements
	// diverge from the Tor-path RTT in hard-to-predict ways.
	Biased bool
	// ICMPBiasMs and TCPBiasMs are added to direct ICMP and non-Tor TCP
	// probes respectively (zero for unbiased nodes). They may be negative:
	// the paper observed "negative forwarding delays" implying ping took a
	// longer path than Tor traffic (Figure 5).
	ICMPBiasMs float64
	TCPBiasMs  float64

	// Fwd is the node's forwarding-delay distribution when relaying Tor
	// cells.
	Fwd ForwardingModel

	// BandwidthKBps is the advertised relay bandwidth used for weighted
	// path selection (§5.1.1, "Weighted Node Selection").
	BandwidthKBps float64

	// connectivity scales the routing inflation of every path touching
	// this node: hub networks near exchange points see little inflation,
	// which is what makes them attractive triangle-inequality detours
	// (§5.2.1; cf. Detour and PeerWise).
	connectivity float64
}

// Topology is a set of nodes plus the exact ground-truth Tor-path RTT matrix
// between them.
type Topology struct {
	Nodes []*Node
	rtt   [][]float64 // milliseconds, symmetric, zero diagonal
}

// Config parameterizes topology generation.
type Config struct {
	// N is the number of nodes (required, ≥ 2).
	N int
	// Seed drives all randomness; equal seeds give equal topologies.
	Seed int64

	// FlatRegions spreads nodes uniformly over all regions instead of the
	// Tor-like US/EU concentration. The paper's PlanetLab testbed was
	// chosen this way (§4.1): wide geographic coverage with pair latencies
	// from ~0ms to nearly antipodal.
	FlatRegions bool
}

// The make-up of a generated topology.
const (
	// biasedFraction is the fraction of nodes whose networks treat ICMP and
	// TCP probes differently from Tor traffic (§4.3: "the remaining 35% of
	// nodes show extremely odd behavior").
	biasedFraction = 0.35

	// residentialFraction is the fraction of nodes on residential access
	// links (§5.3). The remainder splits 2:1 between datacenters and
	// universities.
	residentialFraction = 0.61

	// Routing inflation is 1 + LogNormal(inflationMu, inflationSigma): a
	// median path inflation around 1.7x with enough independent variation
	// that a majority of pairs exhibit a TIV (§5.2.1 finds TIVs for 69% of
	// pairs) while the 50-node RTT range stays within the paper's ~0–450ms
	// (Figure 11).
	inflationMu    = -0.4
	inflationSigma = 0.4

	// maxICMPBiasMs bounds the magnitude of per-node ICMP bias.
	maxICMPBiasMs = 40

	// hubFraction is the share of nodes on well-connected networks whose
	// paths see little routing inflation.
	hubFraction = 0.15
)

// Generate builds a deterministic synthetic topology per cfg.
func Generate(cfg Config) (*Topology, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("inet: config needs N ≥ 2, got %d", cfg.N)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	regions := geo.Regions()

	if cfg.FlatRegions {
		regions = append([]geo.Region(nil), regions...)
		for i := range regions {
			regions[i].Weight = 1 / float64(len(regions))
		}
	}

	nodes := make([]*Node, cfg.N)
	for i := range nodes {
		r := pickRegion(regions, rng)
		coord := scatter(r, rng)
		n := &Node{
			ID:     NodeID(i),
			Name:   fmt.Sprintf("relay%03d", i),
			Coord:  coord,
			Region: r.Name,
		}
		assignClass(n, residentialFraction, rng)
		assignBias(n, biasedFraction, maxICMPBiasMs, rng)
		n.Fwd = randomForwardingModel(rng)
		n.connectivity = 1.0
		if rng.Float64() < hubFraction {
			n.connectivity = 0.35 + rng.Float64()*0.25
		}
		nodes[i] = n
	}

	t := &Topology{Nodes: nodes, rtt: make([][]float64, cfg.N)}
	for i := range t.rtt {
		t.rtt[i] = make([]float64, cfg.N)
	}
	for i := 0; i < cfg.N; i++ {
		for j := i + 1; j < cfg.N; j++ {
			base := geo.MinRTTMs(nodes[i].Coord, nodes[j].Coord)
			conn := nodes[i].connectivity * nodes[j].connectivity
			infl := 1 + conn*lognormal(inflationMu, inflationSigma, rng)
			rtt := base*infl + nodes[i].AccessMs + nodes[j].AccessMs
			// Nothing is faster than a LAN hop.
			if rtt < 0.2 {
				rtt = 0.2
			}
			t.rtt[i][j] = rtt
			t.rtt[j][i] = rtt
		}
	}
	return t, nil
}

func pickRegion(regions []geo.Region, rng *rand.Rand) geo.Region {
	x := rng.Float64()
	var acc float64
	for _, r := range regions {
		acc += r.Weight
		if x < acc {
			return r
		}
	}
	return regions[len(regions)-1]
}

func scatter(r geo.Region, rng *rand.Rand) geo.Coord {
	c := geo.Coord{
		Lat: r.Center.Lat + rng.NormFloat64()*r.Spread/2,
		Lon: r.Center.Lon + rng.NormFloat64()*r.Spread/2,
	}
	if c.Lat > 89 {
		c.Lat = 89
	}
	if c.Lat < -89 {
		c.Lat = -89
	}
	for c.Lon > 180 {
		c.Lon -= 360
	}
	for c.Lon < -180 {
		c.Lon += 360
	}
	return c
}

func assignClass(n *Node, residentialFrac float64, rng *rand.Rand) {
	x := rng.Float64()
	switch {
	case x < residentialFrac:
		n.Class = Residential
		n.AccessMs = 2 + rng.Float64()*12 // DSL/cable last-mile RTT
		n.BandwidthKBps = 100 + rng.Float64()*2000
	case x < residentialFrac+(1-residentialFrac)*2/3:
		n.Class = Datacenter
		n.AccessMs = 0.1 + rng.Float64()*0.9
		n.BandwidthKBps = 5000 + rng.Float64()*45000
	default:
		n.Class = University
		n.AccessMs = 0.5 + rng.Float64()*3
		n.BandwidthKBps = 2000 + rng.Float64()*18000
	}
}

func assignBias(n *Node, biasedFrac, maxICMP float64, rng *rand.Rand) {
	if rng.Float64() >= biasedFrac {
		return
	}
	n.Biased = true
	// Most biased networks shift probes by a few ms; a tail shifts by tens
	// of ms, in either direction (Figure 5 shows -60..+100 ms). The bulk
	// must stay small or Figure 3's 91%-within-10% result could not
	// coexist with Figure 5's 35% abnormal networks.
	mag := expRand(3, rng)
	if mag > maxICMP {
		mag = maxICMP
	}
	if rng.Intn(2) == 0 {
		mag = -mag
	}
	n.ICMPBiasMs = mag
	// TCP bias correlates loosely with ICMP bias but is distinct, so that
	// ICMP- and TCP-based forwarding-delay estimates visibly disagree.
	n.TCPBiasMs = mag*0.5 + rng.NormFloat64()*3
}

func lognormal(mu, sigma float64, rng *rand.Rand) float64 {
	return math.Exp(mu + sigma*rng.NormFloat64())
}

func expRand(mean float64, rng *rand.Rand) float64 {
	return rng.ExpFloat64() * mean
}

// N returns the number of nodes.
func (t *Topology) N() int { return len(t.Nodes) }

// RTT returns the ground-truth Tor-path round-trip time between nodes i and
// j in milliseconds. It panics on out-of-range IDs, matching slice semantics.
func (t *Topology) RTT(i, j NodeID) float64 { return t.rtt[i][j] }

// Node returns the node with the given ID, or nil if out of range.
func (t *Topology) Node(id NodeID) *Node {
	if id < 0 || int(id) >= len(t.Nodes) {
		return nil
	}
	return t.Nodes[id]
}

// OverrideRTT replaces the ground-truth RTT for a pair; tests use this to
// construct exact scenarios.
func (t *Topology) OverrideRTT(i, j NodeID, ms float64) {
	t.rtt[i][j] = ms
	t.rtt[j][i] = ms
}
