package inet

import (
	"ting/internal/geo"

	"fmt"
	"math/rand"
)

// Prober draws latency samples from a Topology's ground-truth model. It is
// the model-direct measurement plane: the discrete-event simulator and the
// TCP transport produce the same numbers by construction, but the Prober is
// orders of magnitude faster, which the large experiments (930 pairs × 1000
// samples, 10,000 live pairs) require.
//
// A Prober is not safe for concurrent use; create one per goroutine with
// distinct seeds.
type Prober struct {
	topo *Topology
	seed int64
	rng  *stream // math/rand's value stream at seed, built on the first draw
}

// linkJitterMs is the mean of the exponential per-sample jitter added once
// per path (queueing outside the relays).
const linkJitterMs = 0.15

// NewProber creates a prober over topo with a deterministic seed. Its draws
// are those of rand.New(rand.NewSource(seed)), in call order.
func NewProber(topo *Topology, seed int64) *Prober {
	return &Prober{topo: topo, seed: seed}
}

// draws returns the prober's stream, seeding it on first use: a prober that
// never draws (an Exact ModelProber, built once per campaign lease) never
// pays for the generator's state.
func (p *Prober) draws() *stream {
	if p.rng == nil {
		p.rng = newStream(p.seed)
	}
	return p.rng
}

// Ping returns one ICMP round-trip sample between two nodes, in
// milliseconds. Biased networks shift ICMP traffic relative to the Tor path
// (§3.2), which is what makes the strawman of Figure 1 untenable.
func (p *Prober) Ping(from, to NodeID) float64 {
	a, b := p.topo.Node(from), p.topo.Node(to)
	rtt := p.topo.RTT(from, to) + a.ICMPBiasMs + b.ICMPBiasMs + p.jitter()
	if rtt < 0.05 {
		rtt = 0.05
	}
	return rtt
}

// TCPPing returns one direct (non-Tor) TCP round-trip sample, as measured by
// tcptraceroute in §4.3. Biased networks shift it too, differently from ICMP.
func (p *Prober) TCPPing(from, to NodeID) float64 {
	a, b := p.topo.Node(from), p.topo.Node(to)
	rtt := p.topo.RTT(from, to) + a.TCPBiasMs + b.TCPBiasMs + p.jitter()
	if rtt < 0.05 {
		rtt = 0.05
	}
	return rtt
}

// TorPathRTT fills out with end-to-end RTT samples for an echo through the
// Tor circuit host → relays[0] → … → relays[k-1] → host. Every relay
// forwards each probe twice (ping and pong directions), contributing two
// independent forwarding-delay samples, exactly as in Eq. (1). The path is
// resolved and its propagation legs summed once per call; each sample then
// adds its draws to that sum in path order, so a series is bitwise what
// len(out) one-sample calls give. The relays' models are copied to the
// stack, so the call writes nothing but out and the RNG.
//
// The draws are ForwardingModel.Sample's for each relay twice, then the
// link jitter's, in that order. The loop keeps the stream's cursor in a
// local and takes the ziggurat's accepting first step and Float64 inline;
// only a rejected exponential draw, a Float64 redraw and a spike's size
// go through the stream's methods.
func (p *Prober) TorPathRTT(host NodeID, relays []NodeID, out []float64) error {
	legs, err := p.legs(host, relays)
	if err != nil {
		return err
	}
	var buf [8]ForwardingModel
	fwd := buf[:0]
	for _, r := range relays {
		fwd = append(fwd, p.topo.Node(r).Fwd)
	}
	s := p.draws()
	k := s.pos
	var w uint64
	for i := range out {
		sum := legs
		for _, f := range fwd {
			var pair float64 // the relay's two draws: 0 + d0 + d1 is d0 + d1
			for range 2 {
				w, k = s.at(k)
				j := uint32(w >> 31)
				x := float64(j) * float64(we[j&0xFF])
				if j >= ke[j&0xFF] {
					s.pos = k
					x = s.expFrom(j)
					k = s.pos
				}
				d := f.BaseMs + x*f.QueueMeanMs
				if f.SpikeProb > 0 {
					w, k = s.at(k)
					u := float64(int64(w&rngMask)) / (1 << 63)
					if u == 1 {
						s.pos = k
						u = s.Float64()
						k = s.pos
					}
					if u < f.SpikeProb {
						s.pos = k
						d += s.ExpFloat64() * f.SpikeMeanMs
						k = s.pos
					}
				}
				pair += d
			}
			sum += pair
		}
		w, k = s.at(k)
		j := uint32(w >> 31)
		x := float64(j) * float64(we[j&0xFF])
		if j >= ke[j&0xFF] {
			s.pos = k
			x = s.expFrom(j)
			k = s.pos
		}
		out[i] = sum + x*linkJitterMs
	}
	s.pos = k
	return nil
}

// legs sums the propagation legs of the circuit host → relays → host.
func (p *Prober) legs(host NodeID, relays []NodeID) (float64, error) {
	if len(relays) == 0 {
		return 0, fmt.Errorf("inet: empty circuit")
	}
	var sum float64
	prev := host
	for _, r := range relays {
		if p.topo.Node(r) == nil {
			return 0, fmt.Errorf("inet: unknown relay %d", r)
		}
		sum += p.topo.RTT(prev, r)
		prev = r
	}
	return sum + p.topo.RTT(prev, host), nil
}

// TorPathFloorRTT returns the deterministic floor of TorPathRTT's sample
// distribution: the sum of the path's propagation legs plus each relay's
// forwarding floor (twice — ping and pong directions), with no queueing,
// no spikes, and no link jitter. It consumes no randomness, so two probers
// — or two processes — asking about the same path always get the same
// number. This is the value TorPathRTT's min-filtered series converges to,
// and the sampling mode distributed campaigns use when their merged matrix
// must be bytewise equal to a single-process scan.
func (p *Prober) TorPathFloorRTT(host NodeID, relays []NodeID) (float64, error) {
	sum, err := p.legs(host, relays)
	if err != nil {
		return 0, err
	}
	for _, r := range relays {
		sum += 2 * p.topo.Node(r).Fwd.Floor()
	}
	return sum, nil
}

func (p *Prober) jitter() float64 { return p.draws().ExpFloat64() * linkJitterMs }

// AddHost appends a measurement host to the topology: an unbiased,
// well-connected node at the given coordinate (the machine running s, d, w,
// and z in §3.3). It returns the new node's ID. RTTs from the host to every
// existing node are generated with the same model as relay-relay paths;
// the host's self-RTT is the loopback floor.
func (t *Topology) AddHost(name string, coord geo.Coord, seed int64) NodeID {
	rng := rand.New(rand.NewSource(seed))
	id := NodeID(len(t.Nodes))
	n := &Node{
		ID:            id,
		Name:          name,
		Coord:         coord,
		Region:        "host",
		Class:         Datacenter,
		AccessMs:      0.2,
		Fwd:           LocalForwardingModel(),
		BandwidthKBps: 50000,
	}
	t.Nodes = append(t.Nodes, n)
	for i := range t.rtt {
		base := geo.MinRTTMs(t.Nodes[i].Coord, coord)
		infl := 1 + lognormal(inflationMu, inflationSigma, rng)
		rtt := base*infl + t.Nodes[i].AccessMs + n.AccessMs
		if rtt < 0.2 {
			rtt = 0.2
		}
		t.rtt[i] = append(t.rtt[i], rtt)
	}
	row := make([]float64, len(t.Nodes))
	for i := range t.rtt {
		row[i] = t.rtt[i][id]
	}
	row[id] = 0.05 // loopback
	t.rtt = append(t.rtt, row)
	return id
}
