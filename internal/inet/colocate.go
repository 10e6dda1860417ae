package inet

// AddColocated appends a node colocated with base: same coordinate, and the
// same RTT to every other node, with only a loopback hop between the two.
// Ting runs its two local relays w and z this way — "in practice, we simply
// run all four processes on the same host h" (§3.3) — which is what makes
// R(s, anything) equal to R(d, anything) and lets Eq. (4) cancel the local
// terms.
func (t *Topology) AddColocated(base NodeID, name string) NodeID {
	bn := t.Node(base)
	id := NodeID(len(t.Nodes))
	n := &Node{
		ID:            id,
		Name:          name,
		Coord:         bn.Coord,
		Region:        bn.Region,
		Class:         bn.Class,
		AccessMs:      bn.AccessMs,
		Fwd:           LocalForwardingModel(),
		BandwidthKBps: bn.BandwidthKBps,
	}
	t.Nodes = append(t.Nodes, n)
	row := make([]float64, id+1)
	for i := range id {
		row[i] = t.RTT(i, base)
	}
	row[base] = 0.05
	t.rtt = append(t.rtt, row)
	return id
}
