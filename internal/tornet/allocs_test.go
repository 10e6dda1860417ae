package tornet

import (
	"testing"

	"ting/internal/client"
	"ting/internal/directory"
	"ting/internal/echo"
	"ting/internal/inet"
)

// The allocation budgets of the onion stack's circuit churn, one layer
// each, on the overlay a stack scan runs: every injected delay rounds to
// zero, so the figures are the stack's and not the timers'. AllocsPerRun
// counts every goroutine's allocations, the relays' too. Each budget is a
// ceiling at what the stack allocates; the handshake's own budget is
// onion's TestHandshakeAllocs.

// allocWorld is a zero-delay overlay of four public relays and a circuit
// (w, x, y, z) through it, with the two relays that can stand in for y.
func allocWorld(t *testing.T) (circ *client.Circuit, ys [2]*directory.Descriptor, z *directory.Descriptor) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates, and sync.Pool drops entries at random under -race")
	}
	topo, host := smallWorld(t, 4)
	n, err := Build(Config{Topology: topo, Host: host, TimeScale: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	name := func(i inet.NodeID) string {
		s, _ := n.NodeName(i)
		return s
	}
	path := circuitPath(t, n, WName, name(0), name(1), ZName)
	circ, err = n.Client.BuildCircuit(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { circ.Close() })
	ys = [2]*directory.Descriptor{path[2], circuitPath(t, n, name(2))[0]}
	return circ, ys, path[3]
}

// TestReshapeAllocs: a reshape of (w, x, y, z) into (w, x, y', z) — one
// TRUNCATE and two EXTENDs, the step a reusing stack scan takes between
// pairs — allocates two handshakes' keys and hop states at the client and
// the new hops, the two relay circuits, and the dropped hops' teardown.
func TestReshapeAllocs(t *testing.T) {
	circ, ys, z := allocWorld(t)
	k := 0
	reshape := func() {
		k++
		if err := circ.Truncate(2); err != nil {
			t.Fatal(err)
		}
		for _, d := range []*directory.Descriptor{ys[k%2], z} {
			if err := circ.Extend(d); err != nil {
				t.Fatal(err)
			}
		}
	}
	allocs := testing.AllocsPerRun(100, reshape)
	t.Logf("%.0f allocations per reshape", allocs)
	const ceiling = 95
	if allocs > ceiling {
		t.Errorf("%.0f allocations per TRUNCATE + 2 EXTENDs, want ≤ %d", allocs, ceiling)
	}
}

// TestStreamAllocs: opening a stream through the exit and closing it
// allocates the stream's state at the client and at the exit and the
// exit's stream pair to the echo server.
func TestStreamAllocs(t *testing.T) {
	circ, _, _ := allocWorld(t)
	allocs := testing.AllocsPerRun(100, func() {
		st, err := circ.OpenStream(EchoTarget)
		if err != nil {
			t.Fatal(err)
		}
		st.Close()
	})
	t.Logf("%.0f allocations per stream open and close", allocs)
	const ceiling = 12
	if allocs > ceiling {
		t.Errorf("%.0f allocations per stream open and close, want ≤ %d", allocs, ceiling)
	}
}

// TestEchoProbeAllocs: one echo round trip over a four-hop circuit and the
// exit's stream pair to the echo server allocates nothing: each cell is
// built in a per-circuit scratch cell, each data buffer and stream chunk
// comes from cell's pool and goes back to it.
func TestEchoProbeAllocs(t *testing.T) {
	circ, _, _ := allocWorld(t)
	st, err := circ.OpenStream(EchoTarget)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ec := echo.NewClient(st)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := ec.Probe(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.2f allocations per probe", allocs)
	if allocs > 0 {
		t.Errorf("%.2f allocations per echo round trip, want 0", allocs)
	}
}
