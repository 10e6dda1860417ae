package tornet_test

import (
	"bytes"
	"context"
	"runtime/pprof"
	"testing"

	"ting/internal/geo"
	"ting/internal/inet"
	"ting/internal/ting"
	"ting/internal/tornet"
)

// TestInProcessOverlayRunsNoLinkPump: with TCP off every link is a pipe
// half carrying its own delay and the exit's echo stream is a StreamPipe,
// so after a build and a whole scan — while every link of the overlay is
// still up — no goroutine is a link pump. (With TCP on, Delayed wraps each
// socket in a sendPump and a recvPump.)
func TestInProcessOverlayRunsNoLinkPump(t *testing.T) {
	const relays = 6
	topo, err := inet.Generate(inet.Config{N: relays, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	host := topo.AddHost("host", geo.Coord{Lat: 38.99, Lon: -76.94}, 8)
	n, err := tornet.Build(tornet.Config{Topology: topo, Host: host, TimeScale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	names := make([]string, relays)
	for i := range names {
		names[i], _ = n.NodeName(inet.NodeID(i))
	}
	scanner := &ting.Scanner{
		Workers: 2,
		NewMeasurer: func(int) (*ting.Measurer, error) {
			p := &ting.StackProber{
				Client: n.Client, Registry: n.Registry, Target: tornet.EchoTarget,
				ToMs: n.VirtualMs, Reuse: true,
			}
			return ting.NewMeasurer(ting.Config{Prober: p, W: tornet.WName, Z: tornet.ZName, Samples: 2})
		},
	}
	if _, failures, err := scanner.Scan(context.Background(), names); err != nil || len(failures) != 0 {
		t.Fatalf("scan: %v, failures %v", err, failures)
	}
	var stacks bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&stacks, 2); err != nil {
		t.Fatal(err)
	}
	for _, pump := range []string{"sendPump", "recvPump"} {
		if bytes.Contains(stacks.Bytes(), []byte(pump)) {
			t.Errorf("a %s goroutine is running in an in-process overlay:\n%s", pump, stacks.Bytes())
		}
	}
}
