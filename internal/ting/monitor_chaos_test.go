package ting_test

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"ting/internal/faults"
	"ting/internal/geo"
	"ting/internal/inet"
	"ting/internal/serve"
	"ting/internal/ting"
	"ting/internal/tornet"
)

// TestChaosSoakMonitorSweeper puts the serving plane's data path — a
// Monitor's Run loop feeding a serve.Publisher — under the fault plan of
// TestChaosSoakFlapCancelResume: a live in-process overlay with one relay
// flapping. MaxAge is short, so every pair is re-measured throughout the
// flapping, which then stops. Every sweep must return, published epochs
// must only go up, every pair must end measured and fresh, and no engine or
// serving goroutine may outlive Run.
func TestChaosSoakMonitorSweeper(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack soak is seconds-long; skipped in -short")
	}
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

	mon, err := ting.NewMonitor(ting.MonitorConfig{
		NewMeasurer: func(worker int) (*ting.Measurer, error) {
			p := &ting.StackProber{
				Client:   n.Client,
				Registry: n.Registry,
				Target:   tornet.EchoTarget,
				ToMs:     n.VirtualMs,
			}
			return ting.NewMeasurer(ting.Config{Prober: p, W: tornet.WName, Z: tornet.ZName, Samples: 2})
		},
		Names:   names,
		MaxAge:  150 * time.Millisecond,
		Workers: 2,
		Health:  ting.NewHealth(ting.HealthConfig{FailureThreshold: 3, Cooldown: 100 * time.Millisecond}),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Flap for five periods, then calm the relay and sweep until every pair
	// has been re-measured twice over with no failure and nothing stepped
	// over in between.
	const flapFor = 2 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var (
		sweeps    int
		lastEpoch uint64
		calmed    bool
		clean     ting.MonitorStats // the stats when the current clean run began
	)
	start := time.Now()
	pub := serve.NewPublisher(nil)
	mon.Run(ctx, 10*time.Millisecond, func(m *ting.Matrix, stats ting.MonitorStats, err error) {
		sweeps++
		if m != nil {
			snap, perr := pub.Publish(m)
			if perr != nil {
				t.Fatal(perr)
			}
			if snap.Epoch() <= lastEpoch {
				t.Errorf("epoch went from %d to %d", lastEpoch, snap.Epoch())
			}
			lastEpoch = snap.Epoch()
		}
		if !calmed {
			if time.Since(start) >= flapFor {
				plan.SetRelay(flappy, faults.RelaySchedule{})
				calmed = true
				clean = stats
			}
			return
		}
		if err != nil || stats.Failed != clean.Failed || stats.Quarantined != clean.Quarantined {
			clean = stats
			return
		}
		if stats.Measured-clean.Measured >= 12 {
			cancel()
		}
	})
	if ctx.Err() != context.Canceled {
		t.Fatalf("the overlay never calmed down: %d sweeps, stats %+v", sweeps, mon.Stats())
	}

	// Run sweeps synchronously, so its return means every sweep returned;
	// the one it may start after cancel calls no publish.
	st := mon.Stats()
	if d := st.Sweeps - sweeps; d < 0 || d > 1 {
		t.Errorf("%d sweeps started, %d reported", st.Sweeps, sweeps)
	}
	if st.Measured <= 6 {
		t.Errorf("only %d measurements over the soak; MaxAge re-measurement did not happen", st.Measured)
	}
	t.Logf("%d sweeps, %d epochs, stats %+v", sweeps, lastEpoch, st)
	if pc := pub.Current().ProvCounts(); pc.Fresh != 6 {
		t.Errorf("published provenance %+v, want all 6 pairs fresh", pc)
	}
	m := mon.Matrix()
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if v := m.At(i, j); v <= 0 || m.ProvAt(i, j) != ting.ProvFresh {
				t.Errorf("pair (%s,%s) ended %v / %v", names[i], names[j], v, m.ProvAt(i, j))
			}
		}
	}

	// No goroutine running engine, monitor or serving code may outlive Run.
	// The overlay's own goroutines (relays, the client's links) live until
	// n.Close and are not this test's subject.
	deadline := time.Now().Add(5 * time.Second)
	for {
		leaked := engineGoroutines()
		if len(leaked) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines outlived Run:\n%s", strings.Join(leaked, "\n\n"))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// engineGoroutines returns the stacks of goroutines, other than the
// caller's, with a frame in internal/ting or internal/serve.
func engineGoroutines() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out []string
	for i, g := range strings.Split(string(buf), "\n\n") {
		if i == 0 {
			continue // the calling goroutine comes first
		}
		if strings.Contains(g, "ting/internal/ting.") || strings.Contains(g, "ting/internal/serve.") {
			out = append(out, g)
		}
	}
	return out
}
