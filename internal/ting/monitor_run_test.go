package ting_test

import (
	"context"
	"testing"
	"time"

	"ting/internal/experiments"
	"ting/internal/serve"
	"ting/internal/ting"
)

// TestMonitorRunPublishesEpochs drives a real Monitor over the synthetic
// Internet and checks Run's publish policy: epochs advance while sweeps
// measure, and the served matrix converges to the monitor's.
func TestMonitorRunPublishesEpochs(t *testing.T) {
	world, err := experiments.NewTestbedWorld(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := ting.NewMonitor(ting.MonitorConfig{
		NewMeasurer: func(worker int) (*ting.Measurer, error) {
			return world.Measurer(1, int64(worker)+100)
		},
		Names: world.Names,
		// Every pair is always stale, so every sweep measures and every sweep
		// publishes — the epoch-churn regime the serving plane must survive.
		MaxAge: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	pub := serve.NewPublisher(nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	epochs := 0
	mon.Run(ctx, time.Millisecond, func(m *ting.Matrix, stats ting.MonitorStats, err error) {
		if err != nil {
			t.Errorf("sweep error: %v", err)
		}
		if m != nil {
			if _, err := pub.Publish(m); err != nil {
				t.Fatal(err)
			}
			epochs++
		}
		if epochs >= 3 {
			cancel()
		}
	})
	if epochs < 3 {
		t.Fatalf("published %d epochs, want ≥ 3", epochs)
	}
	snap := pub.Current()
	if snap == nil || snap.Epoch() < 3 {
		t.Fatalf("current snapshot %+v", snap)
	}
	// The served data is a real measurement: nonzero and matching the
	// monitor's own matrix.
	x, y := world.Names[0], world.Names[1]
	served, err := snap.View().RTT(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if served <= 0 {
		t.Fatalf("served RTT %v", served)
	}
	pc := snap.ProvCounts()
	if pc.Missing != 0 || pc.Fresh == 0 {
		t.Fatalf("prov counts fresh=%d missing=%d", pc.Fresh, pc.Missing)
	}
}
