package ting

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestPlanCampaignAnchorsToPaper(t *testing.T) {
	// §4.4: "Ting took an average of 2.5 minutes to measure a pair using
	// 200 samples". 3×200 samples + builds at ~240ms mean RTT ≈ 2.5 min.
	plan, err := PlanCampaign(CampaignConfig{
		Relays:  31,
		Samples: 200,
		MeanRTT: 240 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Pairs != 31*30/2 {
		t.Errorf("pairs = %d", plan.Pairs)
	}
	minutes := plan.PerPair.Minutes()
	t.Logf("per-pair at 200 samples: %.1f min (paper: ~2.5)", minutes)
	if minutes < 1.5 || minutes > 3.5 {
		t.Errorf("per-pair %.1f min outside the paper's ~2.5 min", minutes)
	}

	// "less than 15 seconds" at the 5%-error operating point (§4.4 found
	// within-5% medians of just a handful of samples; ~15 gives margin).
	fast, err := PlanCampaign(CampaignConfig{
		Relays:  31,
		Samples: 15,
		MeanRTT: 240 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("per-pair at 15 samples: %.1fs (paper: <15s)", fast.PerPair.Seconds())
	if fast.PerPair > 15*time.Second {
		t.Errorf("fast per-pair %.1fs, want < 15s", fast.PerPair.Seconds())
	}
}

func TestPlanCampaignScaling(t *testing.T) {
	// Parallelism divides total time.
	base, err := PlanCampaign(CampaignConfig{Relays: 100, Samples: 50})
	if err != nil {
		t.Fatal(err)
	}
	par, err := PlanCampaign(CampaignConfig{Relays: 100, Samples: 50, Parallel: 10})
	if err != nil {
		t.Fatal(err)
	}
	if par.Total*10 != base.Total {
		t.Errorf("parallel scaling wrong: %v vs %v", par.Total, base.Total)
	}
	// A pair costs three series and the literal procedure's 8 build round
	// trips.
	if want := (3*50 + 8) * 300 * time.Millisecond; base.PerPair != want {
		t.Errorf("per pair %v, want %v", base.PerPair, want)
	}

	// Explicit pair counts for non-all-pairs campaigns (e.g. the paper's
	// 10,000 live pairs).
	live, err := PlanCampaign(CampaignConfig{Pairs: 10000, Samples: 200, Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("10,000 pairs at 200 samples, 8-way parallel: %.1f days", live.Total.Hours()/24)
	if live.Pairs != 10000 {
		t.Errorf("pairs = %d", live.Pairs)
	}
}

func TestPlanCampaignMemoized(t *testing.T) {
	// §4.6 memoization: an N-relay all-pairs campaign samples Pairs + N
	// circuit series instead of 3·Pairs — for N = 100 (4950 pairs) the
	// sample budget shrinks ~2.9×, and so must the projected duration.
	base, err := PlanCampaign(CampaignConfig{Relays: 100, Samples: 50})
	if err != nil {
		t.Fatal(err)
	}
	memo, err := PlanCampaign(CampaignConfig{Relays: 100, Samples: 50, Memoized: true})
	if err != nil {
		t.Fatal(err)
	}
	if memo.Pairs != base.Pairs {
		t.Errorf("memoized pairs = %d, want %d", memo.Pairs, base.Pairs)
	}
	ratio := float64(base.Total) / float64(memo.Total)
	t.Logf("memoization shrinks the campaign %.2fx", ratio)
	if ratio < 2.5 {
		t.Errorf("memoized plan only %.2fx cheaper, want ~3x", ratio)
	}
	if memo.PerPair >= base.PerPair {
		t.Error("memoized per-pair average did not shrink")
	}
	// Memoization reasons about half circuits per relay: a pairs-only
	// config cannot say how many distinct relays those pairs touch.
	if _, err := PlanCampaign(CampaignConfig{Pairs: 100, Samples: 50, Memoized: true}); err == nil {
		t.Error("memoized plan without Relays accepted")
	}
}

func TestPlanCampaignValidation(t *testing.T) {
	if _, err := PlanCampaign(CampaignConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := PlanCampaign(CampaignConfig{Relays: 1}); err == nil {
		t.Error("1-relay campaign accepted")
	}
	if _, err := PlanCampaign(CampaignConfig{Pairs: -1}); err == nil {
		t.Error("negative pairs accepted")
	}
	if _, err := PlanCampaign(CampaignConfig{Relays: 5, Samples: -1}); err == nil {
		t.Error("negative samples accepted")
	}
}

func TestScannerSkipFailures(t *testing.T) {
	f := newFakeWorld()
	f.fwd["v"] = 0.5
	for _, peer := range []string{"h", "w", "z", "x", "y"} {
		f.rtt[[2]string{peer, "v"}] = 25
	}
	f.errs["x"] = errors.New("x is down")
	sc := &Scanner{
		NewMeasurer: func(worker int) (*Measurer, error) {
			return NewMeasurer(Config{Prober: f, W: "w", Z: "z", Samples: 1})
		},
		SkipFailures: true,
	}
	m, failures, err := sc.Scan(context.Background(), []string{"x", "y", "v"})
	if err != nil {
		t.Fatal(err)
	}
	// Pairs touching x fail; (y,v) succeeds.
	if len(failures) != 2 {
		t.Fatalf("%d failures, want 2: %v", len(failures), failures)
	}
	for _, pe := range failures {
		if pe.X != "x" && pe.Y != "x" {
			t.Errorf("unexpected failed pair %s-%s", pe.X, pe.Y)
		}
		if !strings.Contains(pe.Err.Error(), "down") {
			t.Errorf("failure cause lost: %v", pe.Err)
		}
	}
	if v, _ := m.RTT("y", "v"); v <= 0 {
		t.Error("surviving pair not measured")
	}
	if v, _ := m.RTT("x", "y"); v != 0 {
		t.Error("failed pair has nonzero value")
	}
}

func TestMonitorCountsFailures(t *testing.T) {
	f := newFakeWorld()
	f.errs["x"] = errors.New("x offline")
	mon, err := NewMonitor(monitorConfig(t, f, []string{"x", "y"}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mon.Sweep(context.Background()); err == nil {
		t.Error("first error not surfaced")
	}
	if mon.Stats().Failed != 1 {
		t.Errorf("Failed = %d", mon.Stats().Failed)
	}
	// The pair stays stale and is retried once the relay recovers.
	delete(f.errs, "x")
	if _, err := mon.Sweep(context.Background()); err != nil {
		t.Fatal(err)
	}
	if v, _ := mon.Matrix().RTT("x", "y"); v <= 0 {
		t.Error("recovered pair not measured on retry")
	}
}
