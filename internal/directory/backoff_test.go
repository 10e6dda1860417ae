package directory

import (
	"context"
	"net"
	"testing"
	"time"

	"ting/internal/telemetry"
)

// TestMirrorBacksOffOnFetchFailure points a mirror at a dead address and
// checks both halves of the failure contract: the fetch_errors counter
// counts every failed poll, and the polls themselves thin out
// exponentially instead of hammering at the configured interval.
func TestMirrorBacksOffOnFetchFailure(t *testing.T) {
	// A listener that is closed immediately: connections are refused fast,
	// so every poll fails quickly and the test measures cadence, not
	// timeouts.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	treg := telemetry.New()
	mirror := NewRegistry()
	const interval = 2 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	Mirror(ctx, addr, mirror, interval, treg)

	fails := treg.Counter("directory.mirror.fetch_errors").Value()
	if fails < 1 {
		t.Fatal("no fetch errors counted against a dead origin")
	}
	// Without backoff a 2ms cadence would poll ~75 times in 150ms. With
	// exponential backoff the delays run 2, 4, 8, 16, 32, 64… ms (±50%
	// jitter), so even a generous bound sits far below the fixed-cadence
	// count.
	if fails > 25 {
		t.Errorf("%d failed polls in 150ms at %s interval: backoff not applied", fails, interval)
	}
}

// TestMirrorRecoversCadenceAfterBackoff: once the origin answers again, a
// backed-off mirror snaps back to the configured interval and keeps
// following deltas (the fast-follow behavior TestMirrorFollowsOrigin pins
// for the never-failed case).
func TestMirrorRecoversCadenceAfterBackoff(t *testing.T) {
	origin := NewRegistry()
	if err := origin.Publish(testDesc(t, "alpha", true, 100)); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(origin)
	// Reserve a port, then close it: the mirror's first polls are refused
	// (a bound-but-unserved listener would queue them in the accept backlog
	// instead). The origin comes up on the same port afterwards.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	mirror := NewRegistry()
	treg := telemetry.New()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// The server is NOT serving yet: the first polls fail and back off.
		Mirror(ctx, addr, mirror, 2*time.Millisecond, treg)
	}()

	time.Sleep(20 * time.Millisecond) // let a few failures accrue
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("re-listen on %s: %v", addr, err)
	}
	go srv.Serve(ln2)
	defer srv.Close()

	deadline := time.Now().Add(5 * time.Second)
	for mirror.Epoch() < origin.Epoch() {
		if time.Now().After(deadline) {
			t.Fatalf("mirror never caught up after origin came back (epoch %d < %d)", mirror.Epoch(), origin.Epoch())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if treg.Counter("directory.mirror.fetch_errors").Value() == 0 {
		t.Error("expected at least one counted failure before the origin came up")
	}
	cancel()
	<-done
}
