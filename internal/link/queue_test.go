package link

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ting/internal/cell"
)

// The pipe and delay queues hold pointers to pooled entries instead of
// cell-sized slots. These tests pin what that must not change — capacity,
// blocking back-pressure, ordering — and what it is for: an idle link is
// cheap.

func TestDelayedBackpressureAtCapacity(t *testing.T) {
	const pipeCap = 8
	a, b := Pipe(pipeCap, "a", "b")
	da := Delayed(a, 0, 0)
	defer da.Close()
	defer b.Close()

	// With nobody receiving, the sender gets exactly this far: a full
	// delay queue, a full pipe, and the one cell the pump is holding.
	const accepted = queueCap + pipeCap + 1
	const total = accepted + 50
	var sent atomic.Int64
	done := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			if err := sendCell(da, testCell(uint32(i), 0)); err != nil {
				done <- err
				return
			}
			sent.Add(1)
		}
		done <- nil
	}()
	deadline := time.Now().Add(5 * time.Second)
	for sent.Load() < accepted {
		if time.Now().After(deadline) {
			t.Fatalf("sender stuck at %d cells, want %d accepted", sent.Load(), accepted)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if got := sent.Load(); got != accepted {
		t.Fatalf("%d sends accepted with no receiver, want the sender blocked at %d", got, accepted)
	}

	// Draining releases the sender, and every cell arrives in order.
	for i := 0; i < total; i++ {
		got, err := recvCell(b)
		if err != nil {
			t.Fatal(err)
		}
		if got.Circ != cell.CircID(i) {
			t.Fatalf("reordered: got %d at %d", got.Circ, i)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestIdleLinkIsCheap(t *testing.T) {
	pn := NewPipeNet()
	ln, err := pn.Listen("idle")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			lk, err := ln.Accept()
			if err != nil {
				return
			}
			lk.Close()
		}
	}()
	const dials = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < dials; i++ {
		raw, err := pn.Dial("idle")
		if err != nil {
			t.Fatal(err)
		}
		Delayed(raw, 0, 0).Close()
	}
	runtime.ReadMemStats(&after)
	perDial := float64(after.TotalAlloc-before.TotalAlloc) / dials / 1024
	t.Logf("%.1f KiB allocated per dialed, delayed link", perDial)
	// Two 256-pointer pipe queues and two 1024-pointer delay queues are
	// ~20 KiB; value-typed slots made this 1361 KiB.
	if perDial > 32 {
		t.Errorf("a dialed, delayed link allocates %.1f KiB, want ≤ 32", perDial)
	}
}
