package link

import (
	"io"
	"testing"

	"ting/internal/cell"
)

// One round trip per iteration against an echoing peer: the cost of a link
// crossing and back, per transport. The CI bench job diffs these against
// the committed baseline (scripts/benchdiff.sh).

func benchCellRoundTrip(b *testing.B, near, far Link) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		var c cell.Cell
		for far.Recv(&c) == nil && far.Send(&c) == nil {
		}
	}()
	c := cell.Cell{Circ: 7, Cmd: cell.Relay}
	b.ReportAllocs()
	for b.Loop() {
		if err := near.Send(&c); err != nil {
			b.Fatal(err)
		}
		if err := near.Recv(&c); err != nil {
			b.Fatal(err)
		}
	}
	near.Close()
	far.Close()
	<-done
}

func BenchmarkPipeCellRoundTrip(b *testing.B) {
	near, far := Pipe(0, "a", "b")
	benchCellRoundTrip(b, near, far)
}

func BenchmarkDelayedPipeCellRoundTrip(b *testing.B) {
	near, far := Pipe(0, "a", "b")
	benchCellRoundTrip(b, Delayed(near, 0, 0), far)
}

func BenchmarkDelayedTCPCellRoundTrip(b *testing.B) {
	ln, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan Link, 1)
	go func() {
		far, _ := ln.Accept()
		accepted <- far
	}()
	near, err := TCPDialer{}.Dial(ln.Addr())
	if err != nil {
		b.Fatal(err)
	}
	far := <-accepted
	if far == nil {
		b.Fatal("accept failed")
	}
	benchCellRoundTrip(b, Delayed(near, 0, 0), far)
}

func BenchmarkStreamPipeProbeRoundTrip(b *testing.B) {
	near, far := StreamPipe(0, 0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		echoStream(far)
	}()
	var probe [16]byte // echo.ProbeSize
	b.ReportAllocs()
	for b.Loop() {
		if _, err := near.Write(probe[:]); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(near, probe[:]); err != nil {
			b.Fatal(err)
		}
	}
	near.Close()
	far.Close()
	<-done
}
