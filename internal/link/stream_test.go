package link

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"
)

// echoStream echoes b back to itself until it fails, like echo.Handle.
func echoStream(b io.ReadWriter) {
	buf := make([]byte, 64)
	for {
		n, err := b.Read(buf)
		if err != nil {
			return
		}
		if _, err := b.Write(buf[:n]); err != nil {
			return
		}
	}
}

func TestStreamPipeRoundTrip(t *testing.T) {
	a, b := StreamPipe(0, 0)
	defer a.Close()
	defer b.Close()
	go echoStream(b)
	msg := []byte("through the stream pair")
	if _, err := a.Write(msg); err != nil {
		t.Fatal(err)
	}
	msg[0] = 'X' // Write must not retain the caller's slice
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(a, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "through the stream pair" {
		t.Errorf("got %q", got)
	}
}

func TestStreamPipeInjectsLatency(t *testing.T) {
	const oneWay = 25 * time.Millisecond
	a, b := StreamPipe(oneWay, oneWay)
	defer a.Close()
	defer b.Close()
	go echoStream(b)
	start := time.Now()
	if _, err := a.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(a, buf); err != nil {
		t.Fatal(err)
	}
	rtt := time.Since(start)
	if rtt < 2*oneWay {
		t.Errorf("RTT %v below injected 2×%v", rtt, oneWay)
	}
	if rtt > 2*oneWay+150*time.Millisecond {
		t.Errorf("RTT %v far above injected", rtt)
	}
}

func TestStreamPipePartialReads(t *testing.T) {
	a, b := StreamPipe(0, 0)
	defer a.Close()
	defer b.Close()
	if _, err := b.Write([]byte("01234")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write([]byte("56789")); err != nil {
		t.Fatal(err)
	}
	// Read in tiny pieces: what a short read leaves of a chunk comes next.
	var got []byte
	buf := make([]byte, 3)
	for len(got) < 10 {
		n, err := a.Read(buf)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		got = append(got, buf[:n]...)
	}
	if string(got) != "0123456789" {
		t.Errorf("got %q", got)
	}
}

// TestStreamPipeCloseUnblocks: Close reaches a Read that waits for bytes
// and one that waits out the delay of bytes already written.
func TestStreamPipeCloseUnblocks(t *testing.T) {
	for _, tc := range []struct {
		name    string
		written bool
	}{{"waiting for bytes", false}, {"waiting out the delay", true}} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := StreamPipe(time.Minute, time.Minute)
			defer b.Close()
			if tc.written {
				if _, err := b.Write([]byte("late")); err != nil {
					t.Fatal(err)
				}
			}
			done := make(chan error, 1)
			go func() {
				_, err := a.Read(make([]byte, 4))
				done <- err
			}()
			// Give Read time to reach the wait; closing first is also a pass.
			time.Sleep(20 * time.Millisecond)
			a.Close()
			select {
			case err := <-done:
				if !errors.Is(err, ErrClosed) {
					t.Errorf("Read = %v, want ErrClosed", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Read did not unblock on Close")
			}
			if _, err := a.Write([]byte("x")); !errors.Is(err, ErrClosed) {
				t.Errorf("Write after Close = %v, want ErrClosed", err)
			}
		})
	}
}

// TestStreamPipePeerEOF: what the peer wrote before closing is still read,
// then the stream ends; writing to the closed peer fails.
func TestStreamPipePeerEOF(t *testing.T) {
	a, b := StreamPipe(0, 5*time.Millisecond)
	defer a.Close()
	if _, err := b.Write([]byte("last words")); err != nil {
		t.Fatal(err)
	}
	b.Close()
	got, err := io.ReadAll(a)
	if err != nil {
		t.Fatalf("ReadAll = %v, want a clean EOF", err)
	}
	if !bytes.Equal(got, []byte("last words")) {
		t.Errorf("read %q before EOF", got)
	}
	if _, err := a.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("Write to closed peer = %v, want io.ErrClosedPipe", err)
	}
}
