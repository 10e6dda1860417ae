package echo

import (
	"io"
	"net"
	"testing"
	"time"
)

func TestHandleEchoes(t *testing.T) {
	a, b := net.Pipe()
	go Handle(b)
	defer a.Close()
	msg := []byte("hello echo")
	if _, err := a.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(a, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello echo" {
		t.Errorf("echoed %q", buf)
	}
}

func TestServerOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		if conn, err := ln.Accept(); err == nil {
			Handle(conn)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	c := NewClient(conn)
	rtt, err := c.Probe()
	if err != nil {
		t.Fatal(err)
	}
	if rtt <= 0 || rtt > 2*time.Second {
		t.Errorf("loopback RTT = %v", rtt)
	}
}

func TestProbeN(t *testing.T) {
	a, b := net.Pipe()
	go Handle(b)
	defer a.Close()
	c := NewClient(a)
	rtts, err := c.ProbeN(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rtts) != 10 {
		t.Fatalf("got %d rtts", len(rtts))
	}
	for i, r := range rtts {
		if r <= 0 {
			t.Errorf("rtt[%d] = %v", i, r)
		}
	}
}

func TestProbeSequenceMismatch(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	// A "server" that answers with the wrong sequence number.
	go func() {
		buf := make([]byte, ProbeSize)
		if _, err := io.ReadFull(b, buf); err != nil {
			return
		}
		buf[7] ^= 0xFF
		b.Write(buf)
	}()
	c := NewClient(a)
	if _, err := c.Probe(); err == nil {
		t.Error("mismatched sequence should error")
	}
}

func TestProbeOnClosedConn(t *testing.T) {
	a, b := net.Pipe()
	b.Close()
	c := NewClient(a)
	if _, err := c.Probe(); err == nil {
		t.Error("probe over dead conn should fail")
	}
}
