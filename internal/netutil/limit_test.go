package netutil

import (
	"bufio"
	"errors"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

// TestHTTPConnectionLimit: with both of two slots held by keep-alive
// connections, a third connection's request gets no reply; once one of the
// held connections closes, it is answered.
func TestHTTPConnectionLimit(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(LimitListener(ln, 2))
	}()
	defer func() {
		srv.Close()
		<-served
	}()

	const req = "GET / HTTP/1.1\r\nHost: limit\r\n\r\n"
	ask := func() (net.Conn, *bufio.Reader) {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		if _, err := conn.Write([]byte(req)); err != nil {
			t.Fatal(err)
		}
		return conn, bufio.NewReader(conn)
	}
	status := func(conn net.Conn, br *bufio.Reader, wait time.Duration) (string, error) {
		conn.SetReadDeadline(time.Now().Add(wait))
		line, err := br.ReadString('\n')
		return strings.TrimSpace(line), err
	}
	var held []net.Conn
	for i := 0; i < 2; i++ {
		conn, br := ask()
		if line, err := status(conn, br, 5*time.Second); err != nil || line != "HTTP/1.1 200 OK" {
			t.Fatalf("held connection %d: %q, %v", i, line, err)
		}
		held = append(held, conn) // keep-alive: its slot stays taken
	}

	third, br := ask()
	if line, err := status(third, br, 200*time.Millisecond); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("third connection answered with both slots held: %q, %v", line, err)
	}
	held[0].Close()
	if line, err := status(third, br, 5*time.Second); err != nil || line != "HTTP/1.1 200 OK" {
		t.Fatalf("third connection after a slot freed: %q, %v", line, err)
	}
}
