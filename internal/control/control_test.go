package control

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ting/internal/client"
	"ting/internal/directory"
	"ting/internal/echo"
	"ting/internal/link"
	"ting/internal/onion"
	"ting/internal/relay"
)

type memExitDialer struct{}

func (memExitDialer) DialStream(target string) (io.ReadWriteCloser, error) {
	if target != "echo" {
		return nil, fmt.Errorf("unknown target %q", target)
	}
	a, b := net.Pipe()
	go echo.Handle(b)
	return a, nil
}

// testEnv runs relays on a PipeNet and a control+data server on loopback
// TCP.
type testEnv struct {
	srv         *Server
	controlAddr string
	dataAddr    string
	reg         *directory.Registry
}

func newTestEnv(t *testing.T, nRelays int, password string) *testEnv {
	t.Helper()
	pn := link.NewPipeNet()
	reg := directory.NewRegistry()
	for i := 0; i < nRelays; i++ {
		name := fmt.Sprintf("r%d", i)
		id, err := onion.NewIdentity(rand.New(rand.NewSource(int64(2000 + i))))
		if err != nil {
			t.Fatal(err)
		}
		ln, err := pn.Listen(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := relay.New(relay.Config{
			Nickname: name, Addr: name, Identity: id,
			Listener: ln, RelayDialer: pn, ExitDialer: memExitDialer{},
		})
		if err != nil {
			t.Fatal(err)
		}
		r.Start()
		t.Cleanup(func() { r.Close() })
		if err := reg.Publish(&directory.Descriptor{
			Nickname: name, Addr: name, OnionKey: id.Public(),
			BandwidthKBps: 100, Exit: true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	cl, err := client.New(client.Config{Dialer: pn, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Client: cl, Registry: reg, Password: password})
	if err != nil {
		t.Fatal(err)
	}
	ctrlLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dataLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeControl(ctrlLn)
	go srv.ServeData(dataLn)
	t.Cleanup(func() { srv.Close() })
	return &testEnv{
		srv:         srv,
		controlAddr: ctrlLn.Addr().String(),
		dataAddr:    dataLn.Addr().String(),
		reg:         reg,
	}
}

func dialAuthed(t *testing.T, env *testEnv, password string) *Conn {
	t.Helper()
	c, err := Dial(env.controlAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Authenticate(password); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestAuthRequired(t *testing.T) {
	env := newTestEnv(t, 2, "sekrit")
	c, err := Dial(env.controlAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.ExtendCircuit([]string{"r0", "r1"}); err == nil {
		t.Error("unauthenticated EXTENDCIRCUIT accepted")
	}
	if err := c.Authenticate("wrong"); err == nil {
		t.Error("wrong password accepted")
	}
	if err := c.Authenticate("sekrit"); err != nil {
		t.Errorf("correct password rejected: %v", err)
	}
}

func TestExtendAndCloseCircuit(t *testing.T) {
	env := newTestEnv(t, 3, "")
	c := dialAuthed(t, env, "")

	id, err := c.ExtendCircuit([]string{"r0", "r1", "r2"})
	if err != nil {
		t.Fatal(err)
	}
	if id <= 0 {
		t.Errorf("circuit id %d", id)
	}
	if err := c.CloseCircuit(id); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseCircuit(id); err == nil {
		t.Error("double close accepted")
	}
	if _, err := c.ExtendCircuit([]string{"r0", "ghost"}); err == nil {
		t.Error("unknown relay accepted")
	}
	if _, err := c.ExtendCircuit([]string{"r0"}); err == nil {
		t.Error("one-hop circuit accepted")
	}
	if _, err := c.ExtendCircuit(nil); err == nil {
		t.Error("empty path accepted")
	}
}

func TestConsensusOverControlPort(t *testing.T) {
	env := newTestEnv(t, 3, "")
	c := dialAuthed(t, env, "")
	reg, err := c.Consensus()
	if err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 3 {
		t.Errorf("consensus has %d relays, want 3", reg.Len())
	}
	if _, ok := reg.Lookup("r1"); !ok {
		t.Error("r1 missing from consensus")
	}
}

func TestGetInfoUnknownKey(t *testing.T) {
	env := newTestEnv(t, 2, "")
	c := dialAuthed(t, env, "")
	if _, err := c.GetInfo("version"); err == nil {
		t.Error("unknown key accepted")
	}
}

func TestDataPortEcho(t *testing.T) {
	env := newTestEnv(t, 2, "")
	c := dialAuthed(t, env, "")
	id, err := c.ExtendCircuit([]string{"r0", "r1"})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := DialStream(context.Background(), env.dataAddr, id, "echo")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	ec := echo.NewClient(conn)
	rtt, err := ec.Probe()
	if err != nil {
		t.Fatal(err)
	}
	if rtt <= 0 {
		t.Errorf("rtt = %v", rtt)
	}
	rtts, err := ec.ProbeN(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rtts) != 10 {
		t.Errorf("%d probes", len(rtts))
	}
}

func TestDataPortErrors(t *testing.T) {
	env := newTestEnv(t, 2, "")
	if _, err := DialStream(context.Background(), env.dataAddr, 999, "echo"); err == nil {
		t.Error("attach to unknown circuit accepted")
	}
	c := dialAuthed(t, env, "")
	id, err := c.ExtendCircuit([]string{"r0", "r1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DialStream(context.Background(), env.dataAddr, id, "no-such-target"); err == nil {
		t.Error("attach to unknown target accepted")
	}

	// Malformed first line.
	raw, err := net.Dial("tcp", env.dataAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	fmt.Fprintf(raw, "GIBBERISH\n")
	buf := make([]byte, 64)
	n, _ := raw.Read(buf)
	if !strings.HasPrefix(string(buf[:n]), "500") {
		t.Errorf("malformed attach answered %q", buf[:n])
	}
}

// TestDataPortRefusesOverlongLine: a data-port peer that sends 1 MiB with
// no newline is refused with the line bound named, having buffered about
// the bound, not the megabyte. handleData runs over an in-memory pipe, so
// the refusal is read whole, never lost to a reset.
func TestDataPortRefusesOverlongLine(t *testing.T) {
	junk := bytes.Repeat([]byte("x"), 1<<20)
	client, server := net.Pipe()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	done := make(chan struct{})
	go func() {
		(&Server{}).handleData(server)
		close(done)
	}()
	go client.Write(junk) // fails once handleData hangs up
	_ = client.SetReadDeadline(time.Now().Add(5 * time.Second))
	reply, err := bufio.NewReader(client).ReadString('\n')
	client.Close()
	<-done
	runtime.ReadMemStats(&after)
	if err != nil || reply != "500 request line longer than 65536 bytes\r\n" {
		t.Errorf("overlong request line answered (%q, %v)", reply, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 512<<10 {
		t.Errorf("handleData allocated %d bytes on a 1 MiB line, want well under 1 MiB", grew)
	}
}

// TestUnknownCommand: a verb the server does not implement is refused by
// name, SETEVENTS and QUIT (retired: no client ever sent them; a controller
// ends its session by closing the connection) like any other, "auto" is a
// relay name like any other, and the session carries on.
func TestUnknownCommand(t *testing.T) {
	env := newTestEnv(t, 2, "")
	c := dialAuthed(t, env, "")
	for _, tc := range []struct {
		cmd  string
		code int
	}{
		{"FROBNICATE", 510},
		{"SETEVENTS CIRC", 510},
		{"QUIT", 510},
		{"GETINFO circuit-status", 552},
		{"EXTENDCIRCUIT 0 auto", 552},
		{"EXTENDCIRCUIT 0 auto/4", 552},
	} {
		r, err := c.roundTrip(tc.cmd)
		if err != nil {
			t.Fatal(err)
		}
		if r.code != tc.code {
			t.Errorf("%s answered %d %s, want %d", tc.cmd, r.code, r.text, tc.code)
		}
	}
	if _, err := c.ExtendCircuit([]string{"r0", "r1"}); err != nil {
		t.Errorf("session unusable after refused commands: %v", err)
	}
}

func TestServerConfigValidation(t *testing.T) {
	if _, err := NewServer(ServerConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	cl, _ := client.New(client.Config{Dialer: link.NewPipeNet()})
	if _, err := NewServer(ServerConfig{Client: cl}); err == nil {
		t.Error("missing registry accepted")
	}
}

// TestServerConnectionLimitAndClose: with both of two slots held by idle,
// unauthenticated sessions, a third session's command gets no reply until
// one of them closes; Close then hangs up on every session still open.
func TestServerConnectionLimitAndClose(t *testing.T) {
	cl, err := client.New(client.Config{Dialer: link.NewPipeNet()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Client: cl, Registry: directory.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	srv.limit = 2
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.ServeControl(ln) }()
	defer srv.Close()
	dial := func() (net.Conn, *bufio.Reader) {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn, bufio.NewReader(conn)
	}
	reply := func(conn net.Conn, br *bufio.Reader, wait time.Duration) (string, error) {
		conn.SetReadDeadline(time.Now().Add(wait))
		line, err := br.ReadString('\n')
		return strings.TrimSpace(line), err
	}
	a, _ := dial()
	b, bbr := dial()

	third, tbr := dial()
	if _, err := third.Write([]byte("AUTHENTICATE\r\n")); err != nil {
		t.Fatal(err)
	}
	if line, err := reply(third, tbr, 200*time.Millisecond); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("third session answered with both slots held: %q, %v", line, err)
	}
	a.Close()
	if line, err := reply(third, tbr, 5*time.Second); err != nil || line != "250 OK" {
		t.Fatalf("third session after a slot freed: %q, %v", line, err)
	}

	srv.Close()
	for name, c := range map[string]struct {
		conn net.Conn
		br   *bufio.Reader
	}{"idle": {b, bbr}, "authenticated": {third, tbr}} {
		if line, err := reply(c.conn, c.br, 5*time.Second); err != io.EOF {
			t.Errorf("%s session after Close: read %q, %v; want EOF", name, line, err)
		}
	}
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Error("ServeControl still running after Close")
	}
}

// fakePort listens on loopback and runs serve on the first connection; the
// returned channel closes when serve returns.
func fakePort(t *testing.T, serve func(conn net.Conn)) (string, <-chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		serve(conn)
	}()
	return ln.Addr().String(), done
}

// TestConnFailsFastAfterPortCloses: once the control port hangs up, every
// later request fails at once with the cause instead of waiting out the
// reply timeout.
func TestConnFailsFastAfterPortCloses(t *testing.T) {
	addr, _ := fakePort(t, func(conn net.Conn) {
		bufio.NewReader(conn).ReadString('\n') // AUTHENTICATE
		fmt.Fprint(conn, "250 OK\r\n")
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Authenticate(""); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		start := time.Now()
		_, err := c.ExtendCircuit([]string{"r0", "r1"})
		if elapsed := time.Since(start); err == nil || elapsed > 500*time.Millisecond {
			t.Fatalf("call %d after the port closed: %v after %v, want an error at once", i+1, err, elapsed)
		}
		if !strings.Contains(err.Error(), "connection lost") {
			t.Errorf("call %d failed with %q, want the lost connection named", i+1, err)
		}
	}
}

// TestConnCloseCutsExchangeShort: Close from another goroutine ends an
// exchange waiting on a silent port at once, with "connection closed",
// and every later request fails with the same.
func TestConnCloseCutsExchangeShort(t *testing.T) {
	addr, _ := fakePort(t, func(conn net.Conn) { io.Copy(io.Discard, conn) })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	time.AfterFunc(100*time.Millisecond, func() { c.Close() })
	start := time.Now()
	_, err = c.ExtendCircuit([]string{"r0", "r1"})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("Close took %v to end the exchange", elapsed)
	}
	if _, again := c.GetInfo("ns/all"); err == nil || again == nil ||
		!strings.Contains(err.Error(), "connection closed") || again.Error() != err.Error() {
		t.Errorf("exchange cut by Close: %v, then %v; want connection closed both times", err, again)
	}
}

// TestConnRefusesEndlessBody: a "250+" body that never ends is refused
// once it passes maxReplyBody, with an error that names the bound, and the
// connection is dropped instead of buffering it.
func TestConnRefusesEndlessBody(t *testing.T) {
	addr, served := fakePort(t, func(conn net.Conn) {
		bufio.NewReader(conn).ReadString('\n') // GETINFO
		fmt.Fprint(conn, "250+ns/all=\r\n")
		line := []byte(strings.Repeat("x", 1022) + "\r\n")
		for {
			if _, err := conn.Write(line); err != nil {
				return
			}
		}
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err = c.GetInfo("ns/all")
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(maxReplyBody)) {
		t.Fatalf("endless body: %v, want an error naming the %d-byte bound", err, maxReplyBody)
	}
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("the client still reads the endless body")
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if growth := int64(after.HeapAlloc) - int64(before.HeapAlloc); growth > maxReplyBody {
		t.Errorf("heap grew %d bytes, want under the %d-byte bound", growth, maxReplyBody)
	}
}

// TestConnRefusesLongReplyLine: a reply line that reaches maxLine without
// a newline fails the Conn with the bound named.
func TestConnRefusesLongReplyLine(t *testing.T) {
	junk := bytes.Repeat([]byte("x"), 1<<20)
	addr, _ := fakePort(t, func(conn net.Conn) {
		bufio.NewReader(conn).ReadString('\n') // EXTENDCIRCUIT
		conn.Write(junk)
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.ExtendCircuit([]string{"r0", "r1"})
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(maxLine)) {
		t.Fatalf("long reply line: %v, want an error naming the %d-byte bound", err, maxLine)
	}
}

// TestControlSessionBufferGrowsOnDemand: a control session's line buffer
// starts small and grows toward maxLine only for a long line, so 32
// sessions that each complete one short exchange allocate well under one
// maxLine buffer apiece.
func TestControlSessionBufferGrowsOnDemand(t *testing.T) {
	cl, err := client.New(client.Config{Dialer: link.NewPipeNet()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Client: cl, Registry: directory.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeControl(ln)
	defer srv.Close()
	const sessions = 32
	reply := make([]byte, len("250 OK\r\n"))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < sessions; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write([]byte("AUTHENTICATE\r\n")); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, reply); err != nil || string(reply) != "250 OK\r\n" {
			t.Fatalf("session %d: %q, %v", i, reply, err)
		}
	}
	runtime.ReadMemStats(&after)
	if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(sessions*16<<10); grew >= limit {
		t.Errorf("%d one-exchange control sessions allocated %d bytes, want under %d", sessions, grew, limit)
	}
}

// TestControlPortRefusesOverlongLine: a control-port peer that sends 1 MiB
// with no newline is answered with a 500 line naming the bound before the
// port hangs up, as the data port answers its own overlong request line.
func TestControlPortRefusesOverlongLine(t *testing.T) {
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		(&Server{}).handleControl(server)
		close(done)
	}()
	go client.Write(bytes.Repeat([]byte("x"), 1<<20)) // fails once the port hangs up
	_ = client.SetReadDeadline(time.Now().Add(5 * time.Second))
	reply, err := bufio.NewReader(client).ReadString('\n')
	client.Close()
	<-done
	if err != nil || reply != "500 command line longer than 65536 bytes\r\n" {
		t.Errorf("overlong command line answered (%q, %v)", reply, err)
	}
}

// TestDialStreamRefusesLongStatusLine: a data port that answers CONNECT
// with 1 MiB and no newline is refused once the line passes maxLine, with
// the bound named, having buffered about the bound, not the megabyte.
func TestDialStreamRefusesLongStatusLine(t *testing.T) {
	junk := bytes.Repeat([]byte("x"), 1<<20)
	addr, _ := fakePort(t, func(conn net.Conn) {
		bufio.NewReader(conn).ReadString('\n') // CONNECT
		conn.Write(junk)
	})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	conn, err := DialStream(context.Background(), addr, 1, "echo")
	runtime.ReadMemStats(&after)
	if err == nil {
		conn.Close()
		t.Fatal("a 1 MiB status line was accepted")
	}
	if !strings.Contains(err.Error(), fmt.Sprint(maxLine)) {
		t.Errorf("long status line: %v, want an error naming the %d-byte bound", err, maxLine)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 256<<10 {
		t.Errorf("DialStream allocated %d bytes on a 1 MiB status line, want under 256 KiB", grew)
	}
}

// TestDialStreamSilentPortHonoursContext: a data port that never answers
// CONNECT holds DialStream only until its context is cancelled.
func TestDialStreamSilentPortHonoursContext(t *testing.T) {
	addr, _ := fakePort(t, func(conn net.Conn) { io.Copy(io.Discard, conn) })
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(200*time.Millisecond, cancel)
	start := time.Now()
	conn, err := DialStream(ctx, addr, 1, "echo")
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("silent port held DialStream %v after its context ended", elapsed)
	}
	if err == nil {
		conn.Close()
		t.Fatal("a silent port attached a stream")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("silent port: %v, want context.Canceled", err)
	}
}

// TestConnSharedAcrossGoroutines: goroutines that share one Conn each get
// their own replies. Against the server, every goroutine extends and
// closes its own circuits with no error, and no two circuits share an ID.
// Against a port that answers each EXTENDCIRCUIT with the number at the
// end of its path, every goroutine reads back the number it sent, while
// stalled writes keep the senders queued (a Conn that pairs replies with
// requests apart from the send fails this at once).
func TestConnSharedAcrossGoroutines(t *testing.T) {
	const goroutines = 16
	// share runs the goroutines, each extending rounds circuits along
	// path(n), n numbering its requests apart from every other's, and
	// closing each after check accepts its ID.
	share := func(t *testing.T, c *Conn, rounds int, path func(n int) []string, check func(n, id int) error) {
		t.Helper()
		errs := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			go func() {
				for k := 0; k < rounds; k++ {
					n := g*rounds + k
					id, err := c.ExtendCircuit(path(n))
					if err == nil {
						err = check(n, id)
					}
					if err == nil {
						err = c.CloseCircuit(id)
					}
					if err != nil {
						errs <- fmt.Errorf("goroutine %d, round %d: %w", g, k, err)
						return
					}
				}
				errs <- nil
			}()
		}
		for g := 0; g < goroutines; g++ {
			if err := <-errs; err != nil {
				t.Error(err)
			}
		}
	}

	t.Run("server", func(t *testing.T) {
		env := newTestEnv(t, 3, "")
		c := dialAuthed(t, env, "")
		var mu sync.Mutex
		owner := map[int]int{}
		path := func(n int) []string { return []string{"r0", fmt.Sprintf("r%d", 1+n%2)} }
		share(t, c, 10, path, func(n, id int) error {
			mu.Lock()
			defer mu.Unlock()
			if prev, ok := owner[id]; ok {
				return fmt.Errorf("circuit %d also answered request %d", id, prev)
			}
			owner[id] = n
			return nil
		})
	})

	t.Run("tagged", func(t *testing.T) {
		addr, _ := fakePort(t, func(conn net.Conn) {
			sc := bufio.NewScanner(conn)
			for sc.Scan() {
				r := "250 OK"
				if f := strings.Split(sc.Text(), ","); strings.HasPrefix(sc.Text(), "EXTENDCIRCUIT") {
					r = "250 EXTENDED " + f[len(f)-1]
				}
				fmt.Fprintf(conn, "%s\r\n", r)
			}
		})
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		c := NewConn(&stallingConn{Conn: raw})
		defer c.Close()
		path := func(n int) []string { return []string{"r0", fmt.Sprint(n)} }
		share(t, c, 50, path, func(n, id int) error {
			if id != n {
				return fmt.Errorf("EXTENDED %d answered the request for %d", id, n)
			}
			return nil
		})
	})
}

// stallingConn holds every eighth write for 2 ms after it is sent, so
// the goroutines queued behind it wait long enough to put the writer's
// lock into starvation mode.
type stallingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *stallingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.writes.Add(1)%8 == 0 {
		time.Sleep(2 * time.Millisecond)
	}
	return n, err
}
