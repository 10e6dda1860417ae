package campaign

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"ting/internal/directory"
	"ting/internal/experiments"
	"ting/internal/ting"
)

// countingListener counts the connections it accepts, those still open,
// and the "none" replies written on them. A positive idle caps every
// deadline the server sets at idle from then, shortening the server's
// timeout.
type countingListener struct {
	net.Listener
	idle     time.Duration
	accepted atomic.Int64
	open     atomic.Int64
	nones    atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.accepted.Add(1)
	l.open.Add(1)
	return &countedConn{Conn: conn, l: l}, nil
}

type countedConn struct {
	net.Conn
	l    *countingListener
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.l.open.Add(-1) })
	return c.Conn.Close()
}

func (c *countedConn) Write(b []byte) (int, error) {
	if string(b) == "none\n" {
		c.l.nones.Add(1)
	}
	return c.Conn.Write(b)
}

func (c *countedConn) SetDeadline(t time.Time) error {
	if c.l.idle > 0 {
		t = time.Now().Add(c.l.idle)
	}
	return c.Conn.SetDeadline(t)
}

// serveCounted puts coord behind the campaign verb on a counting loopback
// listener whose connections idle out after idle (0: the server's own
// timeout).
func serveCounted(t testing.TB, coord *Coordinator, idle time.Duration) (string, *countingListener) {
	t.Helper()
	ds := directory.NewServer(directory.NewRegistry())
	NewServer(coord).Register(ds)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln, idle: idle}
	go ds.Serve(cl)
	t.Cleanup(func() { ds.Close() })
	return ln.Addr().String(), cl
}

// TestWorkerHoldsOneSession: a worker's names, acquires, heartbeats and
// completes share one connection. Under a whole two-worker campaign the
// coordinator accepts one connection a worker, and one more after each
// "none" reply, the poll wait a worker sleeps through with its session
// closed; the heartbeats, every few milliseconds of a slow scan, share the
// lease loop's connection.
func TestWorkerHoldsOneSession(t *testing.T) {
	world, err := experiments.NewTestbedWorld(12, 97)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(world.Names, Partition(len(world.Names), 16), time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr, ln := serveCounted(t, coord, 0)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var (
		wg      sync.WaitGroup
		logMu   sync.Mutex
		logs    strings.Builder
		workers = []string{"w1", "w2"}
	)
	for _, name := range workers {
		w := &Worker{
			Name: name, Addr: addr,
			Scanner: &ting.Scanner{
				Workers: 2,
				NewMeasurer: func(int) (*ting.Measurer, error) {
					p := world.Prober(0)
					p.Exact = true
					return ting.NewMeasurer(ting.Config{
						Prober: &slowProber{inner: p, delay: time.Millisecond},
						W:      world.W, Z: world.Z, Samples: 1,
					})
				},
			},
			HeartbeatEvery: 2 * time.Millisecond,
			Poll:           5 * time.Millisecond,
			Log:            log.New(lockedWriter{&logMu, &logs}, "", 0),
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if st := coord.Snapshot(); st.Done != st.Total || st.LostPairs != 0 {
		t.Fatalf("campaign ended at %d/%d shards, %d pairs lost", st.Done, st.Total, st.LostPairs)
	}
	// A retried call is a backoff wait, which may dial once more; a clean
	// campaign has none.
	logMu.Lock()
	retries := strings.Count(logs.String(), "transient") + strings.Count(logs.String(), ": acquire: ")
	logMu.Unlock()
	accepted, polls := ln.accepted.Load(), ln.nones.Load()
	if most := int64(len(workers)) + polls + int64(retries); accepted > most {
		t.Fatalf("%d connections for %d workers, %d polls and %d retries over %d shards, want at most %d",
			accepted, len(workers), polls, retries, coord.Snapshot().Total, most)
	}
	t.Logf("%d connections: %d workers, %d polls, %d retries, %d shards", accepted, len(workers), polls, retries, coord.Snapshot().Total)
}

// TestWorkerClosesSessionToPoll: a worker told "none" closes its session
// before it sleeps out the poll, so it holds none of the coordinator's
// connections while it waits.
func TestWorkerClosesSessionToPoll(t *testing.T) {
	names := fakeNames(8)
	coord, err := NewCoordinator(names, Partition(len(names), 1), time.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, res, err := coord.Acquire("other"); err != nil || res != AcquireGranted {
		t.Fatalf("the one shard to another worker: %v, %v", res, err)
	}
	addr, ln := serveCounted(t, coord, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{
		Name: "w1", Addr: addr, Poll: time.Hour,
		Scanner: &ting.Scanner{NewMeasurer: func(int) (*ting.Measurer, error) { return nil, errors.New("unused") }},
	}
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	for deadline := time.Now().Add(10 * time.Second); ln.nones.Load() == 0 || ln.open.Load() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("after %d none replies the worker still holds %d connections", ln.nones.Load(), ln.open.Load())
		}
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v", err)
	}
}

// lockedWriter serializes the workers' log lines into one builder.
type lockedWriter struct {
	mu *sync.Mutex
	b  *strings.Builder
}

func (w lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

// TestSessionRedialsAfterIdleClose: the server closes a session idle for
// its timeout. The next heartbeat and the next complete each succeed at
// once, on exactly one new connection.
func TestSessionRedialsAfterIdleClose(t *testing.T) {
	names := fakeNames(8)
	coord, err := NewCoordinator(names, Partition(len(names), 2), time.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	const idle = 50 * time.Millisecond
	addr, ln := serveCounted(t, coord, idle)
	s := &session{addr: addr}
	defer s.close()
	l, res, err := s.acquire("w1")
	if err != nil || res != AcquireGranted {
		t.Fatalf("acquire: %v, %v", res, err)
	}
	for _, call := range []struct {
		op string
		do func() error
	}{
		{"heartbeat", func() error { return s.heartbeat("w1", l) }},
		{"complete", func() error { return s.complete("w1", l, values(fullResults(t, l.Shard, names), nil), nil) }},
	} {
		before := ln.accepted.Load()
		time.Sleep(4 * idle) // the server closes the idle connection
		start := time.Now()
		if err := call.do(); err != nil {
			t.Fatalf("%s after an idle close: %v", call.op, err)
		}
		if took := time.Since(start); took > time.Second {
			t.Errorf("%s after an idle close took %v", call.op, took)
		}
		if got := ln.accepted.Load() - before; got != 1 {
			t.Fatalf("%s after an idle close dialed %d times, want 1", call.op, got)
		}
	}
	if st := coord.Snapshot(); st.Done != 1 {
		t.Fatalf("%d shards done, want the one completed", st.Done)
	}
}

// TestRefusedBodyEndsSession: a completion the server refuses — its lease
// fields, its shard, or a body line at line k — gets its error reply and
// the connection closes. The lines behind it, requests among them, are
// never answered. A session that sent it dials again for its next call,
// which completes.
func TestRefusedBodyEndsSession(t *testing.T) {
	names := fakeNames(8)
	coord, err := NewCoordinator(names, Partition(len(names), 1), time.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr, ln := serveCounted(t, coord, 0)
	s := &session{addr: addr}
	defer s.close()
	l, res, err := s.acquire("w1")
	if err != nil || res != AcquireGranted {
		t.Fatalf("acquire: %v, %v", res, err)
	}
	n := l.Shard.PairCount()
	head := fmt.Sprintf("%s complete w1 %s %d\n", Verb, l.Shard.ID, l.Epoch)
	const behind = "CAMP names\nCAMP acquire w2\nend\nCAMP names\n"
	cases := map[string]string{
		"bad epoch":             fmt.Sprintf("%s complete w1 %s x\n1\n", Verb, l.Shard.ID),
		"unknown shard":         fmt.Sprintf("%s complete w1 t9-9.p0-1 %d\n1\n", Verb, l.Epoch),
		"more lines than pairs": head + strings.Repeat("1\n", n+1),
		"line too long":         head + strings.Repeat("1", 5000) + "\n",
	}
	for k := range 3 {
		cases[fmt.Sprint("bad line ", k)] = head + strings.Repeat("1\n", k) + "x\n"
	}
	for name, req := range cases {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.WriteString(conn, req+behind); err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(conn)
		conn.Close()
		if errors.Is(err, syscall.ECONNRESET) {
			// The server closed with the stream's unread lines in its
			// receive buffer, which resets the connection.
			err = nil
		}
		if lines := strings.SplitAfter(string(got), "\n"); err != nil || len(lines) != 2 || lines[1] != "" || !strings.HasPrefix(lines[0], "error ") {
			t.Errorf("%s: the server sent %q, %v; want one error line, then the close", name, got, err)
		}
	}
	if st := coord.Snapshot(); st.Leased != 1 {
		t.Fatalf("%d shards leased, want w1's alone: a body line was answered as a request", st.Leased)
	}

	before := ln.accepted.Load()
	err = s.call("complete", func(bw *bufio.Writer) {
		bw.WriteString(head + "1\nx\n" + behind)
	}, func(br *bufio.Reader) error { return readVerdict(br, "complete") })
	if err == nil || IsTransient(err) || !strings.Contains(err.Error(), "bad completion line") {
		t.Fatalf("refused completion through the session: %v", err)
	}
	if err := s.complete("w1", l, values(fullResults(t, l.Shard, names), nil), nil); err != nil {
		t.Fatalf("the completion after a refusal: %v", err)
	}
	if got := ln.accepted.Load() - before; got != 1 {
		t.Fatalf("the refusal and the completion after it took %d new connections, want 1", got)
	}
	if st := coord.Snapshot(); st.Done != 1 {
		t.Fatalf("%d shards done, want 1", st.Done)
	}
}

// streamConn is the server's side of a connection whose peer sent stream
// and hung up: reads drain stream, then EOF; replies collect in out.
type streamConn struct {
	net.Conn // nil: the server calls only the methods below
	stream   *bytes.Reader
	out      bytes.Buffer
	deadline bool // a deadline was set before every read
	unbound  bool // a read came before any deadline
	closed   chan struct{}
	once     sync.Once
}

func (c *streamConn) Read(b []byte) (int, error) {
	if !c.deadline {
		c.unbound = true
	}
	return c.stream.Read(b)
}

func (c *streamConn) Write(b []byte) (int, error)     { return c.out.Write(b) }
func (c *streamConn) SetDeadline(t time.Time) error   { c.deadline = !t.IsZero(); return nil }
func (c *streamConn) SetReadDeadline(time.Time) error { return nil }
func (c *streamConn) Close() error                    { c.once.Do(func() { close(c.closed) }); return nil }

// oneConnListener accepts conn once, then waits for Close.
type oneConnListener struct {
	conn   net.Conn
	served bool
	done   chan struct{}
	once   sync.Once
}

func (l *oneConnListener) Accept() (net.Conn, error) {
	if !l.served {
		l.served = true
		return l.conn, nil
	}
	<-l.done
	return nil, net.ErrClosed
}

func (l *oneConnListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *oneConnListener) Addr() net.Addr { return nil }

// campFraming walks stream as a CAMP session frames it, shards giving the
// pair count of each shard ID. Each line is a request. A complete request
// whose lease fields parse and whose shard is in shards is followed by its
// body, which runs to its "end" line. The session ends at a line longer than
// the server's 4096-byte buffer, at a request that is not CAMP, and at a
// complete that is refused before its body ends. campFraming returns the
// CAMP requests the server must answer, in order, and whether the session
// ended at a line the server answers outside the CAMP handler.
func campFraming(stream []byte, shards map[string]int) (reqs []string, tail bool) {
	const buf = 4096
	next := func() ([]byte, bool, bool) {
		i := bytes.IndexByte(stream, '\n')
		if i < 0 || i+1 > buf {
			return nil, false, i >= buf || (i < 0 && len(stream) >= buf)
		}
		line := stream[:i+1]
		stream = stream[i+1:]
		return bytes.TrimSpace(line), true, false
	}
	for {
		line, ok, long := next()
		if !ok {
			return reqs, long
		}
		req := string(line)
		if verb, _, _ := strings.Cut(req, " "); verb != Verb {
			return reqs, true
		}
		reqs = append(reqs, req)
		fields := strings.Fields(req)
		if len(fields) < 2 || fields[1] != "complete" {
			continue
		}
		if len(fields) != 5 {
			return reqs, false
		}
		if _, err := strconv.ParseUint(fields[4], 10, 64); err != nil {
			return reqs, false
		}
		pairs, ok := shards[fields[3]]
		if !ok {
			return reqs, false
		}
		for n := 0; ; n++ {
			v, ok, _ := next()
			if !ok {
				return reqs, false
			}
			if string(v) == "end" {
				break
			}
			if n == pairs {
				return reqs, false
			}
			if string(v) != "fail" {
				if f, err := strconv.ParseFloat(string(v), 64); err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
					return reqs, false
				}
			}
		}
	}
}

// campReplies splits out into n CAMP replies, a names reply being its
// header and the names it counts, and returns what follows them.
func campReplies(out []byte, n int) (rest []byte, ok bool) {
	line := func() (string, bool) {
		i := bytes.IndexByte(out, '\n')
		if i < 0 {
			return "", false
		}
		l := string(out[:i])
		out = out[i+1:]
		return l, true
	}
	for range n {
		l, ok := line()
		if !ok {
			return out, false
		}
		var k int
		if _, err := fmt.Sscanf(l, "names n=%d", &k); err == nil {
			for range k {
				if _, ok := line(); !ok {
					return out, false
				}
			}
		}
	}
	return out, true
}

// FuzzCampSession: whatever byte stream a peer sends on one connection, the
// directory server with the campaign verb returns, having set a deadline
// before every read; it hands the CAMP handler exactly the requests the
// session's framing holds, never a completion body's line; it sends one
// reply a request, and at most one more for a line it answers itself; and
// what it allocates follows the stream's bytes and lines.
func FuzzCampSession(f *testing.F) {
	names := []string{"r0", "r1", "r2", "r3"}
	shards := Partition(len(names), 2)
	pairs := map[string]int{}
	for _, sh := range shards {
		pairs[sh.ID] = sh.PairCount()
	}
	id := shards[0].ID
	f.Add([]byte("CAMP names\nCAMP acquire w1\nCAMP heartbeat w1 " + id + " 1\nCAMP complete w1 " + id + " 1\n1\nfail\n2.5\nend\nCAMP acquire w1\n"))
	f.Add([]byte("CAMP complete w1 " + id + " 1\n1\nCAMP names\nend\nCAMP names\n"))
	f.Add([]byte("CAMP complete w1 " + id + " x\nCAMP names\nend\n"))
	f.Add([]byte("CAMP complete w1 t9-9.p0-1 1\nCAMP names\n"))
	f.Add([]byte("CAMP names\nGET consensus\nCAMP names\n"))
	f.Add([]byte("CAMP names\nGET delta 0\nCAMP names\n"))
	f.Add([]byte("CAMP\nCAMP frob\nCAMP acquire\nCAMP heartbeat w1 x 1\nNOPE\nCAMP names\n"))
	f.Add([]byte("CAMP names\n" + strings.Repeat("x", 5000) + "\nCAMP names\n"))
	f.Add([]byte("CAMP acquire w1\nCAMP complete w1 " + id + " 1\n" + strings.Repeat("1\n", 3) + "end\nCAMP complete w1 " + id + " 1\nend\n"))
	f.Add([]byte("CAMP names"))
	f.Fuzz(func(t *testing.T, stream []byte) {
		coord, err := NewCoordinator(names, shards, time.Minute, nil)
		if err != nil {
			t.Fatal(err)
		}
		ds := directory.NewServer(directory.NewRegistry())
		srv := NewServer(coord)
		var got []string // the requests the CAMP handler was handed
		ds.Extend(Verb, func(conn net.Conn, br *bufio.Reader, req string) bool {
			got = append(got, req)
			return srv.handle(conn, br, req)
		})
		conn := &streamConn{stream: bytes.NewReader(stream), closed: make(chan struct{})}
		ln := &oneConnListener{conn: conn, done: make(chan struct{})}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		served := make(chan struct{})
		go func() {
			defer close(served)
			ds.Serve(ln)
		}()
		select {
		case <-conn.closed:
		case <-time.After(directory.DefaultIOTimeout):
			t.Fatal("the server did not return within its deadline")
		}
		runtime.ReadMemStats(&after)
		ds.Close()
		<-served
		if conn.unbound {
			t.Fatal("the server read without a deadline")
		}
		want, tail := campFraming(stream, pairs)
		if !slices.Equal(got, want) {
			t.Fatalf("the CAMP handler was handed %q, want %q", got, want)
		}
		rest, ok := campReplies(conn.out.Bytes(), len(got))
		if !ok {
			t.Fatalf("%d requests, but the replies %q end short of them", len(got), conn.out.Bytes())
		}
		if len(rest) > 0 && !tail {
			t.Fatalf("after its %d replies the server sent %q more", len(got), rest)
		}
		lines := bytes.Count(stream, []byte("\n"))
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+16*len(stream)+8<<10*lines); !raceEnabled && grew > limit {
			t.Fatalf("a %d-byte stream of %d lines allocated %d bytes, want ≤ %d", len(stream), lines, grew, limit)
		}
	})
}

// BenchmarkCampCall: one acquire and one complete of a 400-relay
// campaign's shard (about 312 pairs) over loopback through one session, a
// lease's two calls as a worker makes them. The coordinator keeps its
// ledger in memory, so the figure is the transport's and the handler's.
func BenchmarkCampCall(b *testing.B) {
	names := fakeNames(400)
	shards := Partition(len(names), 256)
	rtts := map[string][]float64{}
	for _, sh := range shards {
		v := make([]float64, sh.PairCount())
		for k := range v {
			v[k] = 1 + float64(k)/7
		}
		rtts[sh.ID] = v
	}
	var cur atomic.Pointer[Server]
	fresh := func() {
		coord, err := NewCoordinator(names, shards, time.Minute, nil)
		if err != nil {
			b.Fatal(err)
		}
		cur.Store(NewServer(coord))
	}
	fresh()
	ds := directory.NewServer(directory.NewRegistry())
	ds.Extend(Verb, func(conn net.Conn, br *bufio.Reader, req string) bool {
		return cur.Load().handle(conn, br, req)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go ds.Serve(ln)
	defer ds.Close()
	s := &session{addr: ln.Addr().String()}
	defer s.close()
	b.ReportAllocs()
	for b.Loop() {
		l, res, err := s.acquire("w1")
		if err == nil && res == AcquireDone {
			// A fresh coordinator every 256 leases: timed, but a small
			// share of them.
			fresh()
			l, res, err = s.acquire("w1")
		}
		if err != nil || res != AcquireGranted {
			b.Fatalf("acquire: %v, %v", res, err)
		}
		if err := s.complete("w1", l, rtts[l.Shard.ID], nil); err != nil {
			b.Fatal(err)
		}
	}
}
