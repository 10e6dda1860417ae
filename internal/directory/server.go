package directory

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"ting/internal/netutil"
	"ting/internal/stats"
	"ting/internal/telemetry"
)

// DefaultIOTimeout bounds every directory-protocol conversation, on both
// ends: a stalled peer cannot hang a Fetch, and a slow-loris client cannot
// pin a server connection open.
const DefaultIOTimeout = 10 * time.Second

// Server serves the consensus over a line-text protocol. A GET is one
// request a connection: the client sends "GET consensus\n" and receives the
// encoded document, or "GET delta <epoch>\n" and receives the deltas
// recorded since that epoch (or a resync marker plus the full consensus when
// the bounded delta history no longer reaches back that far), and the server
// closes. An extension verb's connection is a session: the server reads
// request after request on it while the handler keeps it framed. It stands
// in for Tor's directory port in the live-TCP deployment mode.
type Server struct {
	reg *Registry
	// timeout bounds each request's conversation, and so how long a session
	// may sit idle between requests.
	timeout time.Duration
	limit   int // netutil.MaxConns open connections; tests shorten it

	mu     sync.Mutex
	ln     net.Listener
	ext    map[string]ExtensionFunc
	conns  map[net.Conn]struct{} // open connections, which Close ends
	closed bool
}

// ExtensionFunc handles one extension request. req is the full request
// line (leading verb included); br is the connection's buffered reader,
// positioned after the request line — multi-line requests must read their
// body from br, not conn, or they would lose bytes the server already
// buffered. The handler writes its reply to conn and reports whether the
// connection is still framed: true when it read exactly its request, so the
// server reads the next request line from br; false when it stopped partway
// through a body, so the server closes the connection rather than read the
// rest of the body as requests. The server reuses br for another connection
// once this one closes, so a handler keeps neither past its return.
type ExtensionFunc func(conn net.Conn, br *bufio.Reader, req string) (framed bool)

// NewServer creates a directory server over reg.
func NewServer(reg *Registry) *Server {
	return &Server{reg: reg, timeout: DefaultIOTimeout, limit: netutil.MaxConns}
}

// Extend registers fn for request lines whose first word is verb, letting
// other subsystems ride the directory transport — one listener, one
// timeout discipline, one line-text protocol — instead of growing their
// own. The campaign coordinator registers its lease/heartbeat verbs here.
// Built-in requests ("GET …") always win over extensions. Registering a
// verb twice replaces the handler.
func (s *Server) Extend(verb string, fn ExtensionFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ext == nil {
		s.ext = make(map[string]ExtensionFunc)
	}
	s.ext[verb] = fn
}

// Serve accepts and answers requests on ln until the listener closes. It
// answers at most limit connections at a time; past that one waits in the
// kernel's backlog until an answered one closes.
func (s *Server) Serve(ln net.Listener) error {
	ln = netutil.LimitListener(ln, s.limit)
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		if !s.track(conn) {
			conn.Close()
			continue
		}
		go s.handle(conn)
	}
}

// track records conn as open, unless the server has closed.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.conns[conn] = struct{}{}
	return true
}

// Close stops the server: it closes the listener and ends every open
// connection, a session between requests included, so a closed server
// answers nothing more.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for conn := range s.conns {
		conn.Close()
	}
	if s.ln == nil {
		return nil
	}
	return s.ln.Close()
}

// requestReaders holds the connections' *bufio.Reader of requestBuf bytes:
// each connection borrows a reader for its life. A reader goes back reset to
// nil, holding no connection.
var requestReaders = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, requestBuf) }}

// requestBuf is a connection's read buffer, and so the longest request line
// the server reads.
const requestBuf = 4096

// handle answers one connection: a GET and its reply, or extension requests
// until the peer hangs up, a handler leaves the connection unframed, or the
// peer sends nothing for timeout.
func (s *Server) handle(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	br := requestReaders.Get().(*bufio.Reader)
	br.Reset(conn)
	defer func() {
		br.Reset(nil)
		requestReaders.Put(br)
	}()
	for s.serveOne(conn, br) {
	}
}

// serveOne reads and answers one request, under a fresh deadline, and
// reports whether the connection carries another.
func (s *Server) serveOne(conn net.Conn, br *bufio.Reader) bool {
	_ = conn.SetDeadline(time.Now().Add(s.timeout))
	// The request line must fit the reader's buffer: a peer that sends more
	// without a newline is refused, not buffered without bound.
	line, err := br.ReadSlice('\n')
	if err != nil {
		if errors.Is(err, bufio.ErrBufferFull) {
			fmt.Fprintf(conn, "error request line longer than %d bytes\n", br.Size())
		}
		return false
	}
	req := strings.TrimSpace(string(line))
	switch {
	case req == "GET consensus":
		_ = s.reg.EncodeConsensus(conn)
	case strings.HasPrefix(req, "GET delta "):
		since, err := strconv.ParseUint(strings.TrimPrefix(req, "GET delta "), 10, 64)
		if err != nil {
			fmt.Fprintln(conn, "error bad epoch")
			return false
		}
		s.serveDeltas(conn, since)
	default:
		verb := req
		if i := strings.IndexByte(req, ' '); i >= 0 {
			verb = req[:i]
		}
		s.mu.Lock()
		fn := s.ext[verb]
		s.mu.Unlock()
		if fn != nil {
			return fn(conn, br, req)
		}
		fmt.Fprintln(conn, "error unknown request")
	}
	return false
}

// serveDeltas answers "GET delta <since>". The reply is either
//
//	deltas from=<since> to=<epoch> count=<k>
//	<epoch> join <relay line>
//	<epoch> leave <nickname>
//	<epoch> rotate <relay line>
//	end
//
// or "resync" followed by a full consensus document when the server's
// bounded history no longer covers the requested span.
func (s *Server) serveDeltas(conn net.Conn, since uint64) {
	deltas, ok := s.reg.DeltasSince(since)
	bw := bufio.NewWriter(conn)
	defer bw.Flush()
	if !ok {
		fmt.Fprintln(bw, "resync")
		bw.Flush()
		_ = s.reg.EncodeConsensus(conn)
		return
	}
	fmt.Fprintf(bw, "deltas from=%d to=%d count=%d\n", since, s.reg.Epoch(), len(deltas))
	for _, d := range deltas {
		switch d.Kind {
		case DeltaLeave:
			fmt.Fprintf(bw, "%d leave %s\n", d.Epoch, d.Name)
		default:
			fmt.Fprintf(bw, "%d %s %s\n", d.Epoch, d.Kind, d.Desc.Line())
		}
	}
	fmt.Fprintln(bw, "end")
}

// Fetch downloads and parses the consensus from a directory server at
// addr. DefaultIOTimeout bounds the dial and the whole conversation.
func Fetch(addr string) (*Registry, error) {
	conn, err := dialDirectory(addr, DefaultIOTimeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if _, err := fmt.Fprintln(conn, "GET consensus"); err != nil {
		return nil, fmt.Errorf("directory: fetch: %w", err)
	}
	return DecodeConsensus(conn)
}

// FetchDeltas asks the directory server for every consensus change after
// epoch since. When the server still has that span, it returns the deltas
// (possibly empty) and a nil registry; when the server demands a resync it
// returns a nil delta slice and the full consensus instead. The reply is
// held to its header's count: a delta past it, or an end before it, is
// refused. Bounded by DefaultIOTimeout.
func FetchDeltas(addr string, since uint64) ([]ConsensusDelta, *Registry, error) {
	conn, err := dialDirectory(addr, DefaultIOTimeout)
	if err != nil {
		return nil, nil, err
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "GET delta %d\n", since); err != nil {
		return nil, nil, fmt.Errorf("directory: fetch deltas: %w", err)
	}
	br := bufio.NewReader(conn)
	header, err := readLine(br)
	if err != nil {
		return nil, nil, fmt.Errorf("directory: fetch deltas: %w", err)
	}
	header = strings.TrimSpace(header)
	if header == "resync" {
		reg, err := DecodeConsensus(br)
		if err != nil {
			return nil, nil, err
		}
		return nil, reg, nil
	}
	var from, to uint64
	var count int
	if n, _ := fmt.Sscanf(header, "deltas from=%d to=%d count=%d", &from, &to, &count); n != 3 || count < 0 {
		return nil, nil, fmt.Errorf("directory: bad delta header %q", header)
	}
	deltas := []ConsensusDelta{}
	for {
		line, err := readLine(br)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil, nil, errors.New("directory: truncated delta stream")
			}
			return nil, nil, fmt.Errorf("directory: fetch deltas: %w", err)
		}
		line = strings.TrimSpace(line)
		if line == "end" {
			if len(deltas) != count {
				return nil, nil, fmt.Errorf("directory: header says %d deltas, got %d", count, len(deltas))
			}
			return deltas, nil, nil
		}
		if len(deltas) == count {
			return nil, nil, fmt.Errorf("directory: header says %d deltas, got more", count)
		}
		d, err := parseDeltaLine(line)
		if err != nil {
			return nil, nil, err
		}
		deltas = append(deltas, d)
	}
}

// maxLine bounds one line of a directory reply, as DecodeConsensus's
// scanner bounds a consensus line.
const maxLine = bufio.MaxScanTokenSize

// readLine reads one line from br, newline included, refusing a line
// longer than maxLine once that much of it has arrived.
func readLine(br *bufio.Reader) (string, error) {
	var line []byte
	for {
		frag, err := br.ReadSlice('\n')
		line = append(line, frag...)
		if len(line) > maxLine {
			return "", fmt.Errorf("line longer than %d bytes", maxLine)
		}
		if !errors.Is(err, bufio.ErrBufferFull) {
			return string(line), err
		}
	}
}

func parseDeltaLine(line string) (ConsensusDelta, error) {
	f := strings.SplitN(line, " ", 3)
	if len(f) < 3 {
		return ConsensusDelta{}, fmt.Errorf("directory: malformed delta %q", line)
	}
	epoch, err := strconv.ParseUint(f[0], 10, 64)
	if err != nil {
		return ConsensusDelta{}, fmt.Errorf("directory: malformed delta %q", line)
	}
	switch f[1] {
	case "leave":
		return ConsensusDelta{Epoch: epoch, Kind: DeltaLeave, Name: f[2]}, nil
	case "join", "rotate":
		desc, err := ParseLine(f[2])
		if err != nil {
			return ConsensusDelta{}, err
		}
		kind := DeltaJoin
		if f[1] == "rotate" {
			kind = DeltaRotate
		}
		return ConsensusDelta{Epoch: epoch, Kind: kind, Name: desc.Nickname, Desc: desc}, nil
	}
	return ConsensusDelta{}, fmt.Errorf("directory: unknown delta kind in %q", line)
}

// mirrorBackoffCap bounds how far consecutive fetch failures stretch the
// poll interval: a long-dead origin is probed at interval×2^k, capped at
// max(32×interval, mirrorBackoffCap), so recovery is noticed within
// seconds, not after an unbounded exponential.
const mirrorBackoffCap = 30 * time.Second

// Mirror keeps reg in step with the directory server at addr by polling
// for consensus deltas every interval and applying them, so a reader of
// reg's history (Wait) sees the origin's changes as they arrive. A
// server-demanded resync (the origin's bounded delta history no longer
// reaches the mirror's epoch) is folded in as synthesized
// join/leave/rotate deltas, so no consensus change is ever skipped
// silently. Each FetchDeltas failure increments
// directory.mirror.fetch_errors in treg (nil counts into a no-op) and
// doubles the next poll delay (jittered ±50% so a fleet of mirrors that
// lost the same origin does not re-find it in lockstep), up to a cap,
// instead of hammering a struggling origin at the fixed interval; the first
// success snaps the cadence back to interval. Blocks until ctx is
// cancelled; run it in a goroutine.
func Mirror(ctx context.Context, addr string, reg *Registry, interval time.Duration, treg *telemetry.Registry) {
	if interval <= 0 {
		interval = time.Second
	}
	fetchErrors := treg.Counter("directory.mirror.fetch_errors")
	max := 32 * interval
	if max < mirrorBackoffCap {
		max = mirrorBackoffCap
	}
	backoff := stats.Backoff{Base: interval, Max: max}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	fails := 0
	timer := time.NewTimer(interval)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
		}
		deltas, fresh, err := FetchDeltas(addr, reg.Epoch())
		if err != nil {
			fails++
			fetchErrors.Inc()
			timer.Reset(backoff.Delay(fails, rng))
			continue
		}
		fails = 0
		timer.Reset(interval)
		if fresh != nil {
			reg.resync(fresh)
			continue
		}
		for _, d := range deltas {
			_ = reg.ApplyDelta(d)
		}
	}
}

// dialDirectory connects to a directory server; timeout bounds the dial and,
// as a deadline on the connection, the whole conversation after it.
func dialDirectory(addr string, timeout time.Duration) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("directory: fetch: %w", err)
	}
	_ = conn.SetDeadline(time.Now().Add(timeout))
	return conn, nil
}
