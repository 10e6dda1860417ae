// Package control implements mintor's control-port protocol: the interface
// Ting drives instead of the Stem controller library the paper used (§3.1).
//
// The protocol is a line-oriented subset of Tor's control spec:
//
//	AUTHENTICATE [password]        → 250 OK
//	EXTENDCIRCUIT 0 r1,r2,...      → 250 EXTENDED <circID>
//	CLOSECIRCUIT <circID>          → 250 OK
//	GETINFO ns/all                 → 250+ consensus … .
//
// A session ends when the controller closes the connection.
//
// Streams attach through a companion data port: the application connects
// and sends "CONNECT <target> VIA <circID>\n"; after the "250 OK" line the
// connection bridges raw bytes to a stream on that circuit. This replaces
// Tor's SOCKS-plus-ATTACHSTREAM dance with an explicit binding, which is
// all Ting needs.
package control

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"ting/internal/client"
	"ting/internal/directory"
	"ting/internal/netutil"
)

// maxLine bounds one line a peer sends, on the control port and the data
// port alike, and one line the controller reads back: a control reply
// (Conn) or a data port's status line (DialStream).
const maxLine = 64 << 10

// dataRequestTimeout bounds how long a data-port connection may take to
// send its request line.
const dataRequestTimeout = 10 * time.Second

// ServerConfig configures a control server.
type ServerConfig struct {
	// Client is the onion proxy the controller drives. Required.
	Client *client.Client
	// Registry resolves relay nicknames. Required.
	Registry *directory.Registry
	// Password, if nonempty, must be presented by AUTHENTICATE.
	Password string
}

// Server exposes an onion proxy over the control protocol.
type Server struct {
	cfg   ServerConfig
	limit int // netutil.MaxConns open connections a listener; tests shorten it

	mu       sync.Mutex
	nextCirc int
	circuits map[int]*client.Circuit
	closed   bool
	lns      []net.Listener
	conns    map[net.Conn]struct{} // every open session and data connection
}

// NewServer creates a control server.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Client == nil {
		return nil, errors.New("control: config missing Client")
	}
	if cfg.Registry == nil {
		return nil, errors.New("control: config missing Registry")
	}
	return &Server{cfg: cfg, limit: netutil.MaxConns, nextCirc: 1,
		circuits: make(map[int]*client.Circuit), conns: make(map[net.Conn]struct{})}, nil
}

// ServeControl accepts control sessions on ln until it closes.
func (s *Server) ServeControl(ln net.Listener) error { return s.serve(ln, s.handleControl) }

// ServeData accepts stream-attach connections on ln until it closes.
func (s *Server) ServeData(ln net.Listener) error { return s.serve(ln, s.handleData) }

// serve runs handle on each connection ln accepts, at most limit at a time:
// past that one waits in the kernel's backlog until a served one closes.
// Close closes ln and every connection still being served.
func (s *Server) serve(ln net.Listener, handle func(net.Conn)) error {
	ln = netutil.LimitListener(ln, s.limit)
	s.mu.Lock()
	s.lns = append(s.lns, ln)
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			ln.Close() // if Close ran before this Serve began
			return net.ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go func() {
			handle(conn) // closes conn
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close shuts down listeners, every open connection and every circuit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lns, conns, circs := s.lns, s.conns, s.circuits
	s.conns, s.circuits = nil, make(map[int]*client.Circuit)
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	for conn := range conns {
		conn.Close()
	}
	for _, c := range circs {
		c.Close()
	}
	return nil
}

// session is one control connection.
type session struct {
	s      *Server
	conn   net.Conn
	wmu    sync.Mutex
	authed bool
}

func (s *Server) handleControl(conn net.Conn) {
	sess := &session{s: s, conn: conn}
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	sc.Buffer(nil, maxLine) // starts at 4 KiB; grows only for a long line
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		sess.dispatch(line)
	}
	if errors.Is(sc.Err(), bufio.ErrTooLong) {
		sess.writeLine(fmt.Sprintf("500 command line longer than %d bytes", maxLine))
	}
}

func (sess *session) writeLine(line string) {
	sess.wmu.Lock()
	defer sess.wmu.Unlock()
	fmt.Fprintf(sess.conn, "%s\r\n", line)
}

func (sess *session) writeMulti(header string, body []string) {
	sess.wmu.Lock()
	defer sess.wmu.Unlock()
	fmt.Fprintf(sess.conn, "250+%s\r\n", header)
	for _, l := range body {
		fmt.Fprintf(sess.conn, "%s\r\n", l)
	}
	fmt.Fprintf(sess.conn, ".\r\n250 OK\r\n")
}

func (sess *session) dispatch(line string) {
	fields := strings.Fields(line)
	cmd := strings.ToUpper(fields[0])
	args := fields[1:]

	if cmd == "AUTHENTICATE" {
		sess.handleAuth(args)
		return
	}
	if !sess.authed {
		sess.writeLine("514 authentication required")
		return
	}
	switch cmd {
	case "EXTENDCIRCUIT":
		sess.handleExtendCircuit(args)
	case "CLOSECIRCUIT":
		sess.handleCloseCircuit(args)
	case "GETINFO":
		sess.handleGetInfo(args)
	default:
		sess.writeLine(fmt.Sprintf("510 unrecognized command %q", cmd))
	}
}

func (sess *session) handleAuth(args []string) {
	given := ""
	if len(args) > 0 {
		given = strings.Trim(args[0], `"`)
	}
	if sess.s.cfg.Password != "" && given != sess.s.cfg.Password {
		sess.writeLine("515 bad authentication")
		return
	}
	sess.authed = true
	sess.writeLine("250 OK")
}

func (sess *session) handleExtendCircuit(args []string) {
	// Only "EXTENDCIRCUIT 0 <path>" (build new, over an explicit path) is
	// supported, as in Ting.
	if len(args) != 2 || args[0] != "0" {
		sess.writeLine("512 usage: EXTENDCIRCUIT 0 nick1,nick2,...")
		return
	}
	names := strings.Split(args[1], ",")
	path := make([]*directory.Descriptor, 0, len(names))
	for _, n := range names {
		d, ok := sess.s.cfg.Registry.Lookup(strings.TrimSpace(n))
		if !ok {
			sess.writeLine(fmt.Sprintf("552 unknown relay %q", n))
			return
		}
		path = append(path, d)
	}
	circ, err := sess.s.cfg.Client.BuildCircuit(path)
	if err != nil {
		sess.writeLine("551 circuit build failed: " + flat(err.Error()))
		return
	}
	id := sess.s.register(circ)
	sess.writeLine(fmt.Sprintf("250 EXTENDED %d", id))
}

func (s *Server) register(circ *client.Circuit) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextCirc
	s.nextCirc++
	s.circuits[id] = circ
	return id
}

func (s *Server) circuit(id int) *client.Circuit {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.circuits[id]
}

func (sess *session) handleCloseCircuit(args []string) {
	if len(args) != 1 {
		sess.writeLine("512 usage: CLOSECIRCUIT <id>")
		return
	}
	id, err := strconv.Atoi(args[0])
	if err != nil {
		sess.writeLine("512 bad circuit id")
		return
	}
	s := sess.s
	s.mu.Lock()
	circ := s.circuits[id]
	delete(s.circuits, id)
	s.mu.Unlock()
	if circ == nil {
		sess.writeLine(fmt.Sprintf("552 unknown circuit %d", id))
		return
	}
	circ.Close()
	sess.writeLine("250 OK")
}

func (sess *session) handleGetInfo(args []string) {
	if len(args) != 1 {
		sess.writeLine("512 usage: GETINFO <key>")
		return
	}
	switch args[0] {
	case "ns/all":
		var sb strings.Builder
		if err := sess.s.cfg.Registry.EncodeConsensus(&sb); err != nil {
			sess.writeLine("551 " + flat(err.Error()))
			return
		}
		lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
		sess.writeMulti("ns/all=", lines)
	default:
		sess.writeLine(fmt.Sprintf("552 unknown key %q", args[0]))
	}
}

// handleData bridges one data-port connection to a circuit stream.
func (s *Server) handleData(conn net.Conn) {
	defer conn.Close()
	// The request line is read through a limit, so a peer that sends more
	// than maxLine bytes without a newline is refused, not buffered. The
	// limit and the deadline cover only that line: the bridge reads conn
	// itself, with no deadline.
	_ = conn.SetReadDeadline(time.Now().Add(dataRequestTimeout))
	rd := bufio.NewReader(io.LimitReader(conn, maxLine))
	line, err := rd.ReadString('\n')
	if err != nil {
		if len(line) >= maxLine {
			fmt.Fprintf(conn, "500 request line longer than %d bytes\r\n", maxLine)
		}
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) != 4 || !strings.EqualFold(fields[0], "CONNECT") || !strings.EqualFold(fields[2], "VIA") {
		fmt.Fprintf(conn, "500 usage: CONNECT <target> VIA <circID>\r\n")
		return
	}
	id, err := strconv.Atoi(fields[3])
	if err != nil {
		fmt.Fprintf(conn, "500 bad circuit id\r\n")
		return
	}
	circ := s.circuit(id)
	if circ == nil {
		fmt.Fprintf(conn, "552 unknown circuit %d\r\n", id)
		return
	}
	st, err := circ.OpenStream(fields[1])
	if err != nil {
		fmt.Fprintf(conn, "551 %s\r\n", flat(err.Error()))
		return
	}
	defer st.Close()
	fmt.Fprintf(conn, "250 OK\r\n")

	done := make(chan struct{}, 2)
	go func() {
		// Client → circuit. Any bytes buffered in the bufio reader first.
		if n := rd.Buffered(); n > 0 {
			buf := make([]byte, n)
			if _, err := io.ReadFull(rd, buf); err == nil {
				if _, err := st.Write(buf); err != nil {
					done <- struct{}{}
					return
				}
			}
		}
		_, _ = io.Copy(st, conn)
		done <- struct{}{}
	}()
	go func() {
		_, _ = io.Copy(conn, st)
		done <- struct{}{}
	}()
	<-done
}

// flat collapses newlines so an error fits one protocol line.
func flat(s string) string { return strings.ReplaceAll(s, "\n", " / ") }
