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

	"ting/internal/directory"
)

// Conn is a controller-side control connection — the role Stem played for
// the paper's measurement client.
type Conn struct {
	conn net.Conn
	wmu  sync.Mutex

	replies chan reply

	closeOnce sync.Once
	closed    chan struct{}
	cause     error // why the Conn closed: set once, before closed closes
}

// replyTimeout bounds each request/response exchange. A reply that misses
// it closes the Conn, so it cannot answer the next request.
const replyTimeout = 15 * time.Second

// maxReplyBody bounds a multi-line ("250+") reply body in bytes, about
// twenty times a 7000-relay ns/all.
const maxReplyBody = 16 << 20

type reply struct {
	code  int
	text  string
	multi []string
}

// Dial connects to a control port.
func Dial(addr string) (*Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("control: dial: %w", err)
	}
	return NewConn(conn), nil
}

// NewConn wraps an established connection as a controller.
func NewConn(conn net.Conn) *Conn {
	c := &Conn{
		conn:    conn,
		replies: make(chan reply, 4),
		closed:  make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// Close shuts the controller connection down.
func (c *Conn) Close() error { return c.fail(errors.New("control: connection closed")) }

// fail closes the connection once, keeping cause as the error every later
// request fails with.
func (c *Conn) fail(cause error) error {
	var err error
	c.closeOnce.Do(func() {
		c.cause = cause
		close(c.closed)
		err = c.conn.Close()
	})
	return err
}

func (c *Conn) readLoop() {
	sc := bufio.NewScanner(c.conn)
	sc.Buffer(make([]byte, 64*1024), 64*1024)
	var multi []string
	inMulti := false
	body := 0
	for sc.Scan() {
		line := strings.TrimRight(sc.Text(), "\r")
		switch {
		case inMulti:
			if line == "." {
				inMulti = false
				// The terminating "250 OK" arrives next and carries the
				// accumulated body.
				continue
			}
			if body += len(line) + 1; body > maxReplyBody {
				c.fail(fmt.Errorf("control: reply body over %d bytes", maxReplyBody))
				return
			}
			multi = append(multi, line)
		case strings.HasPrefix(line, "250+"):
			inMulti = true
			multi = nil
			body = 0
		default:
			code := 0
			text := line
			if len(line) >= 3 {
				if n, err := strconv.Atoi(line[:3]); err == nil {
					code = n
					text = strings.TrimSpace(line[3:])
				}
			}
			r := reply{code: code, text: text, multi: multi}
			multi = nil
			select {
			case c.replies <- r:
			case <-c.closed:
				return
			}
		}
	}
	err := sc.Err()
	if err == nil {
		err = io.EOF
	}
	c.fail(fmt.Errorf("control: connection lost: %w", err))
}

func (c *Conn) roundTrip(cmd string) (reply, error) {
	select {
	case <-c.closed:
		return reply{}, c.cause
	default:
	}
	c.wmu.Lock()
	_, err := fmt.Fprintf(c.conn, "%s\r\n", cmd)
	c.wmu.Unlock()
	if err != nil {
		return reply{}, fmt.Errorf("control: send %q: %w", cmd, err)
	}
	select {
	case r := <-c.replies:
		return r, nil
	case <-c.closed:
		select {
		case r := <-c.replies: // the reply came just before the end
			return r, nil
		default:
		}
		return reply{}, c.cause
	case <-time.After(replyTimeout):
		err := fmt.Errorf("control: timeout awaiting reply to %q", cmd)
		c.fail(err)
		return reply{}, err
	}
}

func (c *Conn) expect250(cmd string) (reply, error) {
	r, err := c.roundTrip(cmd)
	if err != nil {
		return r, err
	}
	if r.code != 250 {
		return r, fmt.Errorf("control: %s: %d %s", strings.Fields(cmd)[0], r.code, r.text)
	}
	return r, nil
}

// Authenticate presents the (possibly empty) password.
func (c *Conn) Authenticate(password string) error {
	cmd := "AUTHENTICATE"
	if password != "" {
		cmd = fmt.Sprintf("AUTHENTICATE %q", password)
	}
	_, err := c.expect250(cmd)
	return err
}

// ExtendCircuit builds a new circuit through the named relays and returns
// its controller-side ID.
func (c *Conn) ExtendCircuit(nicknames []string) (int, error) {
	if len(nicknames) == 0 {
		return 0, errors.New("control: empty path")
	}
	r, err := c.expect250("EXTENDCIRCUIT 0 " + strings.Join(nicknames, ","))
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(r.text)
	if len(fields) != 2 || fields[0] != "EXTENDED" {
		return 0, fmt.Errorf("control: unexpected reply %q", r.text)
	}
	id, err := strconv.Atoi(fields[1])
	if err != nil {
		return 0, fmt.Errorf("control: bad circuit id %q", fields[1])
	}
	return id, nil
}

// CloseCircuit tears a circuit down.
func (c *Conn) CloseCircuit(id int) error {
	_, err := c.expect250(fmt.Sprintf("CLOSECIRCUIT %d", id))
	return err
}

// GetInfo fetches a multiline info key, returning the body lines.
func (c *Conn) GetInfo(key string) ([]string, error) {
	r, err := c.expect250("GETINFO " + key)
	if err != nil {
		return nil, err
	}
	return r.multi, nil
}

// Consensus fetches and parses ns/all.
func (c *Conn) Consensus() (*directory.Registry, error) {
	lines, err := c.GetInfo("ns/all")
	if err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return nil, errors.New("control: empty consensus")
	}
	// First line is "ns/all=" marker followed by the document.
	doc := strings.Join(lines, "\n")
	doc = strings.TrimPrefix(doc, "ns/all=\n")
	doc = strings.TrimPrefix(doc, "ns/all=")
	return directory.DecodeConsensus(strings.NewReader(doc))
}

// DialStream connects to the data port and attaches a raw byte stream to
// circuit id toward target. The returned connection carries application
// bytes end to end.
func DialStream(dataAddr string, circID int, target string) (net.Conn, error) {
	conn, err := net.Dial("tcp", dataAddr)
	if err != nil {
		return nil, fmt.Errorf("control: dial data port: %w", err)
	}
	if _, err := fmt.Fprintf(conn, "CONNECT %s VIA %d\n", target, circID); err != nil {
		conn.Close()
		return nil, fmt.Errorf("control: attach: %w", err)
	}
	status, err := bufio.NewReader(&oneByteReader{c: conn}).ReadString('\n')
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("control: attach reply: %w", err)
	}
	status = strings.TrimSpace(status)
	if !strings.HasPrefix(status, "250") {
		conn.Close()
		return nil, fmt.Errorf("control: attach refused: %s", status)
	}
	return conn, nil
}

// oneByteReader prevents bufio from reading past the status line into the
// application byte stream.
type oneByteReader struct{ c net.Conn }

func (r *oneByteReader) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return r.c.Read(p)
}
