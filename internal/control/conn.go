package control

import (
	"bufio"
	"context"
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
	sc.Buffer(make([]byte, 4096), maxLine)
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
	if errors.Is(err, bufio.ErrTooLong) {
		c.fail(fmt.Errorf("control: reply line over %d bytes", maxLine))
		return
	}
	if err == nil {
		err = io.EOF
	}
	c.fail(fmt.Errorf("control: connection lost: %w", err))
}

// ended returns why the Conn closed, or nil while it is open.
func (c *Conn) ended() error {
	select {
	case <-c.closed:
		return c.cause
	default:
		return nil
	}
}

func (c *Conn) roundTrip(cmd string) (reply, error) {
	if err := c.ended(); err != nil {
		return reply{}, err
	}
	c.wmu.Lock()
	_, err := fmt.Fprintf(c.conn, "%s\r\n", cmd)
	c.wmu.Unlock()
	if err != nil {
		// A send that failed because the Conn closed under it reports why
		// it closed, not the closed socket.
		if cause := c.ended(); cause != nil {
			return reply{}, cause
		}
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
// bytes end to end. The dial and the status line are bounded by ctx and by
// replyTimeout, whichever ends first, and a status line longer than
// maxLine is refused.
func DialStream(ctx context.Context, dataAddr string, circID int, target string) (net.Conn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", dataAddr)
	if err != nil {
		return nil, fmt.Errorf("control: dial data port: %w", err)
	}
	_ = conn.SetDeadline(time.Now().Add(replyTimeout))
	stop := context.AfterFunc(ctx, func() { _ = conn.SetDeadline(time.Now()) })
	status, err := attach(conn, circID, target)
	stop()
	if ctx.Err() != nil {
		err = ctx.Err()
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("control: attach: %w", err)
	}
	if !strings.HasPrefix(status, "250") {
		conn.Close()
		return nil, fmt.Errorf("control: attach refused: %s", status)
	}
	_ = conn.SetDeadline(time.Time{})
	return conn, nil
}

// attach sends the CONNECT request and reads the status line one byte at a
// time, so no byte of the stream behind it is consumed. Only the line's
// first 512 bytes are kept, for a refusal's text.
func attach(conn net.Conn, circID int, target string) (string, error) {
	if _, err := fmt.Fprintf(conn, "CONNECT %s VIA %d\n", target, circID); err != nil {
		return "", err
	}
	var b [1]byte
	line := make([]byte, 0, 64)
	for n := 0; n < maxLine; n++ {
		if _, err := io.ReadFull(conn, b[:]); err != nil {
			return "", fmt.Errorf("reply: %w", err)
		}
		if b[0] == '\n' {
			return strings.TrimSpace(string(line)), nil
		}
		if len(line) < 512 {
			line = append(line, b[0])
		}
	}
	return "", fmt.Errorf("status line longer than %d bytes", maxLine)
}
