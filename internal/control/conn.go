package control

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ting/internal/directory"
)

// Conn is a controller-side control connection — the role Stem played for
// the paper's measurement client. Each request and its reply are one
// exchange under one lock, read on the caller's goroutine, so goroutines
// may share a Conn; the first failure ends it, and every later request
// fails with that error.
type Conn struct {
	mu   sync.Mutex // held for a whole exchange
	conn net.Conn
	rd   *bufio.Reader
	err  error // the failure that ended the Conn

	closed atomic.Bool // set once the socket is closed; Close does not wait for mu
}

// replyTimeout bounds each request/response exchange. A reply that misses
// it ends the Conn, so it cannot answer the next request.
const replyTimeout = 15 * time.Second

// maxReplyBody bounds a multi-line ("250+") reply body in bytes, about
// twenty times a 7000-relay ns/all.
const maxReplyBody = 16 << 20

var errClosed = errors.New("control: connection closed")

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
	return &Conn{conn: conn, rd: bufio.NewReaderSize(conn, maxLine)}
}

// Close shuts the controller connection down. An exchange in progress on
// another goroutine returns at once with "connection closed".
func (c *Conn) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	return c.conn.Close()
}

func (c *Conn) roundTrip(cmd string) (reply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil && c.closed.Load() {
		c.err = errClosed
	}
	if c.err != nil {
		return reply{}, c.err
	}
	// Only a closed socket refuses a deadline, and the exchange fails on it.
	_ = c.conn.SetDeadline(time.Now().Add(replyTimeout))
	r, err := c.exchange(cmd)
	if err != nil {
		switch {
		case c.closed.Load():
			err = errClosed
		case errors.Is(err, os.ErrDeadlineExceeded):
			err = fmt.Errorf("control: timeout awaiting reply to %q", cmd)
		}
		c.err = err
		c.Close()
	}
	return r, err
}

// exchange sends cmd and reads its reply. A "250+" line opens a body that
// runs to a "." line; the line after it ends the reply and carries the
// body.
func (c *Conn) exchange(cmd string) (reply, error) {
	if _, err := fmt.Fprintf(c.conn, "%s\r\n", cmd); err != nil {
		return reply{}, fmt.Errorf("control: send %q: %w", cmd, err)
	}
	var multi []string
	for {
		line, err := c.readLine()
		if err != nil {
			return reply{}, err
		}
		if !strings.HasPrefix(line, "250+") {
			return parseReply(line, multi), nil
		}
		multi = nil
		for body := 0; ; {
			if line, err = c.readLine(); err != nil {
				return reply{}, err
			}
			if line == "." {
				break
			}
			if body += len(line) + 1; body > maxReplyBody {
				return reply{}, fmt.Errorf("control: reply body over %d bytes", maxReplyBody)
			}
			multi = append(multi, line)
		}
	}
}

// readLine reads one reply line, without its line ending.
func (c *Conn) readLine() (string, error) {
	line, err := c.rd.ReadSlice('\n')
	switch {
	case errors.Is(err, bufio.ErrBufferFull):
		return "", fmt.Errorf("control: reply line over %d bytes", maxLine)
	case err != nil:
		return "", fmt.Errorf("control: connection lost: %w", err)
	}
	return strings.TrimRight(string(line[:len(line)-1]), "\r"), nil
}

func parseReply(line string, multi []string) reply {
	r := reply{text: line, multi: multi}
	if len(line) >= 3 {
		if n, err := strconv.Atoi(line[:3]); err == nil {
			r.code, r.text = n, strings.TrimSpace(line[3:])
		}
	}
	return r
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
