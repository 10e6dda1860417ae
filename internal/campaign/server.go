package campaign

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode"

	"ting/internal/directory"
)

// Verb is the request-line verb the campaign service claims on the
// directory transport. Every campaign request is "CAMP <op> ...".
const Verb = "CAMP"

const (
	// maxName bounds a relay name, so that every reply line fits
	// maxReplyLine; NewCoordinator refuses a longer one.
	maxName = 16 << 10
	// maxReplyLine bounds a reply line a campaign client reads, its newline
	// included. The longest line a coordinator sends is an error verdict: it
	// quotes at most one request or completion line, which the server reads
	// through a 4 KiB buffer and %q at most quadruples. A names line is one
	// name.
	maxReplyLine = 64 << 10
	// replyBuf is a client's read buffer: a lease line fits it, and a longer
	// line is read in pieces up to maxReplyLine.
	replyBuf = 256
)

// Server exposes a Coordinator over the directory server's line-text
// protocol. One listener carries both consensus traffic and campaign
// traffic; the campaign side claims the "CAMP" verb via
// directory.Server.Extend.
type Server struct {
	c *Coordinator
	// bufs holds *shardValues completion buffers: completeValues keeps
	// nothing of a submission, so a buffer is reused once its verdict is
	// sent.
	bufs sync.Pool
}

// shardValues is a submission by index: one value per shard pair in
// canonical order, 0 at a failed pair, and the failed pairs' positions.
type shardValues struct {
	rtts   []float64
	failed []int
}

// NewServer wraps c for the wire.
func NewServer(c *Coordinator) *Server { return &Server{c: c} }

// Register claims the campaign verb on ds.
func (s *Server) Register(ds *directory.Server) { ds.Extend(Verb, s.handle) }

// handle answers one CAMP request and reports whether the connection is
// still framed: every reply leaves it so but a refused completion body,
// whose unread lines the server must not take for requests.
func (s *Server) handle(conn net.Conn, br *bufio.Reader, req string) bool {
	fields := strings.Fields(req)
	if len(fields) < 2 || fields[0] != Verb {
		fmt.Fprintln(conn, "error malformed campaign request")
		return true
	}
	switch op, args := fields[1], fields[2:]; op {
	case "names":
		names := s.c.Names()
		bw := bufio.NewWriter(conn)
		fmt.Fprintf(bw, "names n=%d\n", len(names))
		for _, n := range names {
			fmt.Fprintln(bw, n)
		}
		bw.Flush()
	case "acquire":
		if len(args) != 1 {
			fmt.Fprintln(conn, "error acquire wants: CAMP acquire <worker>")
			return true
		}
		lease, res, err := s.c.Acquire(args[0])
		if err != nil {
			// A journal write failed: the grant never happened. The worker
			// retries; no epoch was burned.
			fmt.Fprintf(conn, "error %v\n", err)
			return true
		}
		switch res {
		case AcquireGranted:
			fmt.Fprintln(conn, EncodeLease(lease))
		case AcquireDone:
			fmt.Fprintln(conn, "done")
		default:
			fmt.Fprintln(conn, "none")
		}
	case "heartbeat":
		worker, id, epoch, err := leaseArgs(args)
		if err != nil {
			fmt.Fprintf(conn, "error %v\n", err)
			return true
		}
		replyErr(conn, s.c.Heartbeat(worker, id, epoch))
	case "complete":
		// A body follows the request line: a refusal that leaves it unread,
		// or read partway, ends the connection, so that no body line is
		// read as a request.
		worker, id, epoch, err := leaseArgs(args)
		if err != nil {
			fmt.Fprintf(conn, "error %v\n", err)
			return false
		}
		sh, ok := s.c.shard(id)
		if !ok {
			replyErr(conn, ErrUnknownShard)
			return false
		}
		v, _ := s.bufs.Get().(*shardValues)
		if v == nil {
			v = new(shardValues)
		}
		defer s.bufs.Put(v)
		v.rtts, v.failed, err = readValues(br, sh, v.rtts, v.failed)
		if err != nil {
			fmt.Fprintf(conn, "error %v\n", err)
			return false
		}
		replyErr(conn, s.c.completeValues(worker, id, epoch, v.rtts, v.failed))
	default:
		fmt.Fprintf(conn, "error unknown campaign op %q\n", op)
	}
	return true
}

func leaseArgs(args []string) (worker, id string, epoch uint64, err error) {
	if len(args) != 3 {
		return "", "", 0, errors.New("want: <worker> <shard> <epoch>")
	}
	epoch, err = strconv.ParseUint(args[2], 10, 64)
	if err != nil {
		return "", "", 0, fmt.Errorf("bad epoch %q", args[2])
	}
	return args[0], args[1], epoch, nil
}

// readValues consumes a completion body for shard sh, appending to rtts[:0]
// and failed[:0], which it returns grown even when it refuses the body: one
// line per shard pair in canonical order, holding the pair's RTT as a
// decimal or "fail", then "end" — the journal complete record's form, so a
// failed pair's value is 0 and its position joins failed. Surrounding white
// space is ignored. Whatever the peer sends, the body costs bounded memory:
// a line longer than br's buffer is refused, and so is a value line past the
// shard's pair count. A value that is not finite is refused, as neither the
// journal nor a matrix document can hold it, and so is a line of the named
// form ("pair <x> <y> <rtt>" or "fail <x> <y>"), never read as a value. A
// canonical body into buffers of its size allocates nothing.
func readValues(br *bufio.Reader, sh Shard, rtts []float64, failed []int) ([]float64, []int, error) {
	rtts, failed = rtts[:0], failed[:0]
	for {
		line, err := br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			return rtts, failed, fmt.Errorf("completion line longer than %d bytes", br.Size())
		}
		if err != nil {
			return rtts, failed, errors.New("truncated completion body")
		}
		v := bytes.TrimSpace(line)
		if string(v) == "end" {
			return rtts, failed, nil
		}
		if len(rtts) == sh.PairCount() {
			return rtts, failed, fmt.Errorf("completion body has more than the shard's %d pairs", sh.PairCount())
		}
		rtt := 0.0
		if string(v) == "fail" {
			failed = append(failed, len(rtts))
		} else if rtt, err = strconv.ParseFloat(string(v), 64); err != nil {
			if k := bytes.IndexFunc(v, unicode.IsSpace); k > 0 && (string(v[:k]) == "pair" || string(v[:k]) == "fail") {
				return rtts, failed, fmt.Errorf("completion line %q is in the named form; a line holds one pair's value or \"fail\"", v)
			}
			return rtts, failed, fmt.Errorf("bad completion line %q", v)
		} else if math.IsNaN(rtt) || math.IsInf(rtt, 0) {
			return rtts, failed, fmt.Errorf("completion value %q at position %d is not finite", v, len(rtts))
		}
		rtts = append(rtts, rtt)
	}
}

// replyErr maps a coordinator verdict onto the wire: nil → "ok", fencing
// → "fenced", anything else → "error <msg>".
func replyErr(conn net.Conn, err error) {
	switch {
	case err == nil:
		fmt.Fprintln(conn, "ok")
	case errors.Is(err, ErrFenced):
		fmt.Fprintln(conn, "fenced")
	default:
		fmt.Fprintf(conn, "error %v\n", err)
	}
}

// --- client side ---

// TransportError marks a campaign client call that never got a coordinator
// verdict: the dial, write, or read failed. Unlike a verdict (ErrFenced, a
// validation error), a transport failure says nothing about the lease —
// the coordinator may be mid-restart — so callers retry these with backoff
// instead of abandoning work. Worker.Run and runLease branch on it via
// IsTransient.
type TransportError struct {
	Op  string
	Err error
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("campaign: %s: %v", e.Op, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// IsTransient reports whether err is a transport-level campaign failure —
// one worth retrying against the same coordinator address.
func IsTransient(err error) bool {
	var te *TransportError
	return errors.As(err, &te)
}

// session is a caller's connection to the coordinator at addr. Each call is
// one exchange under mu, its reply read on the caller's goroutine, so a
// worker's lease loop and its heartbeat goroutine share one session. The
// session dials on the first call after it was made or closed. A call that
// returns an error closes the connection, and the next call dials again: a
// transport failure leaves the framing unknown, and an error verdict is
// rare enough to take the same path.
//
// A connection that has carried a reply may have been closed by the server
// while idle (DefaultIOTimeout, which a lease's heartbeat cadence may
// outlast). A call that fails on such a connection before any byte of its
// reply arrives is sent once more, straight away, on a new connection; only
// a failure there is a TransportError. The resend is safe for every call: a
// repeated names or heartbeat asks again, a repeated complete at the same
// epoch is answered ok, and an acquire whose grant was lost leaves a lease
// that expires unrenewed.
type session struct {
	addr string

	mu   sync.Mutex // held for a whole exchange
	conn net.Conn   // nil until dialed, and after a failure or close
	br   *bufio.Reader
	bw   *bufio.Writer
}

// close hangs the connection up, if one is open; the next call dials again.
func (s *session) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hangUp()
}

func (s *session) hangUp() {
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
	}
}

// call sends one request, which send writes to bw, and reads its reply
// through read. op names the call in a TransportError.
func (s *session) call(op string, send func(bw *bufio.Writer), read func(br *bufio.Reader) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		// A connection open before this exchange has carried a reply.
		reused := s.conn != nil
		if err := s.dial(); err != nil {
			return err
		}
		_ = s.conn.SetDeadline(time.Now().Add(directory.DefaultIOTimeout))
		send(s.bw)
		err := s.bw.Flush()
		if err == nil {
			_, err = s.br.Peek(1)
		}
		if err != nil {
			s.hangUp()
			if reused {
				continue
			}
			return &TransportError{Op: op, Err: err}
		}
		if err := read(s.br); err != nil {
			s.hangUp()
			return err
		}
		return nil
	}
}

// dial opens the session's connection unless one is open.
func (s *session) dial() error {
	if s.conn != nil {
		return nil
	}
	conn, err := net.DialTimeout("tcp", s.addr, directory.DefaultIOTimeout)
	if err != nil {
		return &TransportError{Op: "dial", Err: err}
	}
	s.conn = conn
	if s.br == nil {
		s.br = bufio.NewReaderSize(conn, replyBuf)
		s.bw = bufio.NewWriter(conn)
	} else {
		s.br.Reset(conn)
		s.bw.Reset(conn)
	}
	return nil
}

// names asks the coordinator for the campaign's canonical relay name order.
// Workers must scan against exactly this list.
func (s *session) names() ([]string, error) {
	var names []string
	err := s.call("fetch names", func(bw *bufio.Writer) {
		fmt.Fprintf(bw, "%s names\n", Verb)
	}, func(br *bufio.Reader) (err error) {
		names, err = readNames(br)
		return err
	})
	return names, err
}

// readNames reads a names reply from br: a "names n=<n>" header, then n
// lines of one name each.
func readNames(br *bufio.Reader) ([]string, error) {
	header, err := readReply(br)
	if err != nil {
		return nil, &TransportError{Op: "fetch names", Err: err}
	}
	var n int
	if _, err := fmt.Sscanf(header, "names n=%d", &n); err != nil || n < 0 {
		return nil, fmt.Errorf("campaign: bad names header %q", header)
	}
	// The count is the peer's claim: names are allocated as they arrive,
	// and the reply must deliver every one it promised.
	names := make([]string, 0, min(n, 1024))
	for len(names) < n {
		line, err := readReply(br)
		if err != nil {
			return nil, &TransportError{Op: "fetch names", Err: fmt.Errorf("reply ended after %d of %d names: %w", len(names), n, err)}
		}
		names = append(names, line)
	}
	return names, nil
}

// Acquire asks the coordinator at addr for a lease on behalf of worker, on
// a connection of its own. A coordinator's "error <msg>" reply comes back as
// an error carrying msg.
func Acquire(addr, worker string) (Lease, AcquireResult, error) {
	s := session{addr: addr}
	defer s.close()
	return s.acquire(worker)
}

func (s *session) acquire(worker string) (lease Lease, res AcquireResult, err error) {
	err = s.call("acquire", func(bw *bufio.Writer) {
		fmt.Fprintf(bw, "%s acquire %s\n", Verb, worker)
	}, func(br *bufio.Reader) (err error) {
		lease, res, err = readAcquire(br)
		return err
	})
	return lease, res, err
}

// readAcquire reads an acquire reply from br: a lease line, "none", "done"
// or "error <msg>".
func readAcquire(br *bufio.Reader) (Lease, AcquireResult, error) {
	line, err := readReply(br)
	if err != nil {
		return Lease{}, AcquireNone, &TransportError{Op: "acquire", Err: err}
	}
	switch line {
	case "none":
		return Lease{}, AcquireNone, nil
	case "done":
		return Lease{}, AcquireDone, nil
	}
	if msg, ok := strings.CutPrefix(line, "error "); ok {
		return Lease{}, AcquireNone, fmt.Errorf("campaign: acquire: %s", msg)
	}
	lease, err := DecodeLease(line)
	if err != nil {
		return Lease{}, AcquireNone, err
	}
	return lease, AcquireGranted, nil
}

// heartbeat renews worker's lease l. Returns ErrFenced when the coordinator
// has moved the shard on.
func (s *session) heartbeat(worker string, l Lease) error {
	return s.call("heartbeat", func(bw *bufio.Writer) {
		fmt.Fprintf(bw, "%s heartbeat %s %s %d\n", Verb, worker, l.Shard.ID, l.Epoch)
	}, func(br *bufio.Reader) error {
		return readVerdict(br, "heartbeat")
	})
}

// Complete submits worker's results for lease l to the coordinator at
// addr, on a connection of its own. Results must list the shard's pairs in
// canonical order: the wire carries each pair's position, not its names, so
// only its RTT travels. Returns ErrFenced when a newer epoch owns the shard.
func Complete(addr, worker string, l Lease, results []PairResult) error {
	s := session{addr: addr}
	defer s.close()
	return s.complete(worker, l, values(results, nil), nil)
}

// complete sends a completion by index for lease l: the request line, then
// the body writeValues writes.
func (s *session) complete(worker string, l Lease, rtts []float64, failed []int) error {
	return s.call("complete", func(bw *bufio.Writer) {
		fmt.Fprintf(bw, "%s complete %s %s %d\n", Verb, worker, l.Shard.ID, l.Epoch)
		writeValues(bw, rtts, failed)
	}, func(br *bufio.Reader) error {
		return readVerdict(br, "complete")
	})
}

// writeValues writes the completion body readValues reads: a line per
// value, "fail" at each failed position and otherwise the RTT as a
// shortest-round-trip decimal, which round-trips float64 exactly, so the
// wire cannot break bytewise merge equality; then "end". Each line is
// appended straight into bw's buffer; a write error sticks in bw for its
// Flush to report.
func writeValues(bw *bufio.Writer, rtts []float64, failed []int) {
	for k, rtt := range rtts {
		b := bw.AvailableBuffer()
		if len(failed) > 0 && failed[0] == k {
			b, failed = append(b, "fail"...), failed[1:]
		} else {
			b = strconv.AppendFloat(b, rtt, 'g', -1, 64)
		}
		bw.Write(append(b, '\n'))
	}
	bw.WriteString("end\n")
}

// readVerdict reads a heartbeat or completion reply from br: "ok" is nil,
// "fenced" is ErrFenced, and any other line is an error quoting it.
func readVerdict(br *bufio.Reader, op string) error {
	line, err := readReply(br)
	if err != nil {
		return &TransportError{Op: op, Err: err}
	}
	switch {
	case line == "ok":
		return nil
	case line == "fenced":
		return ErrFenced
	default:
		return fmt.Errorf("campaign: %s: server said %q", op, line)
	}
}

// readReply reads one reply line through br, trimmed of surrounding white
// space — every line a campaign client reads comes through here. A line
// longer than maxReplyLine, its newline included, is an error, never
// truncated: a peer that never ends its line costs at most that much. A
// line that fits br's buffer is copied once, into the string returned.
func readReply(br *bufio.Reader) (string, error) {
	frag, err := br.ReadSlice('\n')
	if err == nil {
		return string(bytes.TrimSpace(frag)), nil
	}
	var line []byte
	for {
		if line = append(line, frag...); len(line) > maxReplyLine {
			return "", fmt.Errorf("reply line longer than %d bytes", maxReplyLine)
		}
		if err == nil {
			return string(bytes.TrimSpace(line)), nil
		}
		if !errors.Is(err, bufio.ErrBufferFull) {
			return "", err
		}
		frag, err = br.ReadSlice('\n')
	}
}
