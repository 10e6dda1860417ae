package campaign

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"

	"ting/internal/directory"
)

// Verb is the request-line verb the campaign service claims on the
// directory transport. Every campaign request is "CAMP <op> ...".
const Verb = "CAMP"

// Server exposes a Coordinator over the directory server's line-text
// protocol. One listener carries both consensus traffic and campaign
// traffic; the campaign side claims the "CAMP" verb via
// directory.Server.Extend.
type Server struct {
	c *Coordinator
}

// NewServer wraps c for the wire.
func NewServer(c *Coordinator) *Server { return &Server{c: c} }

// Register claims the campaign verb on ds.
func (s *Server) Register(ds *directory.Server) { ds.Extend(Verb, s.handle) }

func (s *Server) handle(conn net.Conn, br *bufio.Reader, req string) {
	fields := strings.Fields(req)
	if len(fields) < 2 || fields[0] != Verb {
		fmt.Fprintln(conn, "error malformed campaign request")
		return
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
			return
		}
		lease, res, err := s.c.Acquire(args[0])
		if err != nil {
			// A journal write failed: the grant never happened. The worker
			// retries; no epoch was burned.
			fmt.Fprintf(conn, "error %v\n", err)
			return
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
			return
		}
		replyErr(conn, s.c.Heartbeat(worker, id, epoch))
	case "complete":
		worker, id, epoch, err := leaseArgs(args)
		if err != nil {
			fmt.Fprintf(conn, "error %v\n", err)
			return
		}
		limit, ok := s.c.pairCount(id)
		if !ok {
			replyErr(conn, ErrUnknownShard)
			return
		}
		results, err := readResults(br, limit)
		if err != nil {
			fmt.Fprintf(conn, "error %v\n", err)
			return
		}
		replyErr(conn, s.c.Complete(worker, id, epoch, results))
	default:
		fmt.Fprintf(conn, "error unknown campaign op %q\n", op)
	}
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

// readResults consumes a completion body: one "pair <x> <y> <rtt>" or
// "fail <x> <y>" line per pair, terminated by "end". Fields are separated by
// white space as strings.Fields separates them, without allocating.
// Whatever the peer sends, the body costs bounded memory: a line longer than
// br's buffer is refused, and so is a result line past limit, the shard's
// pair count.
func readResults(br *bufio.Reader, limit int) ([]PairResult, error) {
	out := make([]PairResult, 0, limit)
	for {
		line, err := br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			return nil, fmt.Errorf("completion line longer than %d bytes", br.Size())
		}
		if err != nil {
			return nil, errors.New("truncated completion body")
		}
		var f [4][]byte
		n := fields(line, f[:])
		switch {
		case n == 1 && string(f[0]) == "end":
			return out, nil
		case n == 4 && string(f[0]) == "pair", n == 3 && string(f[0]) == "fail":
			if len(out) == limit {
				return nil, fmt.Errorf("completion body has more than the shard's %d pairs", limit)
			}
			r := PairResult{X: string(f[1]), Y: string(f[2]), Failed: n == 3}
			if n == 4 {
				if r.RTT, err = strconv.ParseFloat(string(f[3]), 64); err != nil {
					return nil, fmt.Errorf("bad rtt %q", f[3])
				}
			}
			out = append(out, r)
		default:
			return nil, fmt.Errorf("bad completion line %q", bytes.TrimSpace(line))
		}
	}
}

// fields splits line around runs of Unicode white space, as strings.Fields
// does, into f, and returns how many fields the line has — more than len(f)
// when they do not all fit.
func fields(line []byte, f [][]byte) int {
	n, start := 0, -1
	for i := 0; i < len(line); {
		r, size := rune(line[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRune(line[i:])
		}
		switch {
		case !unicode.IsSpace(r):
			if start < 0 {
				start = i
			}
		case start >= 0:
			if n < len(f) {
				f[n] = line[start:i]
			}
			n, start = n+1, -1
		}
		i += size
	}
	if start >= 0 {
		if n < len(f) {
			f[n] = line[start:]
		}
		n++
	}
	return n
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

func dial(addr string, timeout time.Duration) (net.Conn, error) {
	if timeout <= 0 {
		timeout = directory.DefaultIOTimeout
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, &TransportError{Op: "dial", Err: err}
	}
	_ = conn.SetDeadline(time.Now().Add(timeout))
	return conn, nil
}

// FetchNames asks the coordinator at addr for the campaign's canonical
// relay name order. Workers must scan against exactly this list.
func FetchNames(addr string) ([]string, error) {
	conn, err := dial(addr, 0)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "%s names\n", Verb); err != nil {
		return nil, &TransportError{Op: "fetch names", Err: err}
	}
	br := bufio.NewReader(conn)
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, &TransportError{Op: "fetch names", Err: err}
	}
	header = strings.TrimSpace(header)
	var n int
	if _, err := fmt.Sscanf(header, "names n=%d", &n); err != nil {
		return nil, fmt.Errorf("campaign: bad names header %q", header)
	}
	names := make([]string, 0, n)
	for i := 0; i < n; i++ {
		line, err := br.ReadString('\n')
		if err != nil {
			return nil, &TransportError{Op: "fetch names", Err: errors.New("truncated reply")}
		}
		names = append(names, strings.TrimSpace(line))
	}
	return names, nil
}

// Acquire asks the coordinator at addr for a lease on behalf of worker.
func Acquire(addr, worker string) (Lease, AcquireResult, error) {
	conn, err := dial(addr, 0)
	if err != nil {
		return Lease{}, AcquireNone, err
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "%s acquire %s\n", Verb, worker); err != nil {
		return Lease{}, AcquireNone, &TransportError{Op: "acquire", Err: err}
	}
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		return Lease{}, AcquireNone, &TransportError{Op: "acquire", Err: err}
	}
	switch line = strings.TrimSpace(line); line {
	case "none":
		return Lease{}, AcquireNone, nil
	case "done":
		return Lease{}, AcquireDone, nil
	}
	lease, err := DecodeLease(line)
	if err != nil {
		return Lease{}, AcquireNone, err
	}
	return lease, AcquireGranted, nil
}

// Heartbeat renews worker's lease with the coordinator at addr. Returns
// ErrFenced when the coordinator has moved the shard on.
func Heartbeat(addr, worker string, l Lease) error {
	conn, err := dial(addr, 0)
	if err != nil {
		return err
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "%s heartbeat %s %s %d\n", Verb, worker, l.Shard.ID, l.Epoch); err != nil {
		return &TransportError{Op: "heartbeat", Err: err}
	}
	return readVerdict(conn, "heartbeat")
}

// Complete submits worker's results for lease l to the coordinator at
// addr. RTTs travel as shortest-round-trip decimal strings, which
// round-trip float64 exactly — the wire cannot break bytewise merge
// equality. Returns ErrFenced when a newer epoch owns the shard.
func Complete(addr, worker string, l Lease, results []PairResult) error {
	conn, err := dial(addr, 0)
	if err != nil {
		return err
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	fmt.Fprintf(bw, "%s complete %s %s %d\n", Verb, worker, l.Shard.ID, l.Epoch)
	writeResults(bw, results)
	if err := bw.Flush(); err != nil {
		return &TransportError{Op: "complete", Err: err}
	}
	return readVerdict(conn, "complete")
}

// writeResults writes the completion body readResults reads: a "pair" or
// "fail" line per result, each appended straight into bw's buffer, then
// "end". A write error sticks in bw for its Flush to report.
func writeResults(bw *bufio.Writer, results []PairResult) {
	for _, r := range results {
		b := bw.AvailableBuffer()
		if r.Failed {
			b = append(b, "fail "...)
		} else {
			b = append(b, "pair "...)
		}
		b = append(append(append(b, r.X...), ' '), r.Y...)
		if !r.Failed {
			b = strconv.AppendFloat(append(b, ' '), r.RTT, 'g', -1, 64)
		}
		bw.Write(append(b, '\n'))
	}
	bw.WriteString("end\n")
}

func readVerdict(conn net.Conn, op string) error {
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		return &TransportError{Op: op, Err: err}
	}
	switch line = strings.TrimSpace(line); {
	case line == "ok":
		return nil
	case line == "fenced":
		return ErrFenced
	default:
		return fmt.Errorf("campaign: %s: server said %q", op, line)
	}
}
