package campaign

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode"
	"unicode/utf8"

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
	// through a 4 KiB buffer and %q at most quadruples, beside at most two
	// relay names. A names line is one name.
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
	// bufs holds *[]PairResult completion buffers: Complete keeps nothing
	// of a submission, so a buffer is reused once its verdict is sent.
	bufs sync.Pool
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
		sh, ok := s.c.shard(id)
		if !ok {
			replyErr(conn, ErrUnknownShard)
			return
		}
		buf, _ := s.bufs.Get().(*[]PairResult)
		if buf == nil {
			buf = new([]PairResult)
		}
		defer s.bufs.Put(buf)
		results, err := readResults(br, s.c.names, sh, *buf)
		if err != nil {
			fmt.Fprintf(conn, "error %v\n", err)
			return
		}
		*buf = results
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

// readResults consumes a completion body for shard sh of a campaign over
// names, appending to dst[:0]: one "pair <x> <y> <rtt>" or "fail <x> <y>"
// line per pair, terminated by "end". Fields are separated by white space
// as strings.Fields separates them, without allocating. A result's names
// are the campaign's own strings wherever the wire bytes spell the pair the
// shard lists at that position, and copies only where they do not (Complete
// then refuses the submission by name), so a canonical body into a buffer
// of its size allocates nothing, whatever its pair count. Whatever the peer
// sends, the body costs bounded memory: a line longer than br's buffer is
// refused, and so is a result line past the shard's pair count.
func readResults(br *bufio.Reader, names []string, sh Shard, dst []PairResult) ([]PairResult, error) {
	out, limit := dst[:0], sh.PairCount()
	c := sh.cursor(len(names))
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
			i, j, _ := c.next()
			r := PairResult{X: canonical(f[1], names[i]), Y: canonical(f[2], names[j]), Failed: n == 3}
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

// canonical returns want when b spells it, and b as a new string otherwise.
func canonical(b []byte, want string) string {
	if string(b) == want {
		return want
	}
	return string(b)
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
	br := bufio.NewReaderSize(conn, replyBuf)
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

// Acquire asks the coordinator at addr for a lease on behalf of worker. A
// coordinator's "error <msg>" reply comes back as an error carrying msg.
func Acquire(addr, worker string) (Lease, AcquireResult, error) {
	conn, err := dial(addr, 0)
	if err != nil {
		return Lease{}, AcquireNone, err
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "%s acquire %s\n", Verb, worker); err != nil {
		return Lease{}, AcquireNone, &TransportError{Op: "acquire", Err: err}
	}
	line, err := readReply(bufio.NewReaderSize(conn, replyBuf))
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
	line, err := readReply(bufio.NewReaderSize(conn, replyBuf))
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
// truncated: a peer that never ends its line costs at most that much.
func readReply(br *bufio.Reader) (string, error) {
	var line []byte
	for {
		frag, err := br.ReadSlice('\n')
		if line = append(line, frag...); len(line) > maxReplyLine {
			return "", fmt.Errorf("reply line longer than %d bytes", maxReplyLine)
		}
		if err == nil {
			return string(bytes.TrimSpace(line)), nil
		}
		if !errors.Is(err, bufio.ErrBufferFull) {
			return "", err
		}
	}
}
