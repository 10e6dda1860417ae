package campaign

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
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
		v, _ := s.bufs.Get().(*shardValues)
		if v == nil {
			v = new(shardValues)
		}
		defer s.bufs.Put(v)
		v.rtts, v.failed, err = readValues(br, sh, v.rtts, v.failed)
		if err != nil {
			fmt.Fprintf(conn, "error %v\n", err)
			return
		}
		replyErr(conn, s.c.completeValues(worker, id, epoch, v.rtts, v.failed))
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
	return readNames(conn)
}

// readNames reads a names reply from r: a "names n=<n>" header, then n
// lines of one name each.
func readNames(r io.Reader) ([]string, error) {
	br := replyReader(r)
	defer releaseReplyReader(br)
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
	return readAcquire(conn)
}

// readAcquire reads an acquire reply from r: a lease line, "none", "done"
// or "error <msg>".
func readAcquire(r io.Reader) (Lease, AcquireResult, error) {
	br := replyReader(r)
	line, err := readReply(br)
	releaseReplyReader(br)
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
// addr. Results must list the shard's pairs in canonical order: the wire
// carries each pair's position, not its names, so only its RTT travels.
// Returns ErrFenced when a newer epoch owns the shard.
func Complete(addr, worker string, l Lease, results []PairResult) error {
	return submit(addr, worker, l, values(results, nil), nil)
}

// submit sends a completion by index for lease l: the request line, then
// the body writeValues writes.
func submit(addr, worker string, l Lease, rtts []float64, failed []int) error {
	conn, err := dial(addr, 0)
	if err != nil {
		return err
	}
	defer conn.Close()
	bw := submitWriters.Get().(*bufio.Writer)
	bw.Reset(conn)
	fmt.Fprintf(bw, "%s complete %s %s %d\n", Verb, worker, l.Shard.ID, l.Epoch)
	writeValues(bw, rtts, failed)
	err = bw.Flush()
	bw.Reset(nil)
	submitWriters.Put(bw)
	if err != nil {
		return &TransportError{Op: "complete", Err: err}
	}
	return readVerdict(conn, "complete")
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

// readVerdict reads a heartbeat or completion reply from r: "ok" is nil,
// "fenced" is ErrFenced, and any other line is an error quoting it.
func readVerdict(r io.Reader, op string) error {
	br := replyReader(r)
	line, err := readReply(br)
	releaseReplyReader(br)
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

// replyReaders holds the clients' *bufio.Reader of replyBuf bytes, and
// submitWriters the completion body's *bufio.Writer: a worker makes an RPC
// or two a lease, each on a new connection, and each borrows its buffer
// for the one call. A buffer goes back reset to nil, holding no
// connection.
var (
	replyReaders  = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, replyBuf) }}
	submitWriters = sync.Pool{New: func() any { return bufio.NewWriter(nil) }}
)

// replyReader borrows a reply reader over r; releaseReplyReader returns it.
func replyReader(r io.Reader) *bufio.Reader {
	br := replyReaders.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

func releaseReplyReader(br *bufio.Reader) {
	br.Reset(nil)
	replyReaders.Put(br)
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
