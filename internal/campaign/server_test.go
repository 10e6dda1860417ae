package campaign

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"ting/internal/ting"
)

// readResultsReference is the completion-body parser the CAMP wire had
// before readResults was bounded: ReadString and strings.Fields, no limit on
// a line's length or on the number of lines. FuzzReadResults holds
// readResults to it.
func readResultsReference(br *bufio.Reader) ([]PairResult, error) {
	var out []PairResult
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return nil, errors.New("truncated completion body")
		}
		f := strings.Fields(line)
		switch {
		case len(f) == 1 && f[0] == "end":
			return out, nil
		case len(f) == 4 && f[0] == "pair":
			rtt, err := strconv.ParseFloat(f[3], 64)
			if err != nil {
				return nil, fmt.Errorf("bad rtt %q", f[3])
			}
			out = append(out, PairResult{X: f[1], Y: f[2], RTT: rtt})
		case len(f) == 3 && f[0] == "fail":
			out = append(out, PairResult{X: f[1], Y: f[2], Failed: true})
		default:
			return nil, fmt.Errorf("bad completion line %q", strings.TrimSpace(line))
		}
	}
}

// goldenNames are the campaign goldenResults belongs to: its pairs are the
// first five of shard t0-0.p0-5.
var goldenNames = []string{"relayA", "relayB", "relayC", "relayD"}

// goldenResults are the results the golden completion body carries: RTTs
// of zero, the smallest subnormal, one third and 1e21, and a failed pair.
var goldenResults = []PairResult{
	{X: "relayA", Y: "relayB", RTT: 0},
	{X: "relayA", Y: "relayC", RTT: math.SmallestNonzeroFloat64},
	{X: "relayA", Y: "relayD", Failed: true},
	{X: "relayB", Y: "relayC", RTT: 1.0 / 3},
	{X: "relayB", Y: "relayD", RTT: 1e21},
}

// goldenCompletion is what Complete sends for goldenResults: the bytes the
// wire carried when the body was written with Fprintf and FormatFloat.
const goldenCompletion = "CAMP complete w1 t0-0.p0-5 7\n" +
	"pair relayA relayB 0\n" +
	"pair relayA relayC 5e-324\n" +
	"fail relayA relayD\n" +
	"pair relayB relayC 0.3333333333333333\n" +
	"pair relayB relayD 1e+21\n" +
	"end\n"

// sameResults reports whether got is want bit for bit (every NaN reads back
// as a NaN).
func sameResults(got, want []PairResult) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.X != w.X || g.Y != w.Y || g.Failed != w.Failed {
			return false
		}
		if math.Float64bits(g.RTT) != math.Float64bits(w.RTT) && !(math.IsNaN(g.RTT) && math.IsNaN(w.RTT)) {
			return false
		}
	}
	return true
}

// TestCompleteWireGolden pins the bytes Complete puts on the wire, and
// reads them back through the server's parser bit for bit.
func TestCompleteWireGolden(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan string, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			got <- err.Error()
			return
		}
		defer conn.Close()
		var sent bytes.Buffer
		br := bufio.NewReader(conn)
		for {
			line, err := br.ReadString('\n')
			sent.WriteString(line)
			if err != nil || line == "end\n" {
				break
			}
		}
		conn.Write([]byte("ok\n"))
		got <- sent.String()
	}()
	lease := Lease{Shard: NewShard(0, 0, 0, 5), Epoch: 7}
	if err := Complete(ln.Addr().String(), "w1", lease, goldenResults); err != nil {
		t.Fatal(err)
	}
	sent := <-got
	if sent != goldenCompletion {
		t.Fatalf("Complete sent\n%s\nwant\n%s", sent, goldenCompletion)
	}
	body := bufio.NewReader(strings.NewReader(strings.SplitAfterN(sent, "\n", 2)[1]))
	res, err := readResults(body, goldenNames, lease.Shard, nil)
	if err != nil || !sameResults(res, goldenResults) {
		t.Fatalf("read back %+v, %v", res, err)
	}
}

// TestReadResultsBounds: a body is refused once it has more result lines
// than the shard has pairs, or a line longer than the reader's buffer; a
// name the wire spells as the shard's pair is the campaign's own string,
// and one it does not is read as sent.
func TestReadResultsBounds(t *testing.T) {
	body := "pair relayA relayB 1\nfail relayA relayC\nend\n"
	if _, err := readResults(bufio.NewReader(strings.NewReader(body)), goldenNames, NewShard(0, 0, 0, 1), nil); err == nil || !strings.Contains(err.Error(), "more than the shard's 1 pairs") {
		t.Fatalf("two results for a one-pair shard: %v", err)
	}
	long := "pair a b " + strings.Repeat("1", 64) + "\nend\n"
	if _, err := readResults(bufio.NewReaderSize(strings.NewReader(long), 32), goldenNames, NewShard(0, 0, 0, 1), nil); err == nil || !strings.Contains(err.Error(), "longer than 32 bytes") {
		t.Fatalf("line over the buffer: %v", err)
	}
	res, err := readResults(bufio.NewReader(strings.NewReader(body)), goldenNames, NewShard(0, 0, 0, 2), nil)
	if err != nil || len(res) != 2 {
		t.Fatalf("read %+v, %v", res, err)
	}
	if res[0].X != "relayA" || res[1].Y != "relayC" || !res[1].Failed || res[0].RTT != 1 {
		t.Fatalf("read %+v", res)
	}
	if unsafe.StringData(res[1].Y) != unsafe.StringData(goldenNames[2]) {
		t.Error("a canonical name was read as a copy")
	}
	// The shard's second pair is (relayA, relayC): relayD is read as sent.
	res, err = readResults(bufio.NewReader(strings.NewReader("pair relayA relayB 1\nfail relayA relayD\nend\n")), goldenNames, NewShard(0, 0, 0, 2), nil)
	if err != nil || res[1].Y != "relayD" {
		t.Fatalf("read %+v, %v", res, err)
	}
}

// TestReadResultsAllocs: parsing a canonical completion body into a buffer
// of its size allocates the same — nothing — whatever its pair count.
func TestReadResultsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	names := fakeNames(64)
	for _, sh := range []Shard{NewShard(0, 0, 0, 2), NewShard(0, 0, 0, 2016)} {
		results := fullResults(t, sh, names)
		for k := range results {
			results[k].RTT = 1 + float64(k)/7
		}
		results[1] = PairResult{X: results[1].X, Y: results[1].Y, Failed: true}
		var wire bytes.Buffer
		bw := bufio.NewWriter(&wire)
		writeResults(bw, results)
		bw.Flush()
		body := wire.String()
		br, r := bufio.NewReader(nil), strings.NewReader(body)
		buf := make([]PairResult, 0, len(results))
		allocs := testing.AllocsPerRun(20, func() {
			r.Reset(body)
			br.Reset(r)
			if _, err := readResults(br, names, sh, buf); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%.1f allocations for a %d-pair body, want 0", allocs, len(results))
		}
	}
}

// withinBounds reports whether readResults with limit may refuse nothing
// that the reference accepts in doc: every line up to and including "end"
// fits a default-size reader's buffer, and there are at most limit results.
func withinBounds(doc []byte, limit int, results int) bool {
	if results > limit {
		return false
	}
	for len(doc) > 0 {
		i := bytes.IndexByte(doc, '\n')
		if i < 0 || i+1 > 4096 {
			return false
		}
		if f := strings.Fields(string(doc[:i])); len(f) == 1 && f[0] == "end" {
			return true
		}
		doc = doc[i+1:]
	}
	return false
}

// FuzzReadResults: on any body readResults never panics; whatever it
// accepts, the reference parser accepts with the same results; whatever the
// reference accepts within the bounds, readResults accepts; and a body
// writeResults writes reads back bit for bit.
func FuzzReadResults(f *testing.F) {
	f.Add([]byte(strings.SplitAfterN(goldenCompletion, "\n", 2)[1]), uint16(5))
	f.Add([]byte("end\n"), uint16(0))
	f.Add([]byte(""), uint16(3))
	f.Add([]byte("pair a b 1\npair a c 2\nend\n"), uint16(1))
	f.Add([]byte("pair a b "+strings.Repeat("9", 5000)+"\nend\n"), uint16(1))
	f.Add([]byte("pair a b 1\nfail\ta\vb\r\n end \n"), uint16(2))
	f.Add([]byte("pair a b 1 \nfail a \xff\nend"), uint16(2))
	f.Add([]byte("pair a b x\nend\n"), uint16(1))
	f.Add([]byte("fail a b c\nend\n"), uint16(1))
	f.Add([]byte("end\ngarbage"), uint16(1))
	f.Add([]byte("pair a b NaN\npair a c -0\npair a d +Inf\npair b c 0x1p-3\nend\n"), uint16(4))
	// A 2016-pair diagonal block, so every limit is a shard, whose first
	// pairs are the golden body's first three.
	names := append(slices.Clone(goldenNames), fakeNames(60)...)
	f.Fuzz(func(t *testing.T, doc []byte, limit uint16) {
		lim := max(1, int(limit%512))
		got, err := readResults(bufio.NewReader(bytes.NewReader(doc)), names, NewShard(0, 0, 0, lim), nil)
		want, werr := readResultsReference(bufio.NewReader(bytes.NewReader(doc)))
		if err == nil && (werr != nil || !sameResults(got, want)) {
			t.Fatalf("accepted %+v; the reference gave %+v, %v", got, want, werr)
		}
		if err != nil && werr == nil && withinBounds(doc, lim, len(want)) {
			t.Fatalf("refused a body the reference accepts within the bounds: %v", err)
		}

		// Round trip: results built from the input's bytes, every RTT bit
		// pattern included, come back from what writeResults wrote.
		var results []PairResult
		for i := 0; i+8 <= len(doc) && len(results) < 64; i += 8 {
			var bits uint64
			for _, b := range doc[i : i+8] {
				bits = bits<<8 | uint64(b)
			}
			r := PairResult{X: fmt.Sprint("relay", i), Y: fmt.Sprint("relay", i+1), RTT: math.Float64frombits(bits)}
			if doc[i]&1 == 1 {
				r = PairResult{X: r.X, Y: r.Y, Failed: true}
			}
			results = append(results, r)
		}
		var wire bytes.Buffer
		bw := bufio.NewWriter(&wire)
		writeResults(bw, results)
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		back, err := readResults(bufio.NewReader(&wire), names, NewShard(0, 0, 0, max(1, len(results))), nil)
		if err != nil || !sameResults(back, results) {
			t.Fatalf("wrote %+v, read back %+v, %v", results, back, err)
		}
	})
}

// peer serves every connection on a loopback listener with reply: it reads
// the request line, writes reply and closes, standing in for a coordinator
// that answers as no coordinator would.
func peer(t *testing.T, reply []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				bufio.NewReader(conn).ReadString('\n')
				conn.Write(reply) // fails once the client hangs up
			}()
		}
	}()
	return ln.Addr().String()
}

// TestFetchNamesRefusesBadCounts: a names header with a negative count is
// refused, not a panic; a count the reply does not deliver is refused with
// how many names came; and names are allocated as they arrive, not by the
// count the peer claims.
func TestFetchNamesRefusesBadCounts(t *testing.T) {
	if _, err := FetchNames(peer(t, []byte("names n=-1\n"))); err == nil || !strings.Contains(err.Error(), "bad names header") {
		t.Fatalf("negative count: %v", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := FetchNames(peer(t, []byte("names n=1048576\nrelayA\nrelayB\n")))
	runtime.ReadMemStats(&after)
	if err == nil || !IsTransient(err) || !strings.Contains(err.Error(), "after 2 of 1048576 names") {
		t.Fatalf("short reply: %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("a reply of two names allocated %d bytes", grew)
	}
	names, err := FetchNames(peer(t, []byte("names n=2\nrelayA\n relayB \n")))
	if err != nil || !slices.Equal(names, []string{"relayA", "relayB"}) {
		t.Fatalf("FetchNames = %q, %v", names, err)
	}
}

// TestReplyLinesBounded: a peer that streams 1 MiB without a newline costs
// every client call at most maxReplyLine bytes and an error, never a
// truncated line; a verdict that long but ended is read whole.
func TestReplyLinesBounded(t *testing.T) {
	addr := peer(t, bytes.Repeat([]byte{'x'}, 1<<20))
	lease := Lease{Shard: NewShard(0, 0, 0, 5), Epoch: 7, TTL: time.Second}
	calls := map[string]func() error{
		"names":     func() error { _, err := FetchNames(addr); return err },
		"acquire":   func() error { _, _, err := Acquire(addr, "w1"); return err },
		"heartbeat": func() error { return Heartbeat(addr, "w1", lease) },
		"complete":  func() error { return Complete(addr, "w1", lease, goldenResults) },
	}
	for op, call := range calls {
		if err := call(); err == nil || !IsTransient(err) || !strings.Contains(err.Error(), "reply line longer than 65536 bytes") {
			t.Errorf("%s against an endless line: %v", op, err)
		}
	}
	long := "error " + strings.Repeat("y", maxReplyLine-len("error \n"))
	err := Heartbeat(peer(t, []byte(long+"\n")), "w1", lease)
	if err == nil || IsTransient(err) || !strings.HasSuffix(err.Error(), strings.Repeat("y", 100)+`"`) {
		t.Fatalf("a %d-byte verdict: %v", len(long)+1, err)
	}
}

// TestLongestVerdictFits: the longest verdict a coordinator sends — a
// refused submission quoting a completion line's names beside two relay
// names of the longest length a campaign takes — reaches the worker as a
// verdict, not as an over-long line; a longer relay name is refused up
// front.
func TestLongestVerdictFits(t *testing.T) {
	names := make([]string, 4)
	for i := range names {
		names[i] = fmt.Sprintf("%d%s", i, strings.Repeat("n", maxName-1))
	}
	if _, err := NewCoordinator(append(names[:3:3], names[3]+"n"), []Shard{NewShard(0, 0, 0, 6)}, time.Second, nil); err == nil {
		t.Fatal("a relay name longer than a reply line fits was accepted")
	}
	c, err := NewCoordinator(names, []Shard{NewShard(0, 0, 0, 6)}, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := serveCoordinator(t, c)
	l, _, err := Acquire(addr, "w1")
	if err != nil {
		t.Fatal(err)
	}
	// A result line must fit the server's 4 KiB buffer, so the wrong names
	// are as long as two on one line can be.
	wrong := strings.Repeat("z", 2000)
	results := slices.Repeat([]PairResult{{X: wrong, Y: wrong + "z", RTT: 1}}, 6)
	err = Complete(addr, "w1", l, results)
	if err == nil || IsTransient(err) || !strings.Contains(err.Error(), names[1]) {
		t.Fatalf("refused submission: %v", err)
	}
	if n := len(err.Error()); n < 2*maxName {
		t.Fatalf("the verdict is %d bytes, want the two names it quotes", n)
	}
}

// TestNewCoordinatorRefusesWhiteSpaceNames: a completion line's fields are
// split on white space, so a relay name holding any — a space, a tab, a
// newline — would make every submission of a shard touching it refused, and
// the shard re-granted forever. NewCoordinator refuses such a name up front.
func TestNewCoordinatorRefusesWhiteSpaceNames(t *testing.T) {
	for _, bad := range []string{"a b", "a\tb", "a\nb", " a", "a\u00a0b"} {
		names := []string{"r0", "r1", bad, "r3"}
		if _, err := NewCoordinator(names, Partition(len(names), 2), time.Second, nil); err == nil {
			t.Errorf("relay name %q accepted", bad)
		}
	}
	if _, err := NewCoordinator([]string{"r0", "r1", "a-b", "r3"}, Partition(4, 2), time.Second, nil); err != nil {
		t.Fatalf("plain names refused: %v", err)
	}
}

// TestConcurrentCompletes: workers completing their shards at once through
// one CAMP server share its pooled completion buffers, and each submission
// still lands in the ledger whole.
func TestConcurrentCompletes(t *testing.T) {
	names := fakeNames(70)
	index := map[string]int{}
	for i, n := range names {
		index[n] = i
	}
	rtt := func(x, y string) float64 { return float64(index[x]*1000+index[y]) / 7 }
	c, err := NewCoordinator(names, Partition(len(names), 24), time.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := serveCoordinator(t, c)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker := fmt.Sprint("w", w)
			for {
				l, res, err := Acquire(addr, worker)
				if err != nil || res != AcquireGranted {
					if err != nil {
						t.Error(err)
					}
					return
				}
				pairs, err := l.Shard.Pairs(names)
				if err != nil {
					t.Error(err)
					return
				}
				results := make([]PairResult, len(pairs))
				for k, p := range pairs {
					results[k] = PairResult{X: p[0], Y: p[1], RTT: rtt(p[0], p[1])}
				}
				if err := Complete(addr, worker, l, results); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	m, err := c.Merged()
	if err != nil {
		t.Fatal(err)
	}
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			if got, want := m.At(i, j), rtt(names[i], names[j]); got != want || m.ProvAt(i, j) != ting.ProvFresh {
				t.Fatalf("merged (%d,%d) = %v %v, want %v fresh", i, j, got, m.ProvAt(i, j), want)
			}
		}
	}
}
