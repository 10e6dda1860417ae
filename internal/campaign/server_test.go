package campaign

import (
	"bufio"
	"bytes"
	"encoding/binary"
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

	"ting/internal/ting"
)

// readValuesReference is a plain parse of a completion body: ReadString,
// each line trimmed and read as "end", "fail" or a finite strconv float,
// with no limit on a line's length or on the number of lines.
// FuzzReadResults holds readValues to it.
func readValuesReference(br *bufio.Reader) (rtts []float64, failed []int, err error) {
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return nil, nil, errors.New("truncated completion body")
		}
		switch v := strings.TrimSpace(line); v {
		case "end":
			return rtts, failed, nil
		case "fail":
			failed = append(failed, len(rtts))
			rtts = append(rtts, 0)
		default:
			rtt, err := strconv.ParseFloat(v, 64)
			if err != nil || math.IsNaN(rtt) || math.IsInf(rtt, 0) {
				return nil, nil, fmt.Errorf("bad completion line %q", v)
			}
			rtts = append(rtts, rtt)
		}
	}
}

// goldenRTTs and goldenFailed are the submission the golden completion body
// carries for the five pairs of shard t0-0.p0-5: RTTs of zero, the smallest
// subnormal, one third and 1e21, and a failed pair.
var (
	goldenRTTs   = []float64{0, math.SmallestNonzeroFloat64, 0, 1.0 / 3, 1e21}
	goldenFailed = []int{2}
)

// goldenCompletion is what a worker sends for goldenRTTs and goldenFailed:
// a line per pair by position, its RTT as FormatFloat writes it or "fail".
const goldenCompletion = "CAMP complete w1 t0-0.p0-5 7\n" +
	"0\n" +
	"5e-324\n" +
	"fail\n" +
	"0.3333333333333333\n" +
	"1e+21\n" +
	"end\n"

// sameValues reports whether a body read as (rtts, failed) is (wantRTTs,
// wantFailed) bit for bit.
func sameValues(rtts []float64, failed []int, wantRTTs []float64, wantFailed []int) bool {
	return slices.Equal(failed, wantFailed) && slices.EqualFunc(rtts, wantRTTs, func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b)
	})
}

// body writes rtts and failed as a completion body.
func body(rtts []float64, failed []int) string {
	var wire strings.Builder
	bw := bufio.NewWriter(&wire)
	writeValues(bw, rtts, failed)
	bw.Flush()
	return wire.String()
}

// TestCompleteWireGolden pins the bytes a worker's completion puts on the
// wire, and reads them back through the server's parser bit for bit.
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
	if err := submit(ln.Addr().String(), "w1", lease, goldenRTTs, goldenFailed); err != nil {
		t.Fatal(err)
	}
	sent := <-got
	if sent != goldenCompletion {
		t.Fatalf("the completion sent\n%s\nwant\n%s", sent, goldenCompletion)
	}
	body := bufio.NewReader(strings.NewReader(strings.SplitAfterN(sent, "\n", 2)[1]))
	rtts, failed, err := readValues(body, lease.Shard, nil, nil)
	if err != nil || !sameValues(rtts, failed, goldenRTTs, goldenFailed) {
		t.Fatalf("read back %v %v, %v", rtts, failed, err)
	}
}

// TestReadResultsBounds: the completion body reader refuses, each with a
// message saying why, a body with more lines than the shard has pairs, a
// line longer than the reader's buffer, a value that is not finite, and a
// line of the named form, which it never reads as a value; surrounding
// white space is ignored.
func TestReadResultsBounds(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		pairs, buf int
		want       string // the refusal, or "" when the body is accepted
	}{
		{"a value and a fail", "1.5\nfail\nend\n", 2, 4096, ""},
		{"white space", " 1.5\t\r\n\vfail \n end\n", 2, 4096, ""},
		{"more lines than pairs", "1\nfail\nend\n", 1, 4096, "more than the shard's 1 pairs"},
		{"a line over the buffer", strings.Repeat("1", 64) + "\nend\n", 1, 32, "longer than 32 bytes"},
		{"truncated", "1\n", 2, 4096, "truncated completion body"},
		{"NaN", "1\nNaN\nend\n", 2, 4096, `"NaN" at position 1 is not finite`},
		{"+Inf", "+Inf\nend\n", 1, 4096, `"+Inf" at position 0 is not finite`},
		{"-Inf", "-Inf\nend\n", 1, 4096, "not finite"},
		{"infinity", "infinity\nend\n", 1, 4096, "not finite"},
		{"out of range", "1e999\nend\n", 1, 4096, `bad completion line "1e999"`},
		{"not a number", "x\nend\n", 1, 4096, `bad completion line "x"`},
		{"named pair line", "pair relayA relayB 1\nend\n", 1, 4096, `completion line "pair relayA relayB 1" is in the named form`},
		{"named fail line", "1\nfail relayA relayC\nend\n", 2, 4096, `completion line "fail relayA relayC" is in the named form`},
		{"named line, tab-separated", "pair\trelayA\trelayB\t1\nend\n", 1, 4096, "in the named form"},
	} {
		br := bufio.NewReaderSize(strings.NewReader(tc.body), tc.buf)
		rtts, failed, err := readValues(br, NewShard(0, 0, 0, tc.pairs), nil, nil)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want == "" && !sameValues(rtts, failed, []float64{1.5, 0}, []int{1}):
			t.Errorf("%s: read %v %v", tc.name, rtts, failed)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: %v, want a refusal saying %q", tc.name, err, tc.want)
		}
	}
}

// TestReadResultsAllocs: reading a canonical completion body into buffers
// of its size allocates nothing, whatever its pair count.
func TestReadResultsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, sh := range []Shard{NewShard(0, 0, 0, 2), NewShard(0, 0, 0, 2016)} {
		rtts := make([]float64, sh.PairCount())
		for k := range rtts {
			rtts[k] = 1 + float64(k)/7
		}
		rtts[1] = 0
		failed := []int{1}
		body := body(rtts, failed)
		br, r := bufio.NewReader(nil), strings.NewReader(body)
		gotRTTs, gotFailed := make([]float64, 0, len(rtts)), make([]int, 0, len(failed))
		allocs := testing.AllocsPerRun(20, func() {
			r.Reset(body)
			br.Reset(r)
			if _, _, err := readValues(br, sh, gotRTTs, gotFailed); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%.1f allocations for a %d-pair body, want 0", allocs, len(rtts))
		}
	}
}

// withinBounds reports whether readValues may refuse nothing that the
// reference accepts in doc for a shard of limit pairs: every line up to and
// including "end" fits a default-size reader's buffer, and there are at
// most limit values.
func withinBounds(doc []byte, limit int, values int) bool {
	if values > limit {
		return false
	}
	for len(doc) > 0 {
		i := bytes.IndexByte(doc, '\n')
		if i < 0 || i+1 > 4096 {
			return false
		}
		if string(bytes.TrimSpace(doc[:i])) == "end" {
			return true
		}
		doc = doc[i+1:]
	}
	return false
}

// FuzzReadResults: on any completion body readValues never panics and
// holds at most a value and a failed position per shard pair; whatever it
// accepts, the reference parser accepts with the same values; whatever the
// reference accepts within the bounds, readValues accepts; a body of any
// finite float64 bit patterns writeValues writes reads back bit for bit,
// and one holding a NaN or an infinity is refused. The named lines of the
// older body are seeds, each of which must be refused.
func FuzzReadResults(f *testing.F) {
	f.Add([]byte(strings.SplitAfterN(goldenCompletion, "\n", 2)[1]), uint16(5))
	f.Add([]byte("end\n"), uint16(0))
	f.Add([]byte(""), uint16(3))
	f.Add([]byte("1\n2\nend\n"), uint16(1))
	f.Add([]byte(strings.Repeat("9", 5000)+"\nend\n"), uint16(1))
	f.Add([]byte("1\nfail\t\v\r\n end \n"), uint16(2))
	f.Add([]byte("1 \n\xff\nend"), uint16(2))
	f.Add([]byte("pair a b 1\npair a c 2\nend\n"), uint16(2))
	f.Add([]byte("fail a b\nend\n"), uint16(1))
	f.Add([]byte("end\ngarbage"), uint16(1))
	f.Add([]byte("NaN\n-0\n+Inf\n0x1p-3\nend\n"), uint16(4))
	f.Fuzz(func(t *testing.T, doc []byte, limit uint16) {
		lim := max(1, int(limit%512))
		rtts, failed, err := readValues(bufio.NewReader(bytes.NewReader(doc)), NewShard(0, 0, 0, lim), nil, nil)
		if len(rtts) > lim || len(failed) > len(rtts) {
			t.Fatalf("a %d-pair shard's body read into %d values and %d failed positions", lim, len(rtts), len(failed))
		}
		wantRTTs, wantFailed, werr := readValuesReference(bufio.NewReader(bytes.NewReader(doc)))
		if err == nil && (werr != nil || !sameValues(rtts, failed, wantRTTs, wantFailed)) {
			t.Fatalf("accepted %v %v; the reference gave %v %v, %v", rtts, failed, wantRTTs, wantFailed, werr)
		}
		if err != nil && werr == nil && withinBounds(doc, lim, len(wantRTTs)) {
			t.Fatalf("refused a body the reference accepts within the bounds: %v", err)
		}

		// Round trip: values built from the input's bytes, every bit
		// pattern included; a non-finite one is refused, not read.
		var vals []float64
		var fails []int
		for i := 0; i+8 <= len(doc) && len(vals) < 64; i += 8 {
			v := math.Float64frombits(binary.BigEndian.Uint64(doc[i:]))
			if doc[i]&1 == 1 {
				fails, v = append(fails, len(vals)), 0
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				one := body([]float64{v}, nil)
				if _, _, err := readValues(bufio.NewReader(strings.NewReader(one)), NewShard(0, 0, 0, 1), nil, nil); err == nil || !strings.Contains(err.Error(), "not finite") {
					t.Fatalf("read %q back: %v, want it refused as not finite", one, err)
				}
				continue
			}
			vals = append(vals, v)
		}
		back, backFailed, err := readValues(bufio.NewReader(strings.NewReader(body(vals, fails))), NewShard(0, 0, 0, max(1, len(vals))), nil, nil)
		if err != nil || !sameValues(back, backFailed, vals, fails) {
			t.Fatalf("wrote %v %v, read back %v %v, %v", vals, fails, back, backFailed, err)
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
		"complete":  func() error { return Complete(addr, "w1", lease, []PairResult{{X: "relayA", Y: "relayB", RTT: 1}}) },
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
// refused completion line as long as the server's 4 KiB buffer reads, each
// of its bytes one that %q quadruples — reaches the worker as a verdict,
// not as an over-long line; a relay name of the longest length a campaign
// takes reaches the worker in a names reply, and a longer one is refused up
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
	if got, err := FetchNames(addr); err != nil || !slices.Equal(got, names) {
		t.Fatalf("names reply of the longest names: %d names, %v", len(got), err)
	}
	l, _, err := Acquire(addr, "w1")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	line := strings.Repeat("\x01", 4096-len("\n"))
	fmt.Fprintf(conn, "%s complete w1 %s %d\n%s\n", Verb, l.Shard.ID, l.Epoch, line)
	err = readVerdict(conn, "complete")
	if err == nil || IsTransient(err) || !strings.Contains(err.Error(), "bad completion line") {
		t.Fatalf("refused submission: %.200v", err)
	}
	if n := len(err.Error()); n < 4*len(line) {
		t.Fatalf("the verdict is %d bytes, want the line it quotes", n)
	}
}

// TestNewCoordinatorRefusesWhiteSpaceNames: a names reply carries each
// relay name as one trimmed line, so a relay name holding white space — a
// space, a tab, a newline — could reach a worker as another name, or as
// two. NewCoordinator refuses such a name up front.
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
