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
	"testing"
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
	res, err := readResults(body, len(goldenResults))
	if err != nil || !sameResults(res, goldenResults) {
		t.Fatalf("read back %+v, %v", res, err)
	}
}

// TestReadResultsBounds: a body is refused once it has more result lines
// than the shard has pairs, or a line longer than the reader's buffer; and
// reading a line allocates its two names and nothing else.
func TestReadResultsBounds(t *testing.T) {
	body := "pair relayA relayB 1\nfail relayA relayC\nend\n"
	if _, err := readResults(bufio.NewReader(strings.NewReader(body)), 1); err == nil || !strings.Contains(err.Error(), "more than the shard's 1 pairs") {
		t.Fatalf("two results for a one-pair shard: %v", err)
	}
	long := "pair a b " + strings.Repeat("1", 64) + "\nend\n"
	if _, err := readResults(bufio.NewReaderSize(strings.NewReader(long), 32), 1); err == nil || !strings.Contains(err.Error(), "longer than 32 bytes") {
		t.Fatalf("line over the buffer: %v", err)
	}
	res, err := readResults(bufio.NewReader(strings.NewReader(body)), 2)
	if err != nil || len(res) != 2 {
		t.Fatalf("read %+v, %v", res, err)
	}
	if res[0].X != "relayA" || res[1].Y != "relayC" || !res[1].Failed || res[0].RTT != 1 {
		t.Fatalf("read %+v", res)
	}
	if raceEnabled {
		return // the race detector's instrumentation allocates
	}
	br := bufio.NewReader(nil)
	r := strings.NewReader(body)
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(body)
		br.Reset(r)
		readResults(br, 2)
	})
	// The result slice and four names: splitting a line allocates nothing.
	if allocs > 5 {
		t.Errorf("%.0f allocations for a two-line body, want ≤ 5", allocs)
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
	f.Fuzz(func(t *testing.T, doc []byte, limit uint16) {
		lim := int(limit % 512)
		got, err := readResults(bufio.NewReader(bytes.NewReader(doc)), lim)
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
		back, err := readResults(bufio.NewReader(&wire), len(results))
		if err != nil || !sameResults(back, results) {
			t.Fatalf("wrote %+v, read back %+v, %v", results, back, err)
		}
	})
}
