package directory

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unicode"

	"ting/internal/onion"
)

func testDesc(t *testing.T, name string, exit bool, bw float64) *Descriptor {
	t.Helper()
	id, err := onion.NewIdentity(rand.New(rand.NewSource(int64(len(name)) + int64(name[len(name)-1]))))
	if err != nil {
		t.Fatal(err)
	}
	return &Descriptor{
		Nickname:      name,
		Addr:          "addr-" + name,
		OnionKey:      id.Public(),
		BandwidthKBps: bw,
		Exit:          exit,
	}
}

func TestDescriptorValidate(t *testing.T) {
	good := testDesc(t, "r1", true, 100)
	if err := good.Validate(); err != nil {
		t.Errorf("valid descriptor rejected: %v", err)
	}
	bad := []*Descriptor{
		{},
		{Nickname: "has space", Addr: "a", OnionKey: good.OnionKey},
		{Nickname: "r", Addr: "", OnionKey: good.OnionKey},
		{Nickname: "r", Addr: "a b", OnionKey: good.OnionKey},
		{Nickname: "r", Addr: "a"},
		{Nickname: "r", Addr: "a", OnionKey: good.OnionKey, BandwidthKBps: -1},
		{Nickname: "nb\u00a0sp", Addr: "a", OnionKey: good.OnionKey}, // unicode space
		{Nickname: "r", Addr: "a\u2028b", OnionKey: good.OnionKey},   // line separator
		{Nickname: "a,b", Addr: "a", OnionKey: good.OnionKey},        // EXTENDCIRCUIT and half-circuit keys join hops with ','
		{Nickname: "a#200", Addr: "a", OnionKey: good.OnionKey},      // half-circuit keys end in '#samples'
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("bad descriptor %d accepted", i)
		}
	}
}

func TestLineRoundTrip(t *testing.T) {
	for _, exit := range []bool{true, false} {
		d := testDesc(t, "roundtrip", exit, 1234.5)
		got, err := ParseLine(d.Line())
		if err != nil {
			t.Fatal(err)
		}
		if *got != *d {
			t.Errorf("round trip: %+v vs %+v", got, d)
		}
	}
}

func TestParseLineErrors(t *testing.T) {
	bad := []string{
		"",
		"relay",
		"notrelay a b c d e",
		"relay nick addr nothex 100 exit",
		"relay nick addr abcd 100 exit", // short key
		"relay nick addr " + strings.Repeat("ab", 32) + " NaNNaN exit",
		"relay nick addr " + strings.Repeat("ab", 32) + " 100 maybe",
		"relay nick addr " + strings.Repeat("00", 32) + " 100 exit", // zero key
	}
	for _, line := range bad {
		if _, err := ParseLine(line); err == nil {
			t.Errorf("ParseLine(%q) succeeded", line)
		}
	}
}

func TestRegistryPublishLookup(t *testing.T) {
	reg := NewRegistry()
	d1 := testDesc(t, "alpha", true, 100)
	d2 := testDesc(t, "beta", false, 200)
	hidden := testDesc(t, "w-local", false, 50)
	if err := reg.Publish(d1); err != nil {
		t.Fatal(err)
	}
	if err := reg.Publish(d2); err != nil {
		t.Fatal(err)
	}
	if err := reg.AddUnpublished(hidden); err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 2 {
		t.Errorf("Len = %d, want 2 (unpublished excluded)", reg.Len())
	}
	if _, ok := reg.Lookup("w-local"); !ok {
		t.Error("unpublished descriptor not found by Lookup")
	}
	if _, ok := reg.Lookup("ghost"); ok {
		t.Error("ghost found")
	}
	cons := reg.Consensus()
	if len(cons) != 2 || cons[0].Nickname != "alpha" || cons[1].Nickname != "beta" {
		t.Errorf("consensus = %v", cons)
	}
	if err := reg.Publish(d1); err == nil {
		t.Error("duplicate publish accepted")
	}
	// Mutating the returned copy must not affect the registry.
	cons[0].Addr = "mutated"
	if d, _ := reg.Lookup("alpha"); d.Addr == "mutated" {
		t.Error("Consensus returned aliased descriptors")
	}
}

func TestConsensusEncodeDecode(t *testing.T) {
	reg := NewRegistry()
	for i, name := range []string{"r1", "r2", "r3"} {
		if err := reg.Publish(testDesc(t, name, i%2 == 0, float64(100*(i+1)))); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := reg.EncodeConsensus(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeConsensus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Fatalf("decoded %d relays", got.Len())
	}
	for _, want := range reg.Consensus() {
		d, ok := got.Lookup(want.Nickname)
		if !ok || *d != *want {
			t.Errorf("relay %s not preserved: %+v", want.Nickname, d)
		}
	}
}

func TestDecodeConsensusErrors(t *testing.T) {
	cases := []string{
		"",
		"bogus header\n",
		"consensus relays=2 epoch=2\nrelay broken\nend\n",
		"consensus relays=5 epoch=5\nend\n", // count mismatch
		"consensus relays=0 epoch=0\n",      // truncated, no end
		"consensus relays=0\nend\n",         // no epoch
	}
	for _, in := range cases {
		if _, err := DecodeConsensus(strings.NewReader(in)); err == nil {
			t.Errorf("DecodeConsensus(%q) succeeded", in)
		}
	}
}

// TestDecodeConsensusHeldToHeader: a document whose header declares 2
// relays and then streams 50 000 relay lines with no end is refused at the
// first line past the count, having read a few KiB of the 5 MB it sent,
// not after publishing every line.
func TestDecodeConsensusHeldToHeader(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("consensus relays=2 epoch=1\n")
	key := strings.Repeat("ab", 32)
	for i := 0; i < 50000; i++ {
		fmt.Fprintf(&sb, "relay r%d 10.0.%d.%d:9001 %s 1.0 exit\n", i, i/256%256, i%256, key)
	}
	doc := strings.NewReader(sb.String())
	_, err := DecodeConsensus(doc)
	if err == nil || !strings.Contains(err.Error(), "header says 2 relays") {
		t.Errorf("DecodeConsensus = %v, want the header's count of 2 named", err)
	}
	if read := doc.Size() - int64(doc.Len()); read > 64<<10 {
		t.Errorf("DecodeConsensus read %d of %d bytes before refusing, want under 64 KiB", read, doc.Size())
	}
}

func TestServerFetch(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Publish(testDesc(t, "served", true, 500)); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg)
	go srv.Serve(ln)
	defer srv.Close()

	got, err := Fetch(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("fetched %d relays", got.Len())
	}
	if _, ok := got.Lookup("served"); !ok {
		t.Error("served relay missing")
	}

	// Unknown requests get an error line, not a consensus.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("DELETE everything\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, _ := conn.Read(buf)
	if !strings.HasPrefix(string(buf[:n]), "error") {
		t.Errorf("unknown request answered with %q", buf[:n])
	}
}

// TestServerConnectionLimit: with both of two slots held by idle
// connections, a third connection's request gets no reply; once one of the
// held connections closes, it is answered.
func TestServerConnectionLimit(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(NewRegistry())
	srv.limit = 2
	go srv.Serve(ln)
	defer srv.Close()
	dial := func() net.Conn {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}
	held := []net.Conn{dial(), dial()}

	third := dial()
	if _, err := third.Write([]byte("GET consensus\n")); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(third)
	third.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	if line, err := br.ReadString('\n'); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("third connection answered with both slots held: %q, %v", line, err)
	}
	held[0].Close()
	third.SetReadDeadline(time.Now().Add(5 * time.Second))
	if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, "consensus") {
		t.Fatalf("third connection after a slot freed: %q, %v", line, err)
	}
}

func TestFetchErrors(t *testing.T) {
	if _, err := Fetch("127.0.0.1:1"); err == nil {
		t.Error("fetch from dead address should fail")
	}
}

func TestLineRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func(nickRaw, addrRaw string, bwRaw float64, exit bool) bool {
		// Validate refuses a nickname holding the half-circuit key's
		// separators, so the generator must not produce one.
		nick := sanitizeToken(strings.NewReplacer(",", "", "#", "").Replace(nickRaw), "nick")
		addr := sanitizeToken(addrRaw, "addr")
		id, err := onion.NewIdentity(rng)
		if err != nil {
			return false
		}
		bw := math.Abs(bwRaw)
		if math.IsNaN(bw) || math.IsInf(bw, 0) || bw > 1e12 {
			bw = 100
		}
		// Line() prints bandwidth at one decimal; round to match.
		bw = math.Round(bw*10) / 10
		d := &Descriptor{Nickname: nick, Addr: addr, OnionKey: id.Public(), BandwidthKBps: bw, Exit: exit}
		got, err := ParseLine(d.Line())
		if err != nil {
			return false
		}
		// Bandwidth survives one trip through "%.1f" with only float
		// round-off; everything else must be exact.
		bwClose := math.Abs(got.BandwidthKBps-d.BandwidthKBps) <= 1e-9*(1+math.Abs(d.BandwidthKBps))
		return got.Nickname == d.Nickname && got.Addr == d.Addr &&
			got.OnionKey == d.OnionKey && got.Exit == d.Exit && bwClose
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// sanitizeToken maps arbitrary strings to valid whitespace-free nonempty
// tokens, preserving enough variety for the property to be meaningful.
func sanitizeToken(s, fallback string) string {
	var b []rune
	for _, r := range s {
		if r > ' ' && r != 0x7f && !unicode.IsSpace(r) {
			b = append(b, r)
		}
	}
	if len(b) == 0 {
		return fallback
	}
	return string(b)
}
