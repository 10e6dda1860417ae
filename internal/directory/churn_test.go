package directory

import (
	"bufio"
	"bytes"
	"context"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"ting/internal/onion"
)

func TestEpochAdvancesPerPublicMutation(t *testing.T) {
	reg := NewRegistry()
	if reg.Epoch() != 0 {
		t.Fatalf("fresh registry epoch = %d", reg.Epoch())
	}
	if err := reg.Publish(testDesc(t, "a", true, 100)); err != nil {
		t.Fatal(err)
	}
	if err := reg.AddUnpublished(testDesc(t, "w", false, 10)); err != nil {
		t.Fatal(err)
	}
	if got := reg.Epoch(); got != 1 {
		t.Errorf("epoch after publish+unpublished = %d, want 1 (unpublished is epoch-invisible)", got)
	}
	if !reg.Remove("a") {
		t.Fatal("Remove(a) = false")
	}
	if got := reg.Epoch(); got != 2 {
		t.Errorf("epoch after remove = %d, want 2", got)
	}
	// Removing the unpublished relay and a ghost must not move the epoch.
	if !reg.Remove("w") {
		t.Error("Remove(w) = false")
	}
	if reg.Remove("ghost") {
		t.Error("Remove(ghost) = true")
	}
	if got := reg.Epoch(); got != 2 {
		t.Errorf("epoch after silent removes = %d, want 2", got)
	}
}

func TestUpdateRotationBumpsGeneration(t *testing.T) {
	reg := NewRegistry()
	d := testDesc(t, "r", true, 100)
	if err := reg.Publish(d); err != nil {
		t.Fatal(err)
	}
	// Same key: an update, not a rotation.
	same := *d
	same.BandwidthKBps = 200
	if err := reg.Update(&same); err != nil {
		t.Fatal(err)
	}
	got, _ := reg.Lookup("r")
	if got.Generation != 0 {
		t.Errorf("same-key update bumped generation to %d", got.Generation)
	}
	if got.BandwidthKBps != 200 {
		t.Errorf("update lost bandwidth change: %v", got.BandwidthKBps)
	}
	// New key: a rotation.
	rot := *d
	id, err := onion.NewIdentity(rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	rot.OnionKey = id.Public()
	if err := reg.Update(&rot); err != nil {
		t.Fatal(err)
	}
	got, _ = reg.Lookup("r")
	if got.Generation != 1 {
		t.Errorf("rotation generation = %d, want 1", got.Generation)
	}
	if got.Fingerprint() == d.Fingerprint() {
		t.Error("fingerprint unchanged across rotation")
	}
	if err := reg.Update(testDesc(t, "ghost", false, 1)); err == nil {
		t.Error("Update of unknown relay succeeded")
	}
	if got := reg.Epoch(); got != 3 {
		t.Errorf("epoch = %d, want 3 (publish + 2 updates)", got)
	}
}

func TestDeltasSinceAndResync(t *testing.T) {
	reg := NewRegistry()
	for _, name := range []string{"a", "b", "c"} {
		if err := reg.Publish(testDesc(t, name, false, 100)); err != nil {
			t.Fatal(err)
		}
	}
	reg.Remove("b")
	deltas, ok := reg.DeltasSince(0)
	if !ok || len(deltas) != 4 {
		t.Fatalf("DeltasSince(0) = %d deltas, ok=%v", len(deltas), ok)
	}
	for i, d := range deltas {
		if d.Epoch != uint64(i+1) {
			t.Errorf("delta %d epoch = %d", i, d.Epoch)
		}
	}
	if deltas[3].Kind != DeltaLeave || deltas[3].Name != "b" || deltas[3].Desc != nil {
		t.Errorf("leave delta = %+v", deltas[3])
	}
	if deltas[0].Kind != DeltaJoin || deltas[0].Desc == nil {
		t.Errorf("join delta = %+v", deltas[0])
	}
	// Up to date: empty and ok.
	if d, ok := reg.DeltasSince(4); !ok || len(d) != 0 {
		t.Errorf("DeltasSince(current) = %v, ok=%v", d, ok)
	}
	// A mirror can replay the deltas and converge.
	mirror := NewRegistry()
	for _, d := range deltas {
		if err := mirror.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
	}
	if mirror.Epoch() != reg.Epoch() || mirror.Len() != reg.Len() {
		t.Errorf("mirror epoch=%d len=%d, origin epoch=%d len=%d",
			mirror.Epoch(), mirror.Len(), reg.Epoch(), reg.Len())
	}
	if _, ok := mirror.Lookup("b"); ok {
		t.Error("mirror still has removed relay b")
	}
}

func TestDeltaLogBounded(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Publish(testDesc(t, "seed", false, 1)); err != nil {
		t.Fatal(err)
	}
	// Blow past the history bound with churn on a second relay.
	for i := 0; i < maxDeltaLog+10; i += 2 {
		if err := reg.Publish(testDesc(t, "flappy", false, 1)); err != nil {
			t.Fatal(err)
		}
		reg.Remove("flappy")
	}
	if _, ok := reg.DeltasSince(0); ok {
		t.Error("DeltasSince(0) claims coverage past the bounded history")
	}
	if _, ok := reg.DeltasSince(reg.Epoch() - 5); !ok {
		t.Error("recent span not covered")
	}
}

// collect reads reg's history by cursor from since until it holds n deltas,
// the way a consumer follows a registry: each Wait resumes from the last
// epoch it was handed.
func collect(t *testing.T, reg *Registry, since uint64, n int) []ConsensusDelta {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var got []ConsensusDelta
	for len(got) < n {
		deltas, ok := reg.Wait(ctx, since)
		if !ok {
			t.Fatalf("history no longer reaches epoch %d", since)
		}
		if len(deltas) == 0 {
			t.Fatalf("timed out after %d of %d deltas", len(got), n)
		}
		got = append(got, deltas...)
		since = deltas[len(deltas)-1].Epoch
	}
	return got
}

func TestWatchDeliversInOrder(t *testing.T) {
	reg := NewRegistry()
	go func() {
		for _, name := range []string{"a", "b", "c"} {
			_ = reg.Publish(testDesc(t, name, false, 100))
		}
		reg.Remove("a")
	}()

	got := collect(t, reg, 0, 4)
	for i, d := range got {
		if d.Epoch != uint64(i+1) {
			t.Errorf("delta %d arrived with epoch %d", i, d.Epoch)
		}
	}
	if len(got) != 4 || got[3].Kind != DeltaLeave || got[3].Name != "a" {
		t.Errorf("deltas = %+v", got)
	}

	// With nothing new, Wait blocks until its context ends, returns
	// promptly when it does, and leaves nothing behind: no goroutine was
	// started, so the count is what it was.
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if deltas, ok := reg.Wait(ctx, 4); len(deltas) != 0 || !ok {
			t.Errorf("cancelled Wait returned %+v, %v", deltas, ok)
		}
	}()
	select {
	case <-done:
		t.Fatal("Wait returned with nothing past its cursor")
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Wait still blocked after cancel")
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after a cancelled Wait, %d before", runtime.NumGoroutine(), before)
		}
	}

	// A cursor the bounded history no longer reaches is refused at once.
	for i := 0; i < maxDeltaLog; i++ {
		_ = reg.Publish(testDesc(t, "x", false, 100))
		reg.Remove("x")
	}
	if deltas, ok := reg.Wait(context.Background(), 4); ok || deltas != nil {
		t.Errorf("Wait from a trimmed-away epoch = %d deltas, %v; want none, false", len(deltas), ok)
	}
}

func TestConsensusHeaderEpochRoundTrip(t *testing.T) {
	reg := NewRegistry()
	for _, name := range []string{"a", "b"} {
		if err := reg.Publish(testDesc(t, name, false, 100)); err != nil {
			t.Fatal(err)
		}
	}
	reg.Remove("a")

	var sb strings.Builder
	if err := reg.EncodeConsensus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "consensus relays=1 epoch=3\n") {
		t.Fatalf("header = %q", strings.SplitN(sb.String(), "\n", 2)[0])
	}
	got, err := DecodeConsensus(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch() != 3 {
		t.Errorf("decoded epoch = %d, want 3", got.Epoch())
	}
	// A mirror decoded from a full document must resync, not replay the
	// synthetic joins it performed while decoding.
	if _, ok := got.DeltasSince(0); ok {
		t.Error("decoded mirror claims delta coverage from 0")
	}

	// A header without an epoch is not one any writer emits.
	if _, err := DecodeConsensus(strings.NewReader("consensus relays=0\nend\n")); err == nil || !strings.Contains(err.Error(), "bad header") {
		t.Fatalf("epoch-free header: err = %v, want bad header", err)
	}
}

func TestServerServesDeltasAndResync(t *testing.T) {
	reg := NewRegistry()
	for _, name := range []string{"a", "b"} {
		if err := reg.Publish(testDesc(t, name, true, 100)); err != nil {
			t.Fatal(err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg)
	go srv.Serve(ln)
	defer srv.Close()
	addr := ln.Addr().String()

	// A mirror at epoch 0 with full server history gets deltas.
	deltas, full, err := FetchDeltas(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if full != nil {
		t.Fatal("unexpected resync")
	}
	if len(deltas) != 2 || deltas[0].Name != "a" || deltas[1].Name != "b" {
		t.Fatalf("deltas = %+v", deltas)
	}

	// More churn, including a rotation.
	reg.Remove("a")
	rot, _ := reg.Lookup("b")
	id, err := onion.NewIdentity(rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	rot.OnionKey = id.Public()
	if err := reg.Update(rot); err != nil {
		t.Fatal(err)
	}
	deltas, full, err = FetchDeltas(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	if full != nil || len(deltas) != 2 {
		t.Fatalf("deltas = %+v, full = %v", deltas, full)
	}
	if deltas[0].Kind != DeltaLeave || deltas[0].Name != "a" {
		t.Errorf("delta[0] = %+v", deltas[0])
	}
	if deltas[1].Kind != DeltaRotate || deltas[1].Desc == nil || deltas[1].Desc.OnionKey != rot.OnionKey {
		t.Errorf("delta[1] = %+v", deltas[1])
	}

	// Force the history bound and confirm the resync path.
	reg.mu.Lock()
	reg.deltas = reg.deltas[len(reg.deltas)-1:]
	reg.logFrom = reg.deltas[0].Epoch - 1
	reg.mu.Unlock()
	deltas, full, err = FetchDeltas(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if deltas != nil || full == nil {
		t.Fatalf("expected resync, got deltas=%v full=%v", deltas, full)
	}
	if full.Epoch() != reg.Epoch() || full.Len() != reg.Len() {
		t.Errorf("resync consensus epoch=%d len=%d, origin epoch=%d len=%d",
			full.Epoch(), full.Len(), reg.Epoch(), reg.Len())
	}
}

// TestFetchTimeoutStalledServer pins the satellite fix: a peer that
// accepts and then says nothing cannot hang Fetch forever.
func TestFetchTimeoutStalledServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // accept and stall
		}
	}()
	start := time.Now()
	// Fetch's conversation, on a 100 ms bound instead of DefaultIOTimeout.
	conn, err := dialDirectory(ln.Addr().String(), 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := DecodeConsensus(conn); err == nil {
		t.Fatal("fetch from stalled server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("fetch took %v despite 100ms timeout", elapsed)
	}
}

// TestServerSlowLorisTimeout pins the server half: a client that connects
// and never finishes its request line is cut off by the conn deadline.
func TestServerSlowLorisTimeout(t *testing.T) {
	reg := NewRegistry()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg)
	srv.timeout = 100 * time.Millisecond
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET conse")); err != nil { // never the newline
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server answered a half-request")
	}
}

// TestServerRefusesOverlongRequestLine: a request line that outgrows the
// connection's read buffer is refused at once, not buffered until the
// conversation times out; one that fits is still read and answered.
func TestServerRefusesOverlongRequestLine(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(NewRegistry())
	go srv.Serve(ln)
	defer srv.Close()
	ask := func(req string) (string, error) {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte(req)); err != nil {
			return "", err
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		reply, err := bufio.NewReader(conn).ReadString('\n')
		return reply, err
	}
	// 4095 bytes and the newline fill the default 4096-byte buffer exactly.
	if reply, err := ask(strings.Repeat("x", 4095) + "\n"); err != nil || reply != "error unknown request\n" {
		t.Fatalf("request line at the bound: %q, %v", reply, err)
	}
	reply, err := ask(strings.Repeat("x", 5000))
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server kept reading an overlong request line")
	}
	if err == nil && !strings.HasPrefix(reply, "error request line longer than 4096 bytes") {
		t.Fatalf("overlong request line answered %q", reply)
	}
}

// TestFetchDeltasRefusesOverlongLine: a hostile directory server that
// answers a delta request with 1 MiB and no newline — as the header, or as
// a delta line after a valid header — is refused with the line bound
// named, having buffered about the bound, not the megabyte.
func TestFetchDeltasRefusesOverlongLine(t *testing.T) {
	junk := bytes.Repeat([]byte("x"), 1<<20)
	for _, prefix := range []string{"", "deltas from=0 to=1 count=1\n"} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			bufio.NewReader(conn).ReadString('\n')
			conn.Write([]byte(prefix))
			conn.Write(junk) // fails once the client hangs up
		}()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, _, err = FetchDeltas(ln.Addr().String(), 0)
		runtime.ReadMemStats(&after)
		ln.Close()
		if err == nil || !strings.Contains(err.Error(), "longer than 65536 bytes") {
			t.Errorf("prefix %q: FetchDeltas = %v, want the 65536-byte line bound named", prefix, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 512<<10 {
			t.Errorf("prefix %q: FetchDeltas allocated %d bytes on a 1 MiB line, want well under 1 MiB", prefix, grew)
		}
	}
}

// TestFetchDeltasHeldToHeader: a delta reply is held to its header's
// count: a delta past it, or an end before it, is refused with the count
// named, and a reply that keeps its count is accepted.
func TestFetchDeltasHeldToHeader(t *testing.T) {
	leave := "1 leave a\n"
	for _, tc := range []struct {
		reply string
		want  string // "" for accepted
	}{
		{"deltas from=0 to=1 count=1\n" + leave + "end\n", ""},
		{"deltas from=0 to=2 count=1\n" + leave + leave + "end\n", "header says 1 deltas, got more"},
		{"deltas from=0 to=2 count=2\n" + leave + "end\n", "header says 2 deltas, got 1"},
		{"deltas from=0 to=1\n" + leave + "end\n", "bad delta header"},
	} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			bufio.NewReader(conn).ReadString('\n')
			conn.Write([]byte(tc.reply))
		}()
		deltas, _, err := FetchDeltas(ln.Addr().String(), 0)
		ln.Close()
		switch {
		case tc.want == "" && (err != nil || len(deltas) != 1):
			t.Errorf("reply %q: %d deltas, %v; want 1 delta", tc.reply, len(deltas), err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("reply %q: %d deltas, %v; want an error saying %q", tc.reply, len(deltas), err, tc.want)
		}
	}
}

// TestReusedRequestReaderKeepsBound: connections borrow their request
// reader from a pool, and a reader that has served a short request still
// reads a request line of exactly 4096 bytes, its newline included, and
// still refuses a longer one. handle runs over an in-memory pipe, so the
// refusal is read whole, never lost to a reset.
func TestReusedRequestReaderKeepsBound(t *testing.T) {
	srv := NewServer(NewRegistry())
	ask := func(req string) string {
		client, server := net.Pipe()
		defer client.Close()
		go func() { client.Write([]byte(req)) }() // fails once handle hangs up
		go srv.handle(server)
		_ = client.SetReadDeadline(time.Now().Add(5 * time.Second))
		reply, err := bufio.NewReader(client).ReadString('\n')
		if err != nil {
			t.Fatalf("request of %d bytes: %v", len(req), err)
		}
		return reply
	}
	for round := 0; round < 4; round++ {
		if reply := ask("GET delta 0\n"); !strings.HasPrefix(reply, "deltas from=0") {
			t.Fatalf("round %d: short request answered %q", round, reply)
		}
		if reply := ask(strings.Repeat("x", 4095) + "\n"); reply != "error unknown request\n" {
			t.Fatalf("round %d: request line at the bound answered %q", round, reply)
		}
		if reply := ask(strings.Repeat("x", 4096) + "\n"); reply != "error request line longer than 4096 bytes\n" {
			t.Fatalf("round %d: request line past the bound answered %q", round, reply)
		}
	}
}

// TestMirrorFollowsOrigin polls a live directory server and checks that
// origin churn — join, leave, rotate — lands in the mirror with origin
// epochs, readable from the mirror's own history.
func TestMirrorFollowsOrigin(t *testing.T) {
	origin := NewRegistry()
	for _, name := range []string{"a", "b"} {
		if err := origin.Publish(testDesc(t, name, false, 100)); err != nil {
			t.Fatal(err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(origin)
	go srv.Serve(ln)
	defer srv.Close()
	addr := ln.Addr().String()

	mirror, err := Fetch(addr)
	if err != nil {
		t.Fatal(err)
	}
	if got := mirror.Epoch(); got != origin.Epoch() {
		t.Fatalf("mirror epoch = %d, origin %d", got, origin.Epoch())
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go Mirror(ctx, addr, mirror, 10*time.Millisecond, nil)

	if err := origin.Publish(testDesc(t, "c", false, 100)); err != nil {
		t.Fatal(err)
	}
	origin.Remove("a")
	rot := testDesc(t, "b", false, 100)
	id, err := onion.NewIdentity(rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	rot.OnionKey = id.Public()
	if err := origin.Update(rot); err != nil {
		t.Fatal(err)
	}

	want := []struct {
		kind DeltaKind
		name string
	}{{DeltaJoin, "c"}, {DeltaLeave, "a"}, {DeltaRotate, "b"}}
	for i, d := range collect(t, mirror, 2, len(want)) {
		w := want[i]
		if d.Kind != w.kind || d.Name != w.name {
			t.Fatalf("delta %d = (%v, %s), want (%v, %s)", i, d.Kind, d.Name, w.kind, w.name)
		}
		if d.Epoch != uint64(3+i) {
			t.Errorf("delta %d epoch = %d, want %d", i, d.Epoch, 3+i)
		}
	}
	if _, ok := mirror.Lookup("a"); ok {
		t.Error("mirror still lists the removed relay")
	}
	c, ok := mirror.Lookup("c")
	if !ok || c.Addr != "addr-c" {
		t.Errorf("mirror join = (%+v, %v)", c, ok)
	}
	b, _ := mirror.Lookup("b")
	if b.Fingerprint() != rot.Fingerprint() {
		t.Error("mirror missed the key rotation")
	}
	if got := mirror.Epoch(); got != origin.Epoch() {
		t.Errorf("mirror epoch = %d, origin %d", got, origin.Epoch())
	}
}

// TestResyncSynthesizesDeltas feeds a stale mirror a fresh consensus the
// delta log no longer reaches and checks the missed churn is synthesized:
// a leave for the dropped relay, a join for the newcomer, a rotate for
// the changed key — in strictly increasing epochs capped at the origin's.
func TestResyncSynthesizesDeltas(t *testing.T) {
	mirror := NewRegistry()
	for _, name := range []string{"a", "b", "c"} {
		if err := mirror.Publish(testDesc(t, name, false, 100)); err != nil {
			t.Fatal(err)
		}
	}
	// The fresh consensus dropped a, kept b with a new key, kept c
	// unchanged (same descriptor — key generation is not deterministic,
	// so reuse the mirror's), and gained d — pretend many epochs passed.
	fresh := NewRegistry()
	oldB, _ := mirror.Lookup("b")
	rot := *oldB
	id, err := onion.NewIdentity(rand.New(rand.NewSource(98)))
	if err != nil {
		t.Fatal(err)
	}
	rot.OnionKey = id.Public()
	sameC, _ := mirror.Lookup("c")
	for _, d := range []*Descriptor{&rot, sameC, testDesc(t, "d", false, 100)} {
		if err := fresh.Publish(d); err != nil {
			t.Fatal(err)
		}
	}
	fresh.mu.Lock()
	fresh.epoch = 40
	fresh.mu.Unlock()

	mirror.resync(fresh)

	want := []struct {
		kind DeltaKind
		name string
	}{{DeltaLeave, "a"}, {DeltaRotate, "b"}, {DeltaJoin, "d"}}
	last := uint64(3) // the mirror's own epoch before the resync
	for i, d := range collect(t, mirror, last, len(want)) {
		w := want[i]
		if d.Kind != w.kind || d.Name != w.name {
			t.Fatalf("synthesized delta %d = (%v, %s), want (%v, %s)", i, d.Kind, d.Name, w.kind, w.name)
		}
		if d.Epoch <= last || d.Epoch > 40 {
			t.Errorf("synthesized delta %d epoch = %d, want in (%d, 40]", i, d.Epoch, last)
		}
		last = d.Epoch
	}
	if got := mirror.Epoch(); got != 40 {
		t.Errorf("mirror epoch after resync = %d, want 40", got)
	}
	if _, ok := mirror.Lookup("a"); ok {
		t.Error("resynced mirror still lists a")
	}
	if d, ok := mirror.Lookup("d"); !ok || d.Addr != "addr-d" {
		t.Errorf("resynced mirror join = (%+v, %v)", d, ok)
	}
	if b, _ := mirror.Lookup("b"); b.Fingerprint() != rot.Fingerprint() {
		t.Error("resynced mirror missed the rotation")
	}
	// An already-converged resync is a no-op: no deltas, epoch keeps.
	mirror.resync(fresh)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if deltas, _ := mirror.Wait(ctx, last); len(deltas) != 0 {
		t.Errorf("converged resync produced deltas %+v", deltas)
	}
}

// TestWaitAfterConvergedResyncOfFetchedRegistry: a registry decoded from a
// consensus document starts with an empty log, and a resync whose churn nets
// to zero moves its epoch without logging anything. The reader's cursor is
// still covered — it missed nothing — so the next change must reach it as a
// delta, not as lost history.
func TestWaitAfterConvergedResyncOfFetchedRegistry(t *testing.T) {
	origin := NewRegistry()
	for _, name := range []string{"a", "b"} {
		if err := origin.Publish(testDesc(t, name, false, 100)); err != nil {
			t.Fatal(err)
		}
	}
	fetch := func() *Registry {
		var doc bytes.Buffer
		if err := origin.EncodeConsensus(&doc); err != nil {
			t.Fatal(err)
		}
		reg, err := DecodeConsensus(&doc)
		if err != nil {
			t.Fatal(err)
		}
		return reg
	}
	mirror := fetch()
	cursor := mirror.Epoch()
	if _, ok := mirror.DeltasSince(cursor - 1); ok {
		t.Error("a fetched registry claims history from before its own epoch")
	}

	// c comes and goes at the origin: same relays, a later epoch.
	if err := origin.Publish(testDesc(t, "c", false, 100)); err != nil {
		t.Fatal(err)
	}
	origin.Remove("c")
	mirror.resync(fetch())
	if got := mirror.Epoch(); got != origin.Epoch() {
		t.Fatalf("mirror epoch after resync = %d, want %d", got, origin.Epoch())
	}

	join := ConsensusDelta{Epoch: origin.Epoch() + 1, Kind: DeltaJoin, Name: "d", Desc: testDesc(t, "d", false, 100)}
	if err := mirror.ApplyDelta(join); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	deltas, ok := mirror.Wait(ctx, cursor)
	if !ok || len(deltas) != 1 || deltas[0].Kind != DeltaJoin || deltas[0].Name != "d" || deltas[0].Epoch != join.Epoch {
		t.Fatalf("Wait(%d) = %+v, ok=%v; want the one join of d at epoch %d", cursor, deltas, ok, join.Epoch)
	}
}
