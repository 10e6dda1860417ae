package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ting/internal/ting"
)

// serveOn runs srv on a loopback listener until the test ends and returns
// the address to dial.
func serveOn(t *testing.T, srv *BinaryServer) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	t.Cleanup(func() {
		cancel()
		if err := <-served; err != nil {
			t.Errorf("binary server: %v", err)
		}
	})
	return ln.Addr().String()
}

// startBinary boots a BinaryServer on loopback and returns a connected
// client. Everything is torn down with the test.
func startBinary(t *testing.T, pub *Publisher) *BinClient {
	t.Helper()
	c, err := DialBinary(serveOn(t, NewBinaryServer(pub, nil)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestBinaryEpochNamesRTT(t *testing.T) {
	pub := NewPublisher(nil)
	m := testMatrix(t, 4)
	snap, err := pub.Publish(m.Clone())
	if err != nil {
		t.Fatal(err)
	}
	c := startBinary(t, pub)

	info, err := c.Epoch()
	if err != nil {
		t.Fatal(err)
	}
	if info.Epoch != 1 || info.Relays != 4 || info.ETag != snap.ETag() {
		t.Fatalf("epoch info %+v", info)
	}

	epoch, names, err := c.Names()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 || len(names) != 4 || names[2] != "relay02" {
		t.Fatalf("names (epoch %d) %v", epoch, names)
	}

	epoch, rtt, prov, conf, err := c.RTTEx("relay00", "relay02")
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 || rtt != m.At(0, 2) || prov != ting.ProvFresh || conf != 1 {
		t.Fatalf("rtt epoch=%d v=%v prov=%v conf=%v", epoch, rtt, prov, conf)
	}
	_, _, prov, conf, err = c.RTTEx("relay00", "relay01")
	if err != nil {
		t.Fatal(err)
	}
	if prov != ting.ProvResumed || conf != 1 {
		t.Fatalf("resumed pair reported %v, conf %v", prov, conf)
	}

	pairs := []uint32{0, 1, 0, 2, 3, 1, 2, 2}
	epoch, cells, err := c.RTTBatchEx(pairs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 || len(cells) != 4 {
		t.Fatalf("batch epoch=%d cells=%d", epoch, len(cells))
	}
	for k := 0; k < len(cells); k++ {
		i, j := int(pairs[k*2]), int(pairs[k*2+1])
		if cells[k].RTTms != m.At(i, j) || cells[k].Prov != m.ProvAt(i, j) || cells[k].Conf != m.ConfAt(i, j) {
			t.Errorf("cell %d (%d,%d) = %+v", k, i, j, cells[k])
		}
	}
}

func TestBinaryStatuses(t *testing.T) {
	empty := NewPublisher(nil)
	c := startBinary(t, empty)
	if _, err := c.Epoch(); !isStatus(err, statusNoEpoch) {
		t.Errorf("no-epoch error = %v", err)
	}

	pub := NewPublisher(nil)
	if _, err := pub.Publish(testMatrix(t, 4)); err != nil {
		t.Fatal(err)
	}
	c2 := startBinary(t, pub)
	if _, _, _, _, err := c2.RTTEx("relay00", "nope"); !isStatus(err, statusUnknownRelay) {
		t.Errorf("unknown relay error = %v", err)
	}
	if _, _, err := c2.RTTBatchEx([]uint32{0, 99}, nil); !isStatus(err, statusOutOfRange) {
		t.Errorf("out-of-range error = %v", err)
	}
}

// TestBinaryUnknownOpsFailClosed: every op code outside the table —
// the retired 0x03/0x04 with bodies that used to be valid, the gaps around
// the table, the response flag itself — answers statusBadRequest, and the
// connection survives to answer the next request.
func TestBinaryUnknownOpsFailClosed(t *testing.T) {
	pub := NewPublisher(nil)
	if _, err := pub.Publish(testMatrix(t, 4)); err != nil {
		t.Fatal(err)
	}
	c := startBinary(t, pub)
	byName := appendString16(appendString16(nil, "relay00"), "relay01")
	byIndex := []byte{0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1}
	for _, tc := range []struct {
		op   byte
		body []byte
	}{
		{0x03, byName}, {0x04, byIndex},
		{0x00, nil}, {0x07, byIndex}, {0x7f, nil}, {0x85, byName}, {0xff, nil},
	} {
		c.req = append(c.req[:0], tc.body...)
		// The reply echoes op|0x80, which for an op that already has the
		// flag set is the op itself; roundTrip checks exactly that.
		if _, err := c.roundTrip(tc.op); !isStatus(err, statusBadRequest) {
			t.Errorf("op 0x%02x: err = %v, want bad request", tc.op, err)
		}
		if _, _, _, conf, err := c.RTTEx("relay00", "relay02"); err != nil || conf != 1 {
			t.Errorf("after op 0x%02x: conf %v, err %v", tc.op, conf, err)
		}
	}
}

func isStatus(err error, status byte) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Status == status
}

// TestHTTPBinaryCrossCheck is the acceptance golden: for one epoch, the
// HTTP and binary protocols must return byte-for-byte identical answers —
// same epoch, same ETag, same names, and same (RTT, provenance,
// confidence) for every pair, whether looked up by name over HTTP, by name
// over the wire, or by index in a batch.
func TestHTTPBinaryCrossCheck(t *testing.T) {
	pub := NewPublisher(nil)
	m := testMatrix(t, 8)
	// One model-completed cell, so the confidence compared is not all ones.
	if err := m.SetPredicted("relay02", "relay05", 55.5, 0.8); err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Publish(m); err != nil {
		t.Fatal(err)
	}
	h := NewServer(pub, nil).Handler()
	c := startBinary(t, pub)

	// Epoch metadata.
	_, epochBody := get(t, h, "/v1/epoch", nil)
	info, err := c.Epoch()
	if err != nil {
		t.Fatal(err)
	}
	if uint64(epochBody["epoch"].(float64)) != info.Epoch ||
		int(epochBody["relays"].(float64)) != info.Relays ||
		epochBody["etag"].(string) != info.ETag {
		t.Fatalf("epoch mismatch: http %v, binary %+v", epochBody, info)
	}

	// Name table.
	_, namesBody := get(t, h, "/v1/names", nil)
	_, names, err := c.Names()
	if err != nil {
		t.Fatal(err)
	}
	httpNames := namesBody["names"].([]any)
	if len(httpNames) != len(names) {
		t.Fatalf("name count: http %d, binary %d", len(httpNames), len(names))
	}
	for i := range names {
		if httpNames[i].(string) != names[i] {
			t.Fatalf("name %d: http %v, binary %v", i, httpNames[i], names[i])
		}
	}

	// Every pair, three ways.
	n := len(names)
	var pairs []uint32
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, uint32(i), uint32(j))
		}
	}
	batchEpoch, cells, err := c.RTTBatchEx(pairs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < len(cells); k++ {
		i, j := int(pairs[k*2]), int(pairs[k*2+1])
		x, y := names[i], names[j]

		rec, httpBody := get(t, h, fmt.Sprintf("/v1/rtt?x=%s&y=%s", x, y), nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("http rtt %s/%s: %d", x, y, rec.Code)
		}
		binEpoch, binRTT, binProv, binConf, err := c.RTTEx(x, y)
		if err != nil {
			t.Fatal(err)
		}

		if httpBody["rtt_ms"].(float64) != binRTT || binRTT != cells[k].RTTms {
			t.Errorf("pair %s/%s RTT: http %v, binary %v, batch %v",
				x, y, httpBody["rtt_ms"], binRTT, cells[k].RTTms)
		}
		if httpBody["provenance"].(string) != binProv.String() || binProv != cells[k].Prov {
			t.Errorf("pair %s/%s prov: http %v, binary %v, batch %v",
				x, y, httpBody["provenance"], binProv, cells[k].Prov)
		}
		if httpBody["confidence"].(float64) != binConf || binConf != cells[k].Conf {
			t.Errorf("pair %s/%s confidence: http %v, binary %v, batch %v",
				x, y, httpBody["confidence"], binConf, cells[k].Conf)
		}
		if uint64(httpBody["epoch"].(float64)) != binEpoch || binEpoch != batchEpoch {
			t.Errorf("pair %s/%s epoch: http %v, binary %v, batch %v",
				x, y, httpBody["epoch"], binEpoch, batchEpoch)
		}
	}
}

// TestBinaryConcurrentClientsAcrossSwaps runs many clients hammering the
// binary server while the publisher churns epochs — the serving plane's
// whole point, under -race. Every batch answer must be internally
// consistent with the epoch that produced it (the stamped cell trick from
// the publisher hammer test).
func TestBinaryConcurrentClientsAcrossSwaps(t *testing.T) {
	pub := NewPublisher(nil)
	base := testMatrix(t, 8)
	stamp := func(epoch int) *ting.Matrix {
		m := base.Clone()
		if err := m.Set("relay00", "relay01", float64(1000+epoch)); err != nil {
			t.Fatal(err)
		}
		return m
	}
	if _, err := pub.Publish(stamp(1)); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go NewBinaryServer(pub, nil).Serve(ctx, ln)

	const clients = 4
	iters := 300
	if testing.Short() {
		iters = 50
	}
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := DialBinary(ln.Addr().String())
			if err != nil {
				errc <- err
				return
			}
			defer c.Close()
			var cells []BatchCellEx
			for i := 0; i < iters; i++ {
				epoch, out, err := c.RTTBatchEx([]uint32{0, 1, 2, 3}, cells)
				if err != nil {
					errc <- err
					return
				}
				cells = out
				if want := float64(1000 + epoch); cells[0].RTTms != want {
					errc <- fmt.Errorf("epoch %d served stamped cell %v, want %v",
						epoch, cells[0].RTTms, want)
					return
				}
				if cells[0].Conf != 1 || cells[1].Conf != 1 {
					errc <- fmt.Errorf("epoch %d served measured cells at confidence %v, %v",
						epoch, cells[0].Conf, cells[1].Conf)
					return
				}
			}
		}()
	}
	for i := 2; i <= 50; i++ {
		if _, err := pub.Publish(stamp(i)); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestBinaryExOps drives the lookup ops (0x05/0x06) over a matrix mixing
// measured and predicted cells, and cross-checks the confidence they carry
// against the HTTP surface.
func TestBinaryExOps(t *testing.T) {
	pub := NewPublisher(nil)
	m := testMatrix(t, 4)
	// Overwrite one cell as a completion-layer prediction at 0.8 confidence.
	if err := m.SetPredicted("relay02", "relay03", 55.5, 0.8); err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Publish(m.Clone()); err != nil {
		t.Fatal(err)
	}
	c := startBinary(t, pub)
	h := NewServer(pub, nil).Handler()

	// Single-pair Ex lookup: measured cell.
	epoch, rtt, prov, conf, err := c.RTTEx("relay00", "relay02")
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 || rtt != m.At(0, 2) || prov != ting.ProvFresh || conf != 1 {
		t.Fatalf("measured Ex = epoch %d rtt %v prov %v conf %v", epoch, rtt, prov, conf)
	}
	// Predicted cell: provenance and quantized confidence survive the wire.
	_, rtt, prov, conf, err = c.RTTEx("relay02", "relay03")
	if err != nil {
		t.Fatal(err)
	}
	if rtt != 55.5 || prov != ting.ProvPredicted {
		t.Fatalf("predicted Ex = rtt %v prov %v", rtt, prov)
	}
	if conf != m.ConfAt(2, 3) {
		t.Fatalf("wire conf %v != matrix conf %v", conf, m.ConfAt(2, 3))
	}

	// Batch Ex over every pair, cross-checked against the HTTP confidence.
	var pairs []uint32
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			pairs = append(pairs, uint32(i), uint32(j))
		}
	}
	_, cells, err := c.RTTBatchEx(pairs, nil)
	if err != nil {
		t.Fatal(err)
	}
	names := m.Names()
	for k := range cells {
		i, j := int(pairs[k*2]), int(pairs[k*2+1])
		if cells[k].RTTms != m.At(i, j) || cells[k].Prov != m.ProvAt(i, j) || cells[k].Conf != m.ConfAt(i, j) {
			t.Errorf("batchEx cell %d (%d,%d) = %+v", k, i, j, cells[k])
		}
		rec, body := get(t, h, fmt.Sprintf("/v1/rtt?x=%s&y=%s", names[i], names[j]), nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("http rtt: %d", rec.Code)
		}
		if body["confidence"].(float64) != cells[k].Conf {
			t.Errorf("pair (%d,%d) confidence: http %v, binary %v", i, j, body["confidence"], cells[k].Conf)
		}
	}

	// Reusing the out slice must not allocate a fresh one.
	_, cells2, err := c.RTTBatchEx(pairs[:4], cells)
	if err != nil {
		t.Fatal(err)
	}
	if &cells2[0] != &cells[0] {
		t.Error("RTTBatchEx reallocated a reusable out slice")
	}
}

// TestBinarySlowClientsAreDropped is the slow-loris check: a client that
// sends half a header and stalls, and one that floods requests but never
// reads a reply, are both closed by the server within connTimeout, taking
// their goroutines with them — while a client that keeps asking, even
// across several timeouts, is never cut off.
func TestBinarySlowClientsAreDropped(t *testing.T) {
	pub := NewPublisher(nil)
	if _, err := pub.Publish(testMatrix(t, 4)); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewBinaryServer(pub, nil)
	srv.timeout = 400 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	defer func() {
		cancel()
		if err := <-served; err != nil {
			t.Errorf("binary server: %v", err)
		}
	}()

	healthy, err := DialBinary(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	if _, err := healthy.Epoch(); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()

	dial := func() *net.TCPConn {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		// Client-side bounds, so a server that never drops these fails the
		// test instead of hanging it.
		c.SetDeadline(time.Now().Add(10 * time.Second))
		return c.(*net.TCPConn)
	}
	staller := dial()
	if _, err := staller.Write([]byte{0, 0}); err != nil {
		t.Fatal(err)
	}
	flooder := dial()
	flooder.SetReadBuffer(4 << 10) // fill up sooner
	flooded := make(chan error, 1)
	go func() {
		// A full batch per frame: 32 KiB asked, 40 KiB answered, never read.
		frame := binary.BigEndian.AppendUint32(nil, 1+4+MaxBatch*8)
		frame = append(frame, opRTTBatchEx)
		frame = binary.BigEndian.AppendUint32(frame, MaxBatch)
		frame = append(frame, make([]byte, MaxBatch*8)...)
		for {
			if _, err := flooder.Write(frame); err != nil {
				flooded <- err
				return
			}
		}
	}()

	// Two timeouts' worth of requests, each well inside the half timeout of
	// silence a client is always allowed.
	for i := 0; i < 16; i++ {
		time.Sleep(50 * time.Millisecond)
		if _, err := healthy.Epoch(); err != nil {
			t.Fatalf("active client cut off at request %d: %v", i, err)
		}
	}

	var one [1]byte
	if _, err := staller.Read(one[:]); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("stalled client still connected: read err = %v", err)
	}
	if err := <-flooded; errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("never-reading client still connected: write err = %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the slow clients connected", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBinaryServeClosesItsConnections: cancelling Serve's context hangs up on
// a client that is connected and idle, and Serve returns only once the
// connection's goroutine has exited — nothing it started outlives it.
func TestBinaryServeClosesItsConnections(t *testing.T) {
	pub := NewPublisher(nil)
	if _, err := pub.Publish(testMatrix(t, 4)); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- NewBinaryServer(pub, nil).Serve(ctx, ln) }()
	c, err := DialBinary(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// One answered request: the server is inside this connection's loop.
	if _, err := c.Epoch(); err != nil {
		t.Fatal(err)
	}

	cancel()
	cancelled := time.Now()
	// Bounds the test, not the server: the 100 ms below is what is asserted.
	c.conn.SetReadDeadline(cancelled.Add(5 * time.Second))
	var one [1]byte
	if _, err := c.conn.Read(one[:]); err != io.EOF {
		t.Errorf("idle client read %v after cancel, want EOF", err)
	}
	if d := time.Since(cancelled); d > 100*time.Millisecond {
		t.Errorf("idle client was hung up on %v after cancel, want within 100ms", d)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve has not returned 5s after cancel")
	}
	// Serve waited for its goroutines' last deferred call, which is an
	// instant before the goroutine is gone from a stack dump: look twice.
	buf := make([]byte, 1<<20)
	for try := 0; ; try++ {
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "serve.(*BinaryServer)") {
			break
		}
		if try == 100 {
			t.Fatalf("server goroutines left after Serve returned:\n%s", stacks)
		}
		time.Sleep(time.Millisecond)
	}
}
