package serve

import (
	"errors"
	"net"
	"os"
	"sort"
	"testing"
	"time"

	"ting/internal/telemetry"
)

// TestBinaryConnectionLimit: with room for two connections the third is
// answered statusOverloaded and hung up on, whatever it asked; the two keep
// working; the room one leaves is there for the next; and a connection over
// the limit that never asks anything is closed all the same.
func TestBinaryConnectionLimit(t *testing.T) {
	pub := NewPublisher(nil)
	if _, err := pub.Publish(testMatrix(t, 4)); err != nil {
		t.Fatal(err)
	}
	srv := NewBinaryServer(pub, nil)
	srv.limit = 2
	addr := serveOn(t, srv)
	dial := func() *BinClient {
		c, err := DialBinary(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	a, b := dial(), dial()
	for _, c := range []*BinClient{a, b} {
		// Answered, so accepted and counted before the third dials.
		if _, err := c.Epoch(); err != nil {
			t.Fatal(err)
		}
	}

	third := dial()
	_, _, err := third.RTTBatchEx([]uint32{0, 1, 2, 3}, nil)
	var se *StatusError
	if !errors.As(err, &se) || se.Status != statusOverloaded || statusOverloaded != 5 {
		t.Fatalf("third connection: err = %v, want *StatusError with status 5", err)
	}
	if _, err := third.Epoch(); err == nil {
		t.Error("refused connection answered a second request")
	}
	for _, c := range []*BinClient{a, b} {
		if _, err := c.Epoch(); err != nil {
			t.Errorf("admitted connection after the refusal: %v", err)
		}
	}

	// The server notices a's hangup on its own schedule: ask until admitted.
	a.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := dial().Epoch()
		if err == nil {
			break
		}
		if !isStatus(err, statusOverloaded) || time.Now().After(deadline) {
			t.Fatalf("connection after one of two left: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Full again. One more, which sends nothing, must not be kept.
	silent, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	silent.SetReadDeadline(time.Now().Add(5 * refuseTimeout))
	var one [1]byte
	if _, err := silent.Read(one[:]); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("silent connection over the limit still open after %v: read err = %v", 5*refuseTimeout, err)
	}
}

// TestBinMsSeesItsHandler: serve.bin_ms tells a single lookup from a
// 512-cell batch. Under the registry's default bounds, which start at
// 0.5 ms, both — and everything else the handler does — shared one bucket.
func TestBinMsSeesItsHandler(t *testing.T) {
	pub := NewPublisher(nil)
	if _, err := pub.Publish(testMatrix(t, 64)); err != nil {
		t.Fatal(err)
	}
	// A server each, so each histogram holds one kind of request.
	median := func(ask func(*BinClient) error) float64 {
		reg := telemetry.New()
		srv := NewBinaryServer(pub, reg)
		c, err := DialBinary(serveOn(t, srv))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for i := 0; i < 101; i++ {
			if err := ask(c); err != nil {
				t.Fatal(err)
			}
		}
		if n := reg.Snapshot().Histograms["serve.bin_ms"].Count; n != 101 {
			t.Fatalf("serve.bin_ms holds %d observations of 101 requests", n)
		}
		return srv.binMs.Quantile(0.5)
	}
	pairs := make([]uint32, 2*512)
	for k := range pairs {
		pairs[k] = uint32(k*7) % 64
	}
	single := median(func(c *BinClient) error { _, _, _, _, err := c.RTTEx("relay03", "relay60"); return err })
	batch := median(func(c *BinClient) error { _, _, err := c.RTTBatchEx(pairs, nil); return err })
	// Quantile interpolates inside the median's bucket, so the first bound at
	// or above it names the bucket.
	sb, bb := sort.SearchFloat64s(binBuckets, single), sort.SearchFloat64s(binBuckets, batch)
	if sb >= bb {
		t.Errorf("median single lookup %.4f ms (bucket %d) and median 512-cell batch %.4f ms (bucket %d): want the batch in a higher bucket",
			single, sb, batch, bb)
	}
}
