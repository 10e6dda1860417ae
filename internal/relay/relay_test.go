package relay

import (
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"ting/internal/cell"
	"ting/internal/link"
	"ting/internal/onion"
)

func testIdentity(t *testing.T) *onion.Identity {
	t.Helper()
	id, err := onion.NewIdentity(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func validConfig(t *testing.T, pn *link.PipeNet, name string) Config {
	t.Helper()
	ln, err := pn.Listen(name)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Nickname:    name,
		Addr:        name,
		Identity:    testIdentity(t),
		Listener:    ln,
		RelayDialer: pn,
	}
}

func TestConfigValidation(t *testing.T) {
	pn := link.NewPipeNet()
	good := validConfig(t, pn, "ok")
	if _, err := New(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Nickname = "" },
		func(c *Config) { c.Addr = "" },
		func(c *Config) { c.Identity = nil },
		func(c *Config) { c.Listener = nil },
		func(c *Config) { c.RelayDialer = nil },
	}
	for i, mut := range mutations {
		cfg := validConfig(t, pn, string(rune('a'+i)))
		mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func startRelay(t *testing.T, pn *link.PipeNet, name string) (*Relay, *onion.Identity) {
	t.Helper()
	cfg := validConfig(t, pn, name)
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	t.Cleanup(func() { r.Close() })
	return r, cfg.Identity
}

func TestCreateHandshakeDirect(t *testing.T) {
	pn := link.NewPipeNet()
	_, id := startRelay(t, pn, "direct")

	lk, err := pn.Dial("direct")
	if err != nil {
		t.Fatal(err)
	}
	defer lk.Close()

	hs, err := onion.StartHandshake(id.Public(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var create cell.Cell
	create.Circ = 7
	create.Cmd = cell.Create
	copy(create.Payload[:], hs.Onionskin())
	if err := sendCell(lk, create); err != nil {
		t.Fatal(err)
	}
	got, err := recvCell(lk)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmd != cell.Created || got.Circ != 7 {
		t.Fatalf("got %v", got.String())
	}
	if _, err := hs.Complete(got.Payload[:onion.ReplyLen]); err != nil {
		t.Fatalf("handshake completion failed: %v", err)
	}
}

func TestDuplicateCreateDestroyed(t *testing.T) {
	pn := link.NewPipeNet()
	_, id := startRelay(t, pn, "dup")
	lk, err := pn.Dial("dup")
	if err != nil {
		t.Fatal(err)
	}
	defer lk.Close()

	for i := 0; i < 2; i++ {
		hs, err := onion.StartHandshake(id.Public(), nil)
		if err != nil {
			t.Fatal(err)
		}
		var create cell.Cell
		create.Circ = 9
		create.Cmd = cell.Create
		copy(create.Payload[:], hs.Onionskin())
		if err := sendCell(lk, create); err != nil {
			t.Fatal(err)
		}
	}
	// First reply: CREATED. Second: DESTROY (duplicate ID).
	first, err := recvCell(lk)
	if err != nil {
		t.Fatal(err)
	}
	second, err := recvCell(lk)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cmd != cell.Created || second.Cmd != cell.Destroy {
		t.Errorf("got %s then %s, want CREATED then DESTROY", first.Cmd, second.Cmd)
	}
}

func TestGarbageCreateDestroyed(t *testing.T) {
	pn := link.NewPipeNet()
	startRelay(t, pn, "garbage")
	lk, err := pn.Dial("garbage")
	if err != nil {
		t.Fatal(err)
	}
	defer lk.Close()
	var create cell.Cell
	create.Circ = 3
	create.Cmd = cell.Create
	// All-zero onionskin is an invalid X25519 point result (low order);
	// the relay must refuse, not crash.
	if err := sendCell(lk, create); err != nil {
		t.Fatal(err)
	}
	got, err := recvCell(lk)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmd != cell.Destroy {
		t.Errorf("got %s, want DESTROY", got.Cmd)
	}
}

func TestRelayOnUnknownCircuitIgnored(t *testing.T) {
	pn := link.NewPipeNet()
	r, _ := startRelay(t, pn, "unknown")
	lk, err := pn.Dial("unknown")
	if err != nil {
		t.Fatal(err)
	}
	defer lk.Close()
	if err := sendCell(lk, cell.Cell{Circ: 123, Cmd: cell.Relay}); err != nil {
		t.Fatal(err)
	}
	// Also padding and destroy on unknown circuits must be harmless.
	if err := sendCell(lk, cell.Cell{Circ: 5, Cmd: cell.Padding}); err != nil {
		t.Fatal(err)
	}
	if err := sendCell(lk, cell.Cell{Circ: 5, Cmd: cell.Destroy}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	circuits, _, _ := r.Stats()
	if circuits != 0 {
		t.Errorf("stray cells created %d circuits", circuits)
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	pn := link.NewPipeNet()
	r, _ := startRelay(t, pn, "closer")
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConnStateHoldsNoCellBuffers: an accepted inbound link costs a handful
// of words. The read loop reuses one cell of its own; per-link arrays of
// 512-byte cells (8.3 KiB a link, once) must not come back unnoticed.
func TestConnStateHoldsNoCellBuffers(t *testing.T) {
	if size := unsafe.Sizeof(connState{}); size >= 256 {
		t.Errorf("connState is %d bytes, want under 256: it holds cell buffers again", size)
	}
}
