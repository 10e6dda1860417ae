package onion

import (
	"bytes"
	"crypto/hkdf"
	"crypto/hmac"
	"crypto/sha256"
	"math/rand"
	"testing"
	"time"
)

// TestKeyDerivationMatchesStdlib: on random secrets of every length from
// empty to several blocks, deriveKeys gives crypto/hkdf.Key's bytes for the
// same salt, info and length, and computeAuth gives crypto/hmac's tag —
// and hmacSum agrees with crypto/hmac for any key up to a block and a
// message in any number of parts.
func TestKeyDerivationMatchesStdlib(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 1000; i++ {
		secret := make([]byte, rng.Intn(4*sha256.BlockSize))
		rng.Read(secret)
		want, err := hkdf.Key(sha256.New, secret, []byte(kdfSalt), kdfInfo, keyMaterial)
		if err != nil {
			t.Fatal(err)
		}
		ks := deriveKeys(secret)
		if got := ks.bytes(); !bytes.Equal(got, want) {
			t.Fatalf("secret %x: deriveKeys = %x, hkdf.Key = %x", secret, got, want)
		}
		mac := hmac.New(sha256.New, ks.auth[:])
		mac.Write([]byte(authProtoMsg))
		if got := computeAuth(&ks); !bytes.Equal(got[:], mac.Sum(nil)) {
			t.Fatalf("secret %x: computeAuth = %x, crypto/hmac = %x", secret, got, mac.Sum(nil))
		}

		key := make([]byte, rng.Intn(sha256.BlockSize+1))
		rng.Read(key)
		parts := make([][]byte, rng.Intn(4))
		mac = hmac.New(sha256.New, key)
		for k := range parts {
			parts[k] = make([]byte, rng.Intn(2*sha256.BlockSize))
			rng.Read(parts[k])
			mac.Write(parts[k])
		}
		if got := hmacSum(key, parts...); !bytes.Equal(got[:], mac.Sum(nil)) {
			t.Fatalf("key %x, parts %x: hmacSum = %x, crypto/hmac = %x", key, parts, got, mac.Sum(nil))
		}
	}
}

// TestHandshakeAllocs pins what one client+server handshake allocates,
// 38 to 40 objects: crypto/ecdh's two ephemeral keys, the public keys it
// parses from the wire and the four shared secrets (20, and at random one
// more for each key generated, a byte crypto/ecdh reads and drops); the
// client's handshake state and the server's reply; and each side's hop
// state, two AES-CTR streams (each built from a block NewCTR copies), two
// running digests and the IVs (16). Key derivation and the authentication
// tag allocate nothing.
func TestHandshakeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	rnd := rand.New(rand.NewSource(1))
	id, err := NewIdentity(rnd)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		ch, err := StartHandshake(id.Public(), rnd)
		if err != nil {
			t.Fatal(err)
		}
		reply, _, err := ServerHandshake(id, ch.Onionskin(), rnd)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ch.Complete(reply); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per handshake", allocs)
	const ceiling = 40
	if allocs > ceiling {
		t.Errorf("%.0f allocations per client+server handshake, want ≤ %d", allocs, ceiling)
	}
}
