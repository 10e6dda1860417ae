package onion

import (
	"crypto/sha256"
)

// Key schedule offsets within the HKDF output.
const (
	aesKeyLen    = 16
	digestSeed   = 32
	authKeyLen   = 32
	keyMaterial  = 2*aesKeyLen + 2*aesKeyLen /* IVs */ + 2*digestSeed + authKeyLen
	protoID      = "mintor-ntor-x25519-sha256-1"
	authProtoMsg = protoID + ":server-auth"
	kdfSalt      = protoID + ":salt"
	kdfInfo      = protoID + ":expand"
)

// keySchedule is one hop's key material, its parts in the order HKDF
// emits them. It is a value: a handshake derives it on its stack, and
// newHopState keeps only the ciphers and digests keyed from it.
type keySchedule struct {
	kf, kb   [aesKeyLen]byte  // AES-CTR keys, forward and backward
	ivf, ivb [aesKeyLen]byte  // CTR initial counter blocks
	df, db   [digestSeed]byte // digest seeds
	auth     [authKeyLen]byte // handshake authentication key
}

// deriveKeys expands the handshake's secret input with HKDF-SHA256
// (RFC 5869) into one hop's key schedule: the bytes crypto/hkdf.Key gives
// for the same salt, info and length, computed with no heap allocation.
func deriveKeys(secret []byte) keySchedule {
	prk := hmacSum([]byte(kdfSalt), secret)
	var km [keyMaterial]byte
	var t [sha256.Size]byte // T(i-1), empty for the first block
	for i, off := byte(1), 0; off < keyMaterial; i++ {
		prev := t[:]
		if i == 1 {
			prev = nil
		}
		t = hmacSum(prk[:], prev, []byte(kdfInfo), []byte{i})
		off += copy(km[off:], t[:])
	}
	var ks keySchedule
	rest := km[:]
	for _, part := range [...][]byte{ks.kf[:], ks.kb[:], ks.ivf[:], ks.ivb[:], ks.df[:], ks.db[:], ks.auth[:]} {
		rest = rest[copy(part, rest):]
	}
	return ks
}

// computeAuth is the server's handshake authentication tag,
// HMAC-SHA256(auth, authProtoMsg).
func computeAuth(ks *keySchedule) [sha256.Size]byte {
	return hmacSum(ks.auth[:], []byte(authProtoMsg))
}

// hmacSum is HMAC-SHA256 (RFC 2104) of the concatenated msg parts under
// key, which must be at most one block long — every key here is 32 bytes.
// It gives what crypto/hmac gives, but its hash stays on the caller's
// stack: crypto/hmac allocates two hashes and a saved state per key, which
// both ends paid on every handshake.
func hmacSum(key []byte, msg ...[]byte) [sha256.Size]byte {
	if len(key) > sha256.BlockSize {
		panic("onion: HMAC key longer than a block")
	}
	var pad [sha256.BlockSize]byte
	copy(pad[:], key)
	for i := range pad {
		pad[i] ^= 0x36 // ipad
	}
	h := sha256.New()
	h.Write(pad[:])
	for _, m := range msg {
		h.Write(m)
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	for i := range pad {
		pad[i] ^= 0x36 ^ 0x5c // ipad to opad
	}
	h.Reset()
	h.Write(pad[:])
	h.Write(sum[:])
	h.Sum(sum[:0])
	return sum
}
