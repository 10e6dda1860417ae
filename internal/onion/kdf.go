package onion

import (
	"crypto/hmac"
	"crypto/sha256"
)

// hkdf implements HKDF-SHA256 (RFC 5869) extract-and-expand. crypto/hkdf
// (Go 1.24) could replace these ~25 lines; the handshake key schedule is a
// measured allocation line (ROADMAP item 8), so that swap waits for a PR
// that measures it.
func hkdf(secret, salt, info []byte, n int) []byte {
	// Extract.
	ext := hmac.New(sha256.New, salt)
	ext.Write(secret)
	prk := ext.Sum(nil)

	// Expand.
	out := make([]byte, 0, n)
	var block []byte
	for counter := byte(1); len(out) < n; counter++ {
		h := hmac.New(sha256.New, prk)
		h.Write(block)
		h.Write(info)
		h.Write([]byte{counter})
		block = h.Sum(nil)
		out = append(out, block...)
	}
	return out[:n]
}

// Key schedule offsets within the HKDF output.
const (
	aesKeyLen    = 16
	digestSeed   = 32
	authKeyLen   = 32
	keyMaterial  = 2*aesKeyLen + 2*aesKeyLen /* IVs */ + 2*digestSeed + authKeyLen
	protoID      = "mintor-ntor-x25519-sha256-1"
	authProtoMsg = protoID + ":server-auth"
)

// keySchedule splits HKDF output into the per-hop key material.
type keySchedule struct {
	kf, kb   []byte // AES-CTR keys, forward and backward
	ivf, ivb []byte // CTR initial counter blocks
	df, db   []byte // digest seeds
	auth     []byte // handshake authentication key
}

func deriveKeys(secretInput []byte) keySchedule {
	km := hkdf(secretInput, []byte(protoID+":salt"), []byte(protoID+":expand"), keyMaterial)
	var ks keySchedule
	ks.kf, km = km[:aesKeyLen], km[aesKeyLen:]
	ks.kb, km = km[:aesKeyLen], km[aesKeyLen:]
	ks.ivf, km = km[:aesKeyLen], km[aesKeyLen:]
	ks.ivb, km = km[:aesKeyLen], km[aesKeyLen:]
	ks.df, km = km[:digestSeed], km[digestSeed:]
	ks.db, km = km[:digestSeed], km[digestSeed:]
	ks.auth = km[:authKeyLen]
	return ks
}

func computeAuth(authKey []byte) [32]byte {
	h := hmac.New(sha256.New, authKey)
	h.Write([]byte(authProtoMsg))
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}
