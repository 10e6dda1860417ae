package onion

import (
	"crypto/hkdf"
	"crypto/hmac"
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
)

// keySchedule splits HKDF output into the per-hop key material.
type keySchedule struct {
	kf, kb   []byte // AES-CTR keys, forward and backward
	ivf, ivb []byte // CTR initial counter blocks
	df, db   []byte // digest seeds
	auth     []byte // handshake authentication key
}

// deriveKeys expands the handshake's secret input with HKDF-SHA256
// (RFC 5869) into one hop's key schedule.
func deriveKeys(secretInput []byte) keySchedule {
	km, err := hkdf.Key(sha256.New, secretInput, []byte(protoID+":salt"), protoID+":expand", keyMaterial)
	if err != nil {
		// Key fails only for a length past 255 hash blocks or, in FIPS
		// 140-only mode, a secret under 112 bits: keyMaterial is a constant
		// well inside the one, and the secret input is several keys long.
		panic("onion: " + err.Error())
	}
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
