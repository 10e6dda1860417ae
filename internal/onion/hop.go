package onion

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding"
	"fmt"
	"hash"

	"ting/internal/cell"
)

// HopState holds the established symmetric state shared between a client
// and one hop of a circuit: AES-CTR keystreams in both directions plus
// running digests for relay-cell recognition. The client keeps one HopState
// per hop; the relay keeps the mirror-image state for each circuit.
//
// CTR keystreams advance as cells are processed, so both ends must process
// every relay cell in order — exactly Tor's discipline.
type HopState struct {
	fwd cipher.Stream
	bwd cipher.Stream
	// fwdDigest is the running hash over forward relay payloads addressed
	// to this hop (sealed by the client, verified by the relay); bwdDigest
	// is the reverse.
	fwdDigest runningDigest
	bwdDigest runningDigest
}

func newHopState(ks *keySchedule) (*HopState, error) {
	fwdBlock, err := aes.NewCipher(ks.kf[:])
	if err != nil {
		return nil, fmt.Errorf("onion: forward cipher: %w", err)
	}
	bwdBlock, err := aes.NewCipher(ks.kb[:])
	if err != nil {
		return nil, fmt.Errorf("onion: backward cipher: %w", err)
	}
	// As far as the compiler can tell, cipher.NewCTR keeps its iv (it
	// copies it), so the IVs go in as a copy of their own: slicing ks would
	// take the whole schedule to the heap.
	iv := [2][aesKeyLen]byte{ks.ivf, ks.ivb}
	h := &HopState{
		fwd:       cipher.NewCTR(fwdBlock, iv[0][:]),
		bwd:       cipher.NewCTR(bwdBlock, iv[1][:]),
		fwdDigest: runningDigest{h: seeded(ks.df[:])},
		bwdDigest: runningDigest{h: seeded(ks.db[:])},
	}
	return h, nil
}

// seeded returns a running hash that has absorbed seed.
func seeded(seed []byte) hash.Hash {
	d := sha256.New()
	d.Write(seed)
	return d
}

// CryptForward applies (or removes — CTR is an XOR) this hop's forward
// keystream over a cell payload in place.
func (h *HopState) CryptForward(p *[cell.PayloadLen]byte) { h.fwd.XORKeyStream(p[:], p[:]) }

// CryptBackward applies or removes this hop's backward keystream.
func (h *HopState) CryptBackward(p *[cell.PayloadLen]byte) { h.bwd.XORKeyStream(p[:], p[:]) }

// SealForward computes and writes the digest for a plaintext relay payload
// addressed to this hop, committing it to the forward running hash. Call
// before layering on the encryption.
func (h *HopState) SealForward(p *[cell.PayloadLen]byte) { h.fwdDigest.seal(p) }

// SealBackward is the relay-side counterpart for cells it originates toward
// the client.
func (h *HopState) SealBackward(p *[cell.PayloadLen]byte) { h.bwdDigest.seal(p) }

// VerifyForward checks whether a decrypted payload is addressed to this hop
// (recognized field zero and digest valid). On success the running hash is
// advanced and the digest field left zeroed; on failure all state and the
// payload are restored so the cell can be passed on untouched.
func (h *HopState) VerifyForward(p *[cell.PayloadLen]byte) bool {
	return h.fwdDigest.verify(p)
}

// VerifyBackward is the client-side counterpart for cells arriving from
// this hop.
func (h *HopState) VerifyBackward(p *[cell.PayloadLen]byte) bool {
	return h.bwdDigest.verify(p)
}

// runningDigest is one direction's running hash, with the buffers Sum and
// verify's saved state are written into: a buffer on the caller's stack
// would escape through the hash.Hash interface and be allocated per cell.
type runningDigest struct {
	h     hash.Hash
	sum   [sha256.Size]byte
	saved [digestStateLen]byte
}

// digestStateLen is the size of SHA-256's marshaled state: a 4-byte magic,
// eight 4-byte words, one 64-byte block and an 8-byte length.
const digestStateLen = 4 + 8*4 + sha256.BlockSize + 8

// tag commits p to the running hash and returns the digest field that goes
// with it.
func (d *runningDigest) tag(p *[cell.PayloadLen]byte) [4]byte {
	d.h.Write(p[:])
	return [4]byte(d.h.Sum(d.sum[:0]))
}

func (d *runningDigest) seal(p *[cell.PayloadLen]byte) {
	cell.ZeroDigest(p)
	cell.SetDigest(p, d.tag(p))
}

// verify hashes straight into the running state and rolls it back from a
// saved copy only when the digest does not match — which, past the
// recognized check, is a 2⁻¹⁶ event for a cell merely passing through.
func (d *runningDigest) verify(p *[cell.PayloadLen]byte) bool {
	if !cell.PayloadRecognized(p) {
		return false
	}
	saved, err := d.h.(encoding.BinaryAppender).AppendBinary(d.saved[:0])
	if err != nil {
		panic(fmt.Sprintf("onion: marshal hash: %v", err))
	}
	claimed := cell.ZeroDigest(p)
	if d.tag(p) == claimed {
		return true
	}
	// Not ours: restore the payload and the running state.
	cell.SetDigest(p, claimed)
	if err := d.h.(encoding.BinaryUnmarshaler).UnmarshalBinary(saved); err != nil {
		panic(fmt.Sprintf("onion: unmarshal hash: %v", err))
	}
	return false
}

// CircuitCrypto is the client-side stack of hop states for one circuit.
type CircuitCrypto struct {
	hops []*HopState
}

// AddHop appends an established hop (the newly extended-to relay).
func (cc *CircuitCrypto) AddHop(h *HopState) { cc.hops = append(cc.hops, h) }

// Truncate drops every hop past the first n, the client's half of a
// RELAY_TRUNCATE: the kept hops' keystreams and digests are untouched, so
// the circuit carries on — and can be re-extended with AddHop — exactly
// where it was. n must lie in [0, Len()].
func (cc *CircuitCrypto) Truncate(n int) error {
	if n < 0 || n > len(cc.hops) {
		return fmt.Errorf("onion: truncate to %d hops out of range (circuit has %d)", n, len(cc.hops))
	}
	clear(cc.hops[n:])
	cc.hops = cc.hops[:n]
	return nil
}

// EncryptForward seals a plaintext relay payload for the given hop index
// and applies the onion layers so the first hop's layer is outermost.
func (cc *CircuitCrypto) EncryptForward(hop int, p *[cell.PayloadLen]byte) error {
	if hop < 0 || hop >= len(cc.hops) {
		return fmt.Errorf("onion: hop %d out of range (circuit has %d)", hop, len(cc.hops))
	}
	cc.hops[hop].SealForward(p)
	for i := hop; i >= 0; i-- {
		cc.hops[i].CryptForward(p)
	}
	return nil
}

// DecryptBackward peels layers off an inbound payload until some hop
// recognizes it, returning that hop's index. The payload is left as the
// hop's plaintext (digest field zeroed).
func (cc *CircuitCrypto) DecryptBackward(p *[cell.PayloadLen]byte) (int, error) {
	for i := range cc.hops {
		cc.hops[i].CryptBackward(p)
		if cc.hops[i].VerifyBackward(p) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("onion: inbound cell unrecognized by all %d hops", len(cc.hops))
}
