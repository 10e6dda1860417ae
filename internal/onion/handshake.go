package onion

import (
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
)

// ReplyLen is the length of the handshake reply carried in a CREATED cell:
// the server's ephemeral public key plus a 32-byte authentication tag.
const ReplyLen = KeyLen + 32

// ErrHandshakeAuth is returned when the server's authentication tag does
// not verify.
var ErrHandshakeAuth = errors.New("onion: handshake authentication failed")

// ClientHandshake is the client half of the ntor-style handshake for one
// hop. Create it with StartHandshake, send Onionskin() in a CREATE or
// EXTEND, then call Complete with the reply.
type ClientHandshake struct {
	relayPub PublicKey
	eph      *ecdh.PrivateKey
	skin     [KeyLen]byte // eph's public key: the onionskin
}

// StartHandshake begins a handshake with the relay owning relayPub.
// rnd nil means crypto/rand.
func StartHandshake(relayPub PublicKey, rnd io.Reader) (*ClientHandshake, error) {
	if rnd == nil {
		rnd = rand.Reader
	}
	if relayPub.IsZero() {
		return nil, errors.New("onion: zero relay public key")
	}
	eph, err := ecdh.X25519().GenerateKey(rnd)
	if err != nil {
		return nil, fmt.Errorf("onion: ephemeral key: %w", err)
	}
	ch := &ClientHandshake{relayPub: relayPub, eph: eph}
	copy(ch.skin[:], eph.PublicKey().Bytes())
	return ch, nil
}

// Onionskin returns the client's handshake message (its ephemeral public
// key), exactly KeyLen bytes.
func (ch *ClientHandshake) Onionskin() []byte {
	return ch.skin[:]
}

// Complete processes the relay's reply and returns the established hop
// state.
func (ch *ClientHandshake) Complete(reply []byte) (*HopState, error) {
	if len(reply) != ReplyLen {
		return nil, fmt.Errorf("onion: reply length %d, want %d", len(reply), ReplyLen)
	}
	var serverEph PublicKey
	copy(serverEph[:], reply[:KeyLen])
	yPub, err := serverEph.ecdh()
	if err != nil {
		return nil, err
	}
	bPub, err := ch.relayPub.ecdh()
	if err != nil {
		return nil, err
	}
	s1, err := ch.eph.ECDH(yPub) // x·Y
	if err != nil {
		return nil, fmt.Errorf("onion: ecdh: %w", err)
	}
	s2, err := ch.eph.ECDH(bPub) // x·B
	if err != nil {
		return nil, fmt.Errorf("onion: ecdh: %w", err)
	}
	in := secretInput(s1, s2, ch.relayPub[:], ch.Onionskin(), serverEph[:])
	ks := deriveKeys(in[:])
	want := computeAuth(&ks)
	if !hmac.Equal(want[:], reply[KeyLen:]) {
		return nil, ErrHandshakeAuth
	}
	return newHopState(&ks)
}

// ServerHandshake processes a client onionskin at a relay holding id,
// returning the reply to send back in a CREATED/EXTENDED cell and the
// established hop state.
func ServerHandshake(id *Identity, onionskin []byte, rnd io.Reader) (reply []byte, hop *HopState, err error) {
	if rnd == nil {
		rnd = rand.Reader
	}
	if len(onionskin) != KeyLen {
		return nil, nil, fmt.Errorf("onion: onionskin length %d, want %d", len(onionskin), KeyLen)
	}
	xPub, err := ecdh.X25519().NewPublicKey(onionskin)
	if err != nil {
		return nil, nil, fmt.Errorf("onion: bad onionskin: %w", err)
	}
	eph, err := ecdh.X25519().GenerateKey(rnd)
	if err != nil {
		return nil, nil, fmt.Errorf("onion: ephemeral key: %w", err)
	}
	s1, err := eph.ECDH(xPub) // y·X
	if err != nil {
		return nil, nil, fmt.Errorf("onion: ecdh: %w", err)
	}
	s2, err := id.priv.ECDH(xPub) // b·X
	if err != nil {
		return nil, nil, fmt.Errorf("onion: ecdh: %w", err)
	}
	pub := id.Public()
	ephPub := eph.PublicKey().Bytes()
	in := secretInput(s1, s2, pub[:], onionskin, ephPub)
	ks := deriveKeys(in[:])
	hop, err = newHopState(&ks)
	if err != nil {
		return nil, nil, err
	}
	auth := computeAuth(&ks)
	reply = make([]byte, 0, ReplyLen)
	reply = append(reply, ephPub...)
	reply = append(reply, auth[:]...)
	return reply, hop, nil
}

// secretLen is the length of the KDF's secret input: two X25519 shared
// secrets, three public keys and the protocol name.
const secretLen = 5*KeyLen + len(protoID)

// secretInput builds the transcript-bound secret for the KDF — ECDH
// results followed by all public values, as in ntor — as a value, so it
// lives on the handshake's stack.
func secretInput(s1, s2, relayPub, clientEph, serverEph []byte) [secretLen]byte {
	var in [secretLen]byte
	n := 0
	for _, part := range [...][]byte{s1, s2, relayPub, clientEph, serverEph, []byte(protoID)} {
		n += copy(in[n:], part)
	}
	return in
}
