// Package directory implements mintor's relay directory: descriptors, a
// consensus document with a text encoding, bandwidth-weighted relay
// selection, and a minimal fetch protocol.
//
// The paper's client learns relays from the Tor directory authorities and
// can optionally keep its two local relays unpublished by hard-coding their
// descriptors (§4.1, "PublishDescriptors 0"); Registry supports both
// published and unpublished descriptors for the same reason.
package directory

import (
	"bufio"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unicode"

	"ting/internal/onion"
)

// Descriptor describes one relay: everything a client needs to extend a
// circuit through it.
type Descriptor struct {
	// Nickname is the relay's unique name.
	Nickname string
	// Addr is the relay's link address (a PipeNet name or host:port).
	Addr string
	// OnionKey is the relay's public handshake key.
	OnionKey onion.PublicKey
	// BandwidthKBps is the advertised bandwidth used for weighted
	// selection.
	BandwidthKBps float64
	// Exit reports whether the relay permits exit streams.
	Exit bool
	// Generation counts onion-key rotations for this nickname within one
	// registry. It is a runtime annotation, not part of the wire encoding:
	// a freshly parsed descriptor always has generation 0.
	Generation uint64
}

// Fingerprint returns a short stable identifier for the descriptor's onion
// key. Same-nickname descriptors with different keys (a rotation, or an
// impostor re-join) have different fingerprints.
func (d *Descriptor) Fingerprint() string {
	return hex.EncodeToString(d.OnionKey[:8])
}

// Validate checks the descriptor for completeness, and the nickname for
// the separators other codecs frame a path with: whitespace (a consensus
// line's fields), ',' (EXTENDCIRCUIT's path, the half-circuit key's hops)
// and '#' (the half-circuit key's sample count).
func (d *Descriptor) Validate() error {
	switch {
	case d.Nickname == "":
		return errors.New("directory: descriptor missing nickname")
	case strings.IndexFunc(d.Nickname, unicode.IsSpace) >= 0:
		return fmt.Errorf("directory: nickname %q contains whitespace", d.Nickname)
	case strings.ContainsAny(d.Nickname, ",#"):
		return fmt.Errorf("directory: nickname %q contains ',' or '#'", d.Nickname)
	case d.Addr == "":
		return fmt.Errorf("directory: descriptor %s missing address", d.Nickname)
	case strings.IndexFunc(d.Addr, unicode.IsSpace) >= 0:
		return fmt.Errorf("directory: address %q contains whitespace", d.Addr)
	case d.OnionKey.IsZero():
		return fmt.Errorf("directory: descriptor %s missing onion key", d.Nickname)
	case d.BandwidthKBps < 0:
		return fmt.Errorf("directory: descriptor %s negative bandwidth", d.Nickname)
	}
	return nil
}

// Line encodes the descriptor as one consensus line:
//
//	relay <nickname> <addr> <onionkey-hex> <bandwidth-kbps> <exit|noexit>
func (d *Descriptor) Line() string {
	exit := "noexit"
	if d.Exit {
		exit = "exit"
	}
	return fmt.Sprintf("relay %s %s %s %.1f %s",
		d.Nickname, d.Addr, hex.EncodeToString(d.OnionKey[:]), d.BandwidthKBps, exit)
}

// ParseLine decodes one consensus line.
func ParseLine(line string) (*Descriptor, error) {
	f := strings.Fields(line)
	if len(f) != 6 || f[0] != "relay" {
		return nil, fmt.Errorf("directory: malformed line %q", line)
	}
	keyRaw, err := hex.DecodeString(f[3])
	if err != nil || len(keyRaw) != onion.KeyLen {
		return nil, fmt.Errorf("directory: bad onion key in %q", line)
	}
	bw, err := strconv.ParseFloat(f[4], 64)
	if err != nil {
		return nil, fmt.Errorf("directory: bad bandwidth in %q", line)
	}
	d := &Descriptor{Nickname: f[1], Addr: f[2], BandwidthKBps: bw}
	copy(d.OnionKey[:], keyRaw)
	switch f[5] {
	case "exit":
		d.Exit = true
	case "noexit":
	default:
		return nil, fmt.Errorf("directory: bad exit flag in %q", line)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// DeltaKind classifies one consensus change.
type DeltaKind int

const (
	// DeltaJoin: a relay entered the consensus.
	DeltaJoin DeltaKind = iota
	// DeltaLeave: a relay left the consensus.
	DeltaLeave
	// DeltaRotate: a relay's descriptor changed in place (typically an
	// onion-key rotation; the generation counter advances).
	DeltaRotate
)

func (k DeltaKind) String() string {
	switch k {
	case DeltaJoin:
		return "join"
	case DeltaLeave:
		return "leave"
	case DeltaRotate:
		return "rotate"
	}
	return fmt.Sprintf("DeltaKind(%d)", int(k))
}

// ConsensusDelta is one versioned consensus change. Every mutation of the
// published relay set advances the epoch by exactly one and produces
// exactly one delta, so a consumer that has seen epoch E is up to date
// after applying every delta with Epoch > E in order.
type ConsensusDelta struct {
	// Epoch is the consensus epoch this change produced.
	Epoch uint64
	// Kind says what happened.
	Kind DeltaKind
	// Name is the affected relay's nickname.
	Name string
	// Desc is the descriptor after the change (nil for DeltaLeave).
	Desc *Descriptor
}

// maxDeltaLog bounds the in-memory delta history. Consumers further behind
// than this must resync from a full consensus.
const maxDeltaLog = 1024

// Registry holds the published relay population plus unpublished
// descriptors known only locally. It is safe for concurrent use.
//
// The published set is versioned: every Publish/Remove/Update of a public
// relay advances a monotonically increasing consensus epoch and appends a
// ConsensusDelta to a bounded history, the one copy of every change, which
// DeltasSince reads and Wait reads by cursor. Unpublished descriptors never
// touch the epoch — they are invisible to consensus consumers by design.
type Registry struct {
	mu      sync.RWMutex
	byName  map[string]*Descriptor
	public  []string // published nicknames in insertion order
	epoch   uint64
	deltas  []ConsensusDelta // trailing window, increasing epochs
	logFrom uint64           // deltas holds every change after this epoch
	changed chan struct{}    // closed and replaced when deltas grows
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byName:  make(map[string]*Descriptor),
		changed: make(chan struct{}),
	}
}

// Publish adds a descriptor to the public consensus.
func (r *Registry) Publish(d *Descriptor) error { return r.add(d, true) }

// AddUnpublished registers a descriptor without listing it in the
// consensus — the "PublishDescriptors 0" path the paper mentions for the
// measurer's local relays w and z.
func (r *Registry) AddUnpublished(d *Descriptor) error { return r.add(d, false) }

func (r *Registry) add(d *Descriptor, public bool) error {
	if err := d.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[d.Nickname]; dup {
		return fmt.Errorf("directory: duplicate relay %s", d.Nickname)
	}
	cp := *d
	r.byName[d.Nickname] = &cp
	if public {
		r.public = append(r.public, d.Nickname)
		pub := cp
		r.recordLocked(DeltaJoin, d.Nickname, &pub)
	}
	return nil
}

// Remove deletes a descriptor. Removing a published relay advances the
// epoch and emits a DeltaLeave; removing an unpublished one is silent.
// It reports whether the nickname was known.
func (r *Registry) Remove(nickname string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[nickname]; !ok {
		return false
	}
	delete(r.byName, nickname)
	for i, name := range r.public {
		if name == nickname {
			r.public = append(r.public[:i], r.public[i+1:]...)
			r.recordLocked(DeltaLeave, nickname, nil)
			break
		}
	}
	return true
}

// Update replaces an existing descriptor in place. A changed onion key is
// a rotation and bumps the descriptor's generation. Updating a published
// relay advances the epoch and emits a DeltaRotate.
func (r *Registry) Update(d *Descriptor) error {
	if err := d.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old, ok := r.byName[d.Nickname]
	if !ok {
		return fmt.Errorf("directory: update of unknown relay %s", d.Nickname)
	}
	cp := *d
	cp.Generation = old.Generation
	if old.OnionKey != d.OnionKey {
		cp.Generation++
	}
	r.byName[d.Nickname] = &cp
	for _, name := range r.public {
		if name == d.Nickname {
			pub := cp
			r.recordLocked(DeltaRotate, d.Nickname, &pub)
			break
		}
	}
	return nil
}

// recordLocked advances the epoch, appends the delta to the bounded
// history, and wakes every Wait. Caller holds r.mu.
func (r *Registry) recordLocked(kind DeltaKind, name string, desc *Descriptor) {
	r.epoch++
	delta := ConsensusDelta{Epoch: r.epoch, Kind: kind, Name: name, Desc: desc}
	r.deltas = append(r.deltas, delta)
	if len(r.deltas) > maxDeltaLog {
		r.deltas = r.deltas[len(r.deltas)-maxDeltaLog:]
		r.logFrom = r.deltas[0].Epoch - 1
	}
	close(r.changed)
	r.changed = make(chan struct{})
}

// Epoch returns the current consensus epoch.
func (r *Registry) Epoch() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.epoch
}

// DeltasSince returns every delta with Epoch > since, oldest first. The
// second result is false when the bounded history no longer reaches back
// to since — the consumer must resync from a full consensus instead.
func (r *Registry) DeltasSince(since uint64) ([]ConsensusDelta, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.deltasSinceLocked(since)
}

func (r *Registry) deltasSinceLocked(since uint64) ([]ConsensusDelta, bool) {
	if since >= r.epoch {
		return nil, true
	}
	if since < r.logFrom {
		return nil, false
	}
	var out []ConsensusDelta
	for _, d := range r.deltas {
		if d.Epoch > since {
			cp := d
			if d.Desc != nil {
				dc := *d.Desc
				cp.Desc = &dc
			}
			out = append(out, cp)
		}
	}
	return out, true
}

// Wait blocks until the history holds a delta with Epoch > since, then
// answers exactly as DeltasSince does; a consumer that passes the last
// epoch it was handed reads every change once, in order. The second result
// is false, without waiting, when the history no longer reaches back to
// since. When ctx ends first it returns no deltas and true.
func (r *Registry) Wait(ctx context.Context, since uint64) ([]ConsensusDelta, bool) {
	for {
		r.mu.RLock()
		deltas, ok := r.deltasSinceLocked(since)
		changed := r.changed
		r.mu.RUnlock()
		if !ok || len(deltas) > 0 {
			return deltas, ok
		}
		select {
		case <-ctx.Done():
			return nil, true
		case <-changed:
		}
	}
}

// ApplyDelta applies a delta produced elsewhere to this registry, keeping
// a mirror in step with its origin. The mirror's epoch jumps to the
// delta's epoch.
func (r *Registry) ApplyDelta(delta ConsensusDelta) error {
	switch delta.Kind {
	case DeltaJoin:
		if delta.Desc == nil {
			return errors.New("directory: join delta without descriptor")
		}
		r.Remove(delta.Name) // idempotent re-join
		if err := r.Publish(delta.Desc); err != nil {
			return err
		}
	case DeltaLeave:
		r.Remove(delta.Name)
	case DeltaRotate:
		if delta.Desc == nil {
			return errors.New("directory: rotate delta without descriptor")
		}
		if err := r.Update(delta.Desc); err != nil {
			// A rotate for a relay the mirror never saw joins it.
			if err := r.Publish(delta.Desc); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("directory: unknown delta kind %d", int(delta.Kind))
	}
	r.mu.Lock()
	r.epoch = delta.Epoch
	r.mu.Unlock()
	return nil
}

// resync folds a freshly fetched consensus into this registry after the
// origin's delta log no longer reached back to our epoch. The missed
// churn is synthesized as join/leave/rotate deltas — assigned sequential
// epochs capped at the origin's, so readers of the history still observe
// every change in a strictly increasing order — and the epoch then jumps to
// the origin's. Used by Mirror.
func (r *Registry) resync(fresh *Registry) {
	target := fresh.Epoch()
	current := make(map[string]*Descriptor)
	var names []string
	for _, d := range fresh.Consensus() {
		current[d.Nickname] = d
		names = append(names, d.Nickname)
	}
	sort.Strings(names)
	next := r.Epoch()
	synth := func(kind DeltaKind, name string, desc *Descriptor) {
		if next < target {
			next++
		}
		_ = r.ApplyDelta(ConsensusDelta{Epoch: next, Kind: kind, Name: name, Desc: desc})
	}
	for _, d := range r.Consensus() {
		if _, still := current[d.Nickname]; !still {
			synth(DeltaLeave, d.Nickname, nil)
		}
	}
	for _, name := range names {
		d := current[name]
		old, ok := r.Lookup(name)
		switch {
		case !ok:
			synth(DeltaJoin, name, d)
		case old.Fingerprint() != d.Fingerprint():
			synth(DeltaRotate, name, d)
		}
	}
	r.mu.Lock()
	if r.epoch < target {
		r.epoch = target
	}
	r.mu.Unlock()
}

// Lookup returns the descriptor for nickname (published or not).
func (r *Registry) Lookup(nickname string) (*Descriptor, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.byName[nickname]
	if !ok {
		return nil, false
	}
	cp := *d
	return &cp, true
}

// Consensus returns the published descriptors in insertion order.
func (r *Registry) Consensus() []*Descriptor {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Descriptor, 0, len(r.public))
	for _, name := range r.public {
		cp := *r.byName[name]
		out = append(out, &cp)
	}
	return out
}

// Len returns the number of published relays.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.public)
}

// EncodeConsensus writes the consensus document. The header carries the
// epoch so mirrors can ask for deltas later.
func (r *Registry) EncodeConsensus(w io.Writer) error {
	r.mu.RLock()
	epoch := r.epoch
	r.mu.RUnlock()
	descs := r.Consensus()
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "consensus relays=%d epoch=%d\n", len(descs), epoch)
	for _, d := range descs {
		fmt.Fprintln(bw, d.Line())
	}
	fmt.Fprintln(bw, "end")
	return bw.Flush()
}

// DecodeConsensus parses a consensus document into a fresh registry at the
// epoch its header carries. A relay line past the header's count is
// refused as it arrives, so a reply cannot grow the registry past what it
// declared.
func DecodeConsensus(rd io.Reader) (*Registry, error) {
	sc := bufio.NewScanner(rd)
	if !sc.Scan() {
		return nil, errors.New("directory: empty consensus")
	}
	header := sc.Text()
	if !strings.HasPrefix(header, "consensus relays=") {
		return nil, fmt.Errorf("directory: bad header %q", header)
	}
	rest := strings.TrimPrefix(header, "consensus relays=")
	countField, epochField, _ := strings.Cut(rest, " epoch=")
	want, err := strconv.Atoi(countField)
	if err != nil {
		return nil, fmt.Errorf("directory: bad header %q", header)
	}
	epoch, err := strconv.ParseUint(epochField, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("directory: bad header %q", header)
	}
	reg := NewRegistry()
	for n := 0; sc.Scan(); n++ {
		line := sc.Text()
		if line == "end" {
			if reg.Len() != want {
				return nil, fmt.Errorf("directory: header says %d relays, got %d", want, reg.Len())
			}
			// The synthetic join deltas accumulated while re-publishing
			// don't describe real history at the origin; force mirrors
			// behind this epoch to resync.
			reg.mu.Lock()
			reg.epoch = epoch
			reg.deltas = nil
			reg.logFrom = epoch
			reg.mu.Unlock()
			return reg, nil
		}
		if n == want {
			return nil, fmt.Errorf("directory: header says %d relays, got more", want)
		}
		d, err := ParseLine(line)
		if err != nil {
			return nil, err
		}
		if err := reg.Publish(d); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("directory: read consensus: %w", err)
	}
	return nil, errors.New("directory: truncated consensus (no end line)")
}
