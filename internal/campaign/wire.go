package campaign

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Lease is the coordinator's grant of one shard to one worker. Epoch is
// the fencing token: the coordinator bumps it on every grant of the same
// shard, accepts heartbeats and completions only at the shard's highest
// granted epoch, and so guarantees at most one live writer per shard no
// matter how many crashed predecessors limp back. TTL is how long the
// lease survives without a heartbeat.
type Lease struct {
	Shard Shard
	Epoch uint64
	TTL   time.Duration
}

// maxTTLMs is the longest TTL, in milliseconds, a time.Duration holds: a
// lease line or journal header asking for more would overflow it.
const maxTTLMs = math.MaxInt64 / int64(time.Millisecond)

// EncodeLease renders l as its one-line wire form:
//
//	lease id=<id> ti=<ti> tj=<tj> lo=<lo> hi=<hi> epoch=<epoch> ttl_ms=<ms>
//
// The shard ID is redundant with the geometry; carrying both lets
// DecodeLease cross-check the line against itself.
func EncodeLease(l Lease) string {
	return fmt.Sprintf("lease id=%s ti=%d tj=%d lo=%d hi=%d epoch=%d ttl_ms=%d",
		l.Shard.ID, l.Shard.TI, l.Shard.TJ, l.Shard.Lo, l.Shard.Hi,
		l.Epoch, l.TTL.Milliseconds())
}

// DecodeLease parses the wire form produced by EncodeLease, rejecting
// anything whose geometry is invalid, whose ID disagrees with its
// geometry, or whose epoch or TTL could not fence anything.
func DecodeLease(line string) (Lease, error) {
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) != 8 || fields[0] != "lease" {
		return Lease{}, fmt.Errorf("campaign: malformed lease line %q", line)
	}
	var (
		l  Lease
		id string
	)
	ttlMs := int64(-1)
	ti, tj, lo, hi := -1, -1, -1, -1
	for _, f := range fields[1:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return Lease{}, fmt.Errorf("campaign: malformed lease field %q", f)
		}
		var err error
		switch k {
		case "id":
			id = v
		case "ti":
			ti, err = strconv.Atoi(v)
		case "tj":
			tj, err = strconv.Atoi(v)
		case "lo":
			lo, err = strconv.Atoi(v)
		case "hi":
			hi, err = strconv.Atoi(v)
		case "epoch":
			l.Epoch, err = strconv.ParseUint(v, 10, 64)
		case "ttl_ms":
			ttlMs, err = strconv.ParseInt(v, 10, 64)
		default:
			return Lease{}, fmt.Errorf("campaign: unknown lease field %q", k)
		}
		if err != nil {
			return Lease{}, fmt.Errorf("campaign: malformed lease field %q: %w", f, err)
		}
	}
	if id == "" {
		return Lease{}, fmt.Errorf("campaign: lease line %q missing id", line)
	}
	l.Shard = Shard{ID: id, TI: ti, TJ: tj, Lo: lo, Hi: hi}
	if err := l.Shard.Validate(); err != nil {
		return Lease{}, err
	}
	if l.Epoch == 0 {
		return Lease{}, fmt.Errorf("campaign: lease %s has epoch 0", id)
	}
	if ttlMs <= 0 || ttlMs > maxTTLMs {
		return Lease{}, fmt.Errorf("campaign: lease %s has TTL %d ms, want 1 to %d", id, ttlMs, maxTTLMs)
	}
	l.TTL = time.Duration(ttlMs) * time.Millisecond
	return l, nil
}
