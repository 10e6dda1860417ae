// Package campaign distributes an all-pairs Ting campaign across
// cooperating scanner workers. A coordinator partitions the pair space
// into shards — contiguous slices of the canonical pair enumeration,
// keyed by matrix tile so a shard's writes land in a bounded set of tile
// blocks — and hands them out as leases over the directory-server
// transport. Leases carry deadlines and monotonic fencing epochs: a
// worker that stops heartbeating loses its lease to a live worker, a
// stale writer's submission is rejected by epoch, and double-measured
// pairs resolve last-writer-wins. Shards are disjoint — the coordinator
// refuses a partition in which two of them share a pair — and each accepts
// exactly one submission, so the merge is a plain fold of every submission
// into one matrix, and a completed campaign's matrix is bytewise equal to a
// single-process scan of the same (deterministic) world — the invariant
// the shard-soak CI job pins.
package campaign

import (
	"fmt"
	"sort"

	"ting/internal/ting"
)

// Shard is one lease-able slice of the pair space: the pairs at indices
// [Lo, Hi) of tile block (TI, TJ)'s canonical pair list. Blocks follow
// the matrix's TileDim×TileDim layout, so one shard's cells land in at
// most one tile block pair of the merged matrix; block pair lists are
// enumerated row-major (i ascending, then j), matching the order a
// single-process scan schedules them.
type Shard struct {
	ID     string
	TI, TJ int
	Lo, Hi int
}

// NewShard builds a shard with its canonical ID. The ID is a pure
// function of the geometry, so coordinator and worker derive the same
// name for the same slice without exchanging anything but the numbers.
func NewShard(ti, tj, lo, hi int) Shard {
	return Shard{ID: shardID(ti, tj, lo, hi), TI: ti, TJ: tj, Lo: lo, Hi: hi}
}

func shardID(ti, tj, lo, hi int) string {
	return fmt.Sprintf("t%d-%d.p%d-%d", ti, tj, lo, hi)
}

// Validate checks the shard's geometry and that its ID matches it.
func (s Shard) Validate() error {
	if s.TI < 0 || s.TJ < s.TI {
		return fmt.Errorf("campaign: shard tile block (%d,%d) invalid", s.TI, s.TJ)
	}
	if s.Lo < 0 || s.Hi <= s.Lo {
		return fmt.Errorf("campaign: shard pair range [%d,%d) invalid", s.Lo, s.Hi)
	}
	if s.ID != shardID(s.TI, s.TJ, s.Lo, s.Hi) {
		return fmt.Errorf("campaign: shard ID %q does not match geometry", s.ID)
	}
	return nil
}

// checkDisjoint enforces the invariant the merge rests on — every pair
// belongs to at most one shard — by geometry alone: two shards share a pair
// exactly when they are in the same tile block and their [Lo,Hi) ranges
// intersect. Sorted by (block, Lo), any such two put an intersecting pair
// side by side, so one pass over neighbours finds it. A repeated shard is
// the degenerate overlap.
func checkDisjoint(shards []Shard) error {
	s := append([]Shard(nil), shards...)
	sort.Slice(s, func(a, b int) bool {
		if s[a].TI != s[b].TI {
			return s[a].TI < s[b].TI
		}
		if s[a].TJ != s[b].TJ {
			return s[a].TJ < s[b].TJ
		}
		return s[a].Lo < s[b].Lo
	})
	for k := 1; k < len(s); k++ {
		if p, q := s[k-1], s[k]; p.TI == q.TI && p.TJ == q.TJ && q.Lo < p.Hi {
			return fmt.Errorf("campaign: shards %s and %s overlap", p.ID, q.ID)
		}
	}
	return nil
}

// PairCount is how many pairs the shard covers.
func (s Shard) PairCount() int { return s.Hi - s.Lo }

// blockPairCount is how many unordered pairs live in tile block (ti,tj)
// of an n-relay matrix: for a diagonal block the upper triangle of the
// band, for an off-diagonal block the full rectangle (every j of a later
// band outranks every i of an earlier one).
func blockPairCount(ti, tj, n int) int {
	rows := bandExtent(ti, n)
	cols := bandExtent(tj, n)
	if ti == tj {
		return rows * (rows - 1) / 2
	}
	return rows * cols
}

// bandExtent is how many indices of [0,n) fall in tile band t.
func bandExtent(t, n int) int {
	lo := t << ting.TileShift
	if lo >= n {
		return 0
	}
	e := n - lo
	if e > ting.TileDim {
		e = ting.TileDim
	}
	return e
}

// Pairs derives the shard's pair list from the campaign's canonical name
// order. Workers and coordinator both call this, so the wire carries four
// integers per shard instead of a pair list.
func (s Shard) Pairs(names []string) ([][2]string, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	n := len(names)
	if c := blockPairCount(s.TI, s.TJ, n); s.Hi > c {
		return nil, fmt.Errorf("campaign: shard %s range [%d,%d) exceeds block's %d pairs (n=%d)",
			s.ID, s.Lo, s.Hi, c, n)
	}
	out := make([][2]string, 0, s.PairCount())
	iLo := s.TI << ting.TileShift
	jLo := s.TJ << ting.TileShift
	iN := bandExtent(s.TI, n)
	jN := bandExtent(s.TJ, n)
	idx := 0
	for a := 0; a < iN; a++ {
		i := iLo + a
		bStart := 0
		if s.TI == s.TJ {
			bStart = a + 1
		}
		rowLen := jN - bStart
		if rowLen <= 0 {
			continue
		}
		// Skip whole rows before Lo without enumerating them.
		if idx+rowLen <= s.Lo {
			idx += rowLen
			continue
		}
		for b := bStart; b < jN; b++ {
			if idx >= s.Hi {
				return out, nil
			}
			if idx >= s.Lo {
				out = append(out, [2]string{names[i], names[jLo+b]})
			}
			idx++
		}
	}
	if len(out) != s.PairCount() {
		return nil, fmt.Errorf("campaign: shard %s yielded %d pairs, want %d", s.ID, len(out), s.PairCount())
	}
	return out, nil
}

// Partition slices the pair space of an n-relay campaign into shards,
// aiming for target shards of roughly equal size. Shards never straddle
// tile blocks (so each stays tile-local in the merged matrix); blocks
// larger than the target chunk are split into contiguous ranges. The
// result is deterministic in (n, target) and ordered canonically — block
// (TI,TJ) lexicographic, then Lo ascending — which is also the order the
// coordinator merges submissions in.
func Partition(n, target int) []Shard {
	if n < 2 {
		return nil
	}
	if target < 1 {
		target = 1
	}
	total := n * (n - 1) / 2
	chunk := (total + target - 1) / target
	if chunk < 1 {
		chunk = 1
	}
	bands := (n + ting.TileDim - 1) >> ting.TileShift
	var shards []Shard
	for ti := 0; ti < bands; ti++ {
		for tj := ti; tj < bands; tj++ {
			c := blockPairCount(ti, tj, n)
			for lo := 0; lo < c; lo += chunk {
				hi := lo + chunk
				if hi > c {
					hi = c
				}
				shards = append(shards, NewShard(ti, tj, lo, hi))
			}
		}
	}
	return shards
}
