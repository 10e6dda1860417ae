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
	"math"
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

// fits checks the shard's geometry and that its range lies inside its tile
// block of an n-relay campaign — everything its pairs need to exist.
func (s Shard) fits(n int) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if c := blockPairCount(s.TI, s.TJ, n); s.Hi > c {
		return fmt.Errorf("campaign: shard %s range [%d,%d) exceeds block's %d pairs (n=%d)",
			s.ID, s.Lo, s.Hi, c, n)
	}
	return nil
}

// pairCursor walks a shard's pairs in canonical order — its tile block's
// pairs row-major (i ascending, then j), from index Lo up to Hi — as matrix
// indices, without materializing them. It is the one enumeration of a
// shard: Pairs, the worker's lease and the coordinator's submission check
// all walk it.
type pairCursor struct {
	i, j       int // the next pair
	jLo, jEnd  int // the block's column band
	diagonal   bool
	iEnd, left int // one past the band's last row; pairs still to yield
}

// cursor starts a walk at the shard's first pair in an n-relay campaign.
// The shard must fit n.
func (s Shard) cursor(n int) pairCursor {
	iLo, jLo := s.TI<<ting.TileShift, s.TJ<<ting.TileShift
	c := pairCursor{
		jLo:      jLo,
		jEnd:     jLo + bandExtent(s.TJ, n),
		diagonal: s.TI == s.TJ,
		iEnd:     iLo + bandExtent(s.TI, n),
		left:     s.PairCount(),
	}
	// Skip whole rows before Lo without enumerating them.
	skip := s.Lo
	for c.i = iLo; c.i < c.iEnd; c.i++ {
		c.j = c.rowStart(c.i)
		if skip < c.jEnd-c.j {
			c.j += skip
			break
		}
		skip -= c.jEnd - c.j
	}
	return c
}

// rowStart is row i's first column: past the diagonal in a diagonal block.
func (c *pairCursor) rowStart(i int) int {
	if c.diagonal {
		return i + 1
	}
	return c.jLo
}

// next yields the next pair's indices, i < j, and false once the shard's
// pairs are spent.
func (c *pairCursor) next() (i, j int, ok bool) {
	if c.left == 0 {
		return 0, 0, false
	}
	i, j = c.i, c.j
	c.left--
	if c.j++; c.j == c.jEnd {
		c.i++
		c.j = c.rowStart(c.i)
	}
	return i, j, true
}

// Pairs derives the shard's pair list from the campaign's canonical name
// order. The wire carries four integers per shard instead of a pair list.
func (s Shard) Pairs(names []string) ([][2]string, error) {
	if err := s.fits(len(names)); err != nil {
		return nil, err
	}
	out := make([][2]string, 0, s.PairCount())
	for c := s.cursor(len(names)); ; {
		i, j, ok := c.next()
		if !ok {
			return out, nil
		}
		out = append(out, [2]string{names[i], names[j]})
	}
}

// checkResults accepts a submission as named pairs (Coordinator.Complete)
// that lists the shard's pairs exactly in canonical order — every pair
// once, nothing missing, nothing extra — with finite RTTs, by walking the
// shard beside it: no pair list, no set, no allocation unless it refuses. A
// NaN or infinite RTT is refused: the journal cannot encode it, and a
// matrix document holding one does not decode. The shard must fit
// len(names).
func (s Shard) checkResults(names []string, results []PairResult) error {
	if len(results) != s.PairCount() {
		return fmt.Errorf("campaign: shard %s submission lists %d pairs, the shard has %d", s.ID, len(results), s.PairCount())
	}
	c := s.cursor(len(names))
	for k := range results {
		i, j, _ := c.next()
		r := &results[k]
		if r.X != names[i] || r.Y != names[j] {
			return fmt.Errorf("campaign: shard %s submission's pair %d is (%s,%s), want (%s,%s)",
				s.ID, k, r.X, r.Y, names[i], names[j])
		}
		if math.IsNaN(r.RTT) || math.IsInf(r.RTT, 0) {
			return fmt.Errorf("campaign: shard %s submission's pair %d (%s,%s) has rtt %v",
				s.ID, k, r.X, r.Y, r.RTT)
		}
	}
	return nil
}

// checkValues accepts a submission's index form for the shard, off the
// wire or a journal complete record: one value per pair, in the shard's
// canonical order, and the positions of its failed pairs, strictly
// increasing and each a position of the shard.
func (s Shard) checkValues(rtts []float64, failed []int) error {
	if len(rtts) != s.PairCount() {
		return fmt.Errorf("campaign: shard %s submission holds %d values, the shard has %d pairs", s.ID, len(rtts), s.PairCount())
	}
	prev := -1
	for _, k := range failed {
		if k <= prev || k >= len(rtts) {
			return fmt.Errorf("campaign: shard %s submission's failed positions %v are not increasing positions below %d",
				s.ID, failed, len(rtts))
		}
		prev = k
	}
	return nil
}

// record writes a checked submission into ledger, a matrix over the
// campaign's names, by the indices the shard's cursor yields: rtts holds a
// value per pair in canonical order and failed the increasing positions of
// the pairs that failed. A measured pair's cell is stamped fresh, a failed
// pair's stays missing and its value is not read. It returns how many pairs
// failed.
func (s Shard) record(ledger *ting.Matrix, rtts []float64, failed []int) int {
	c := s.cursor(ledger.N())
	f := 0
	for k, rtt := range rtts {
		i, j, _ := c.next()
		if f < len(failed) && failed[f] == k {
			f++
			continue
		}
		ledger.SetAt(i, j, rtt)
	}
	return len(failed)
}

// values is a named submission's index form, appended to rtts[:0]: each
// result's RTT in order. No pair of it failed.
func values(results []PairResult, rtts []float64) []float64 {
	rtts = rtts[:0]
	for _, r := range results {
		rtts = append(rtts, r.RTT)
	}
	return rtts
}

// ledgerValues reads the shard's index form off ledger, a matrix over the
// campaign's names, appending to rtts[:0] and failed[:0]: a pair the ledger
// holds a measurement of carries its RTT, any other pair failed. On a
// worker's ledger it is the lease's submission; on the coordinator's, the
// form the accepted submission was journaled in.
func (s Shard) ledgerValues(ledger *ting.Matrix, rtts []float64, failed []int) ([]float64, []int) {
	rtts, failed = rtts[:0], failed[:0]
	for c := s.cursor(ledger.N()); ; {
		i, j, ok := c.next()
		if !ok {
			return rtts, failed
		}
		if measured(ledger, i, j) {
			rtts = append(rtts, ledger.At(i, j))
		} else {
			failed = append(failed, len(rtts))
			rtts = append(rtts, 0)
		}
	}
}

// measured reports whether the ledger holds a measurement of pair (i, j).
func measured(ledger *ting.Matrix, i, j int) bool {
	p := ledger.ProvAt(i, j)
	return p == ting.ProvFresh || p == ting.ProvResumed
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
