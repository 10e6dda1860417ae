package campaign

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"ting/internal/ting"
)

// leaseModel is the coordinator reduced to its lease rules, for
// TestCoordinatorAgainstLeaseModel. A grant takes the first pending shard
// at the next epoch; a lease expires once the clock passes its deadline; a
// heartbeat or a completion counts only at the shard's granted epoch; a
// shard takes one submission: by name, every pair once in canonical order
// with finite RTTs, or by index, one value per pair and the strictly
// increasing positions of its failed pairs. Heartbeats are not journaled, so a recovery restores the
// deadline of a shard's last grant record — or of its compaction.
type leaseModel struct {
	names  []string
	ttl    time.Duration
	now    func() time.Time
	epoch  uint64 // the highest epoch ever granted
	shards []*modelShard
	cells  map[[2]int]float64 // every measured pair of a done shard
}

type modelShard struct {
	id                  string
	pairs               [][2]int
	phase               shardPhase
	epoch               uint64
	deadline, journaled time.Time
	failed              int
}

func (m *leaseModel) expire() {
	for _, s := range m.shards {
		if s.phase == shardLeased && m.now().After(s.deadline) {
			s.phase = shardPending
		}
	}
}

func (m *leaseModel) acquire() (*modelShard, AcquireResult) {
	m.expire()
	res := AcquireDone
	for _, s := range m.shards {
		switch s.phase {
		case shardPending:
			m.epoch++
			s.phase, s.epoch, s.deadline = shardLeased, m.epoch, m.now().Add(m.ttl)
			s.journaled = s.deadline
			return s, AcquireGranted
		case shardLeased:
			res = AcquireNone
		}
	}
	return nil, res
}

func (m *leaseModel) heartbeat(s *modelShard, epoch uint64) error {
	m.expire()
	if epoch == 0 || epoch != s.epoch || s.phase == shardDone {
		return ErrFenced
	}
	s.phase, s.deadline = shardLeased, m.now().Add(m.ttl)
	return nil
}

var errRefused = errors.New("refused")

// submission is one completion TestCoordinatorAgainstLeaseModel sends: by
// name through Complete, the form the benchmark builds, or by index through
// completeValues, the form the CAMP server reads.
type submission struct {
	byName bool
	named  []PairResult
	rtts   []float64
	failed []int
}

func (m *leaseModel) complete(s *modelShard, epoch uint64, sub submission) error {
	m.expire()
	if epoch == 0 || epoch != s.epoch {
		return ErrFenced
	}
	if s.phase == shardDone {
		return nil
	}
	rtts, failed := sub.rtts, sub.failed
	if sub.byName {
		if len(sub.named) != len(s.pairs) {
			return errRefused
		}
		rtts = nil
		for k, p := range s.pairs {
			r := sub.named[k]
			if r.X != m.names[p[0]] || r.Y != m.names[p[1]] || math.IsNaN(r.RTT) || math.IsInf(r.RTT, 0) {
				return errRefused
			}
			rtts = append(rtts, r.RTT)
		}
	}
	if len(rtts) != len(s.pairs) {
		return errRefused
	}
	isFailed := map[int]bool{}
	for k, f := range failed {
		if f < 0 || f >= len(rtts) || k > 0 && f <= failed[k-1] {
			return errRefused
		}
		isFailed[f] = true
	}
	s.phase = shardDone
	for k, p := range s.pairs {
		if isFailed[k] {
			s.failed++
		} else {
			m.cells[p] = rtts[k]
		}
	}
	return nil
}

func (m *leaseModel) compact() {
	for _, s := range m.shards {
		s.journaled = s.deadline
	}
}

func (m *leaseModel) recover() {
	for _, s := range m.shards {
		if s.epoch > 0 && s.phase != shardDone {
			s.phase, s.deadline = shardLeased, s.journaled
		}
	}
}

// verdict names an error's kind: accepted, fenced, or refused otherwise.
func verdict(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrFenced):
		return "fenced"
	default:
		return "refused"
	}
}

// TestCoordinatorAgainstLeaseModel drives coordinators, in memory and
// journaled, through random sequences of grants, heartbeats, completions
// (by name or by index; at the granted epoch, a stale one or none; by name
// with a pair missing or out of place or a non-finite RTT, by index with
// failed pairs, a value missing or too many, or a failed position past the
// shard), clock jumps past the TTL, compactions and recoveries, and holds each to leaseModel: every verdict, every shard's
// state, epoch and failed count. Throughout, each pair is in at most one
// done shard — exactly one once the campaign is done — and granted epochs
// strictly increase across recoveries. A done campaign's Merged equals the
// model's cells, failed pairs missing, and a recovered or compacted
// coordinator's Merged encodes to the same bytes. The seed is printed on
// failure.
func TestCoordinatorAgainstLeaseModel(t *testing.T) {
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	for seq := 0; seq < 24; seq++ {
		n := []int{2, 3, 5, 9, 17, 70}[rng.Intn(6)]
		names := fakeNames(n)
		shards := Partition(n, 1+rng.Intn(8))
		journaled := seq%2 == 1
		var step int
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d, sequence %d (%d relays, %d shards, journaled %v), step %d: %s",
				seed, seq, n, len(shards), journaled, step, fmt.Sprintf(format, args...))
		}
		clock := newFakeClock()
		m := &leaseModel{names: names, ttl: time.Second, now: clock.now, cells: map[[2]int]float64{}}
		index := map[string]int{}
		for i, name := range names {
			index[name] = i
		}
		for _, sh := range shards {
			s := &modelShard{id: sh.ID}
			for _, p := range blockPairs(sh, names) {
				s.pairs = append(s.pairs, [2]int{index[p[0]], index[p[1]]})
			}
			m.shards = append(m.shards, s)
		}
		path := journalPath(t)
		var c *Coordinator
		var err error
		if journaled {
			c, err = NewJournaledCoordinator(names, shards, m.ttl, path, nil)
		} else {
			c, err = NewCoordinator(names, shards, m.ttl, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		c.clock = clock.now
		reopen := func() {
			if err := c.Journal().Close(); err != nil {
				fail("close journal: %v", err)
			}
			if c, err = RecoverCoordinator(path, nil); err != nil {
				fail("recover: %v", err)
			}
			c.clock = clock.now
			m.recover()
		}
		submit := func(s *modelShard) submission {
			var sub submission
			sub.byName = rng.Intn(2) == 0
			for k, p := range s.pairs {
				rtt := float64(1+rng.Intn(1e6)) / 1024
				switch {
				case sub.byName:
					sub.named = append(sub.named, PairResult{X: names[p[0]], Y: names[p[1]], RTT: rtt})
				case rng.Intn(8) == 0:
					sub.rtts, sub.failed = append(sub.rtts, 0), append(sub.failed, k)
				default:
					sub.rtts = append(sub.rtts, rtt)
				}
			}
			return sub
		}
		send := func(worker, id string, epoch uint64, sub submission) error {
			if sub.byName {
				return c.Complete(worker, id, epoch, sub.named)
			}
			return c.completeValues(worker, id, epoch, sub.rtts, sub.failed)
		}
		var lastGrant uint64
		check := func() {
			t.Helper()
			m.expire()
			st := c.Snapshot()
			if st.EpochWatermark != m.epoch {
				fail("epoch watermark %d, model %d", st.EpochWatermark, m.epoch)
			}
			owner, lost, done := map[[2]string]string{}, 0, 0
			for k, row := range st.Shards {
				s := m.shards[k]
				if row.State != s.phase.String() || row.Epoch != s.epoch || row.Failed != s.failed {
					fail("shard %s is %s at epoch %d with %d failed, model %s at %d with %d",
						row.ID, row.State, row.Epoch, row.Failed, s.phase, s.epoch, s.failed)
				}
				lost += s.failed
				if row.State != "done" {
					continue
				}
				done++
				for _, p := range blockPairs(shards[k], names) {
					if prev, dup := owner[p]; dup {
						fail("pair %v in done shards %s and %s", p, prev, row.ID)
					}
					owner[p] = row.ID
				}
			}
			if st.LostPairs != lost || st.Done != done {
				fail("snapshot %d done, %d lost; model %d, %d", st.Done, st.LostPairs, done, lost)
			}
			merged, err := c.Merged()
			if (err == nil) != (done == len(shards)) {
				fail("Merged with %d of %d shards done: %v", done, len(shards), err)
			}
			if err != nil {
				return
			}
			if len(owner) != n*(n-1)/2 {
				fail("%d pairs in done shards, want %d", len(owner), n*(n-1)/2)
			}
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					v, ok := m.cells[[2]int{i, j}]
					want := ting.ProvMissing
					if ok {
						want = ting.ProvFresh
					}
					if merged.At(i, j) != v || merged.ProvAt(i, j) != want {
						fail("merged (%d,%d) = %v %v, model %v %v", i, j, merged.At(i, j), merged.ProvAt(i, j), v, want)
					}
				}
			}
		}
		for ; step < 60; step++ {
			s := m.shards[rng.Intn(len(m.shards))]
			id, epoch := s.id, s.epoch
			if rng.Intn(4) == 0 {
				epoch = uint64(rng.Intn(int(m.epoch) + 2))
			}
			switch op := rng.Intn(12); {
			case op < 3:
				worker := fmt.Sprint("w", rng.Intn(3))
				l, res, err := c.Acquire(worker)
				ms, mres := m.acquire()
				if err != nil || res != mres {
					fail("acquire = %v, %v; model %v", res, err, mres)
				}
				if res != AcquireGranted {
					break
				}
				if l.Shard.ID != ms.id || l.Epoch != ms.epoch {
					fail("granted %s at %d, model %s at %d", l.Shard.ID, l.Epoch, ms.id, ms.epoch)
				}
				if l.Epoch <= lastGrant {
					fail("granted epoch %d after epoch %d", l.Epoch, lastGrant)
				}
				lastGrant = l.Epoch
			case op < 4:
				worker := fmt.Sprint("w", rng.Intn(3))
				if got, want := verdict(c.Heartbeat(worker, id, epoch)), verdict(m.heartbeat(s, epoch)); got != want {
					fail("heartbeat %s at %d: %s, model %s", id, epoch, got, want)
				}
			case op < 8:
				sub := submit(s)
				switch res := sub.named; rng.Intn(6) {
				case 0: // a pair or a value missing
					if sub.byName {
						sub.named = res[:len(res)-1]
					} else {
						sub.rtts = sub.rtts[:len(sub.rtts)-1]
					}
				case 1: // a pair out of place, or a value too many
					if sub.byName && len(res) > 1 {
						res[0], res[len(res)-1] = res[len(res)-1], res[0]
					} else if !sub.byName {
						sub.rtts = append(sub.rtts, 1)
					}
				case 2: // a value no journal can hold, or a failed pair past the shard
					if sub.byName {
						res[rng.Intn(len(res))].RTT = math.Inf(1)
					} else {
						sub.failed = append(sub.failed, len(sub.rtts))
					}
				}
				worker := fmt.Sprint("w", rng.Intn(3))
				got := verdict(send(worker, id, epoch, sub))
				if want := verdict(m.complete(s, epoch, sub)); got != want {
					fail("complete %s at %d: %s, model %s", id, epoch, got, want)
				}
			case op < 10:
				clock.advance(time.Duration(rng.Intn(3)) * 600 * time.Millisecond)
			case op == 10 && journaled:
				if err := c.CompactJournal(); err != nil {
					fail("compact: %v", err)
				}
				m.compact()
			case op == 11 && journaled:
				reopen()
			}
			check()
		}

		// Finish the campaign, then merge it live, recovered and compacted.
		for ; ; step++ {
			l, res, err := c.Acquire("w9")
			ms, mres := m.acquire()
			if err != nil || res != mres {
				fail("acquire = %v, %v; model %v", res, err, mres)
			}
			if res == AcquireDone {
				break
			}
			if res == AcquireNone {
				clock.advance(2 * time.Second)
				continue
			}
			sub := submit(ms)
			if err := send("w9", l.Shard.ID, l.Epoch, sub); err != nil || m.complete(ms, l.Epoch, sub) != nil {
				fail("completing %s: %v", l.Shard.ID, err)
			}
		}
		check()
		encoded := func() []byte {
			merged, err := c.Merged()
			if err != nil {
				fail("merge: %v", err)
			}
			var b bytes.Buffer
			if err := merged.Encode(&b); err != nil {
				fail("encode: %v", err)
			}
			return b.Bytes()
		}
		live := encoded()
		if !journaled {
			continue
		}
		reopen()
		if !bytes.Equal(encoded(), live) {
			fail("recovered merge differs from the live one")
		}
		if err := c.CompactJournal(); err != nil {
			fail("compact: %v", err)
		}
		reopen()
		if !bytes.Equal(encoded(), live) {
			fail("merge recovered from the compacted journal differs from the live one")
		}
		check()
		c.Journal().Close()
	}
}
