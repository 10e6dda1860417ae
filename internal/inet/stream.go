package inet

import (
	"math"
	"math/rand"
)

// rngLen and rngTap are the lags of math/rand's additive lagged Fibonacci
// generator: its n-th output is y[n] = y[n-607] + y[n-273] mod 2⁶⁴.
const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
)

// stream yields math/rand's seeded value stream bit for bit, a block at a
// time. The block v holds the generator's next rngLen outputs in order and
// pos is the cursor into it; when the cursor reaches the end, refill
// advances the whole block by one lag cycle in two plain loops, instead of
// math/rand's per-draw tap and feed bookkeeping behind an interface call.
// The first block is the first rngLen outputs of rand.NewSource(seed), so
// math/rand's own seeding (its seed rules and cooked table) is reused, not
// copied. Float64 and ExpFloat64 are math/rand's algorithms over the same
// words, so every draw equals the one a rand.Rand at the same seed makes.
type stream struct {
	v   [rngLen]uint64
	pos int
}

func newStream(seed int64) *stream {
	src := rand.NewSource(seed).(rand.Source64)
	s := new(stream)
	for k := range s.v {
		s.v[k] = src.Uint64()
	}
	return s
}

// refill replaces the block with the generator's next rngLen outputs:
// y[n+607] = y[n] + y[n+334], where y[n+334] is still in the old block for
// the first rngTap words and already in the new one after that. It runs
// once in rngLen words, so it stays out of line rather than being copied
// into every draw site of TorPathRTT's loop.
//
//go:noinline
func (s *stream) refill() {
	v := &s.v
	for k := 0; k < rngTap; k++ {
		v[k] += v[k+rngLen-rngTap]
	}
	for k := rngTap; k < rngLen; k++ {
		v[k] += v[k-rngTap]
	}
	s.pos = 0
}

// at returns the word at cursor k and the cursor after it, refilling the
// block when k has reached its end. Callers that draw many words keep the
// cursor in a local and store it back into pos around out-of-line draws.
func (s *stream) at(k int) (uint64, int) {
	if uint(k) < rngLen {
		return s.v[k], k + 1
	}
	s.refill()
	return s.v[0], 1
}

// word returns the next output of the generator.
func (s *stream) word() uint64 {
	w, k := s.at(s.pos)
	s.pos = k
	return w
}

// Int63 is (*rand.Rand).Int63.
func (s *stream) Int63() int64 { return int64(s.word() & rngMask) }

// Float64 is (*rand.Rand).Float64, including its redraw of a word so close
// to 2⁶³ that the division rounds to 1.
func (s *stream) Float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// ExpFloat64 is (*rand.Rand).ExpFloat64.
func (s *stream) ExpFloat64() float64 {
	return s.expFrom(uint32(s.word() >> 31))
}

// expFrom finishes math/rand's ziggurat from its first 32-bit draw j (the
// top 32 bits of a 63-bit Int63, which is what (*rand.Rand).Uint32 is):
// accept, sample the tail for strip 0, or run the rejection test and draw
// again. TorPathRTT inlines the accepting first step and calls this only
// when that step rejects.
func (s *stream) expFrom(j uint32) float64 {
	for {
		i := j & 0xFF
		x := float64(j) * float64(we[i])
		if j < ke[i] {
			return x
		}
		if i == 0 {
			return re - math.Log(s.Float64())
		}
		if fe[i]+float32(s.Float64())*(fe[i-1]-fe[i]) < float32(math.Exp(-x)) {
			return x
		}
		j = uint32(s.word() >> 31)
	}
}
