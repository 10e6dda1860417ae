package inet

import (
	"math"
	"math/rand"
	"testing"

	"ting/internal/geo"
)

// TestStreamMatchesMathRand: at seeds that exercise math/rand's seed rules
// (0 and 2³¹−1 both become 89482311, negatives wrap, large seeds reduce mod
// 2³¹−1), interleaved Int63, Float64 and ExpFloat64 draws equal math/rand's
// bit for bit across thousands of block refills. The exponential draws must
// pass through the ziggurat's strip-0 tail and its rejection retry, the two
// branches a short run may never reach.
func TestStreamMatchesMathRand(t *testing.T) {
	const draws = 2_000_000 // per seed; 10⁷ over the table
	for _, seed := range []int64{0, 1, -5, 1<<31 - 1, 1<<33 + 7} {
		s := newStream(seed)
		ref := rand.New(rand.NewSource(seed))
		// c walks the same words as s, replaying the ziggurat's control
		// flow to count the branches each exponential draw takes.
		c := newStream(seed)
		var tails, retries int
		for n := 0; n < draws; n++ {
			switch n % 3 {
			case 0:
				c.word()
				if got, want := s.Int63(), ref.Int63(); got != want {
					t.Fatalf("seed %d draw %d: Int63 = %d, math/rand %d", seed, n, got, want)
				}
			case 1:
				c.Float64()
				if got, want := s.Float64(), ref.Float64(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d draw %d: Float64 = %v, math/rand %v", seed, n, got, want)
				}
			case 2:
				for j := uint32(c.word() >> 31); ; j = uint32(c.word() >> 31) {
					i := j & 0xFF
					if j < ke[i] {
						break
					}
					if i == 0 {
						tails++
						c.Float64()
						break
					}
					if fe[i]+float32(c.Float64())*(fe[i-1]-fe[i]) < float32(math.Exp(-float64(j)*float64(we[i]))) {
						break
					}
					retries++
				}
				if got, want := s.ExpFloat64(), ref.ExpFloat64(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d draw %d: ExpFloat64 = %v, math/rand %v", seed, n, got, want)
				}
			}
		}
		if tails == 0 || retries == 0 {
			t.Errorf("seed %d: %d strip-0 tail draws, %d rejection retries; want both > 0", seed, tails, retries)
		}
	}
}

// TestStreamFloat64Redraw: a word within 512 of 2⁶³ divides to exactly 1,
// which Float64 must not return; like math/rand, it consumes the next word
// instead.
func TestStreamFloat64Redraw(t *testing.T) {
	s := newStream(1)
	s.pos = rngLen - 1 // the redraw crosses a refill
	s.v[s.pos] = 1<<63 - 100
	if f := float64(int64(s.v[s.pos]&rngMask)) / (1 << 63); f != 1 {
		t.Fatalf("planted word divides to %v, want 1", f)
	}
	next := s.v[0] + s.v[rngLen-rngTap]
	got := s.Float64()
	if want := float64(int64(next&rngMask)) / (1 << 63); got != want || got >= 1 {
		t.Errorf("Float64 after a planted 1 = %v, want the next word's %v", got, want)
	}
	if s.pos != 1 {
		t.Errorf("cursor after the redraw = %d, want 1", s.pos)
	}
}

func BenchmarkExpFloat64(b *testing.B) {
	b.Run("rand", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		var sum float64
		for b.Loop() {
			sum += r.ExpFloat64()
		}
	})
	b.Run("stream", func(b *testing.B) {
		s := newStream(1)
		var sum float64
		for b.Loop() {
			sum += s.ExpFloat64()
		}
	})
}

// BenchmarkTorPathRTT times model-scan's series: 8 samples over a 4-hop
// circuit host → w → x → y → z → host.
func BenchmarkTorPathRTT(b *testing.B) {
	topo, err := Generate(Config{N: 100, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	host := topo.AddHost("host", geo.Coord{Lat: 39, Lon: -77}, 2)
	w := topo.AddColocated(host, "w")
	z := topo.AddColocated(host, "z")
	relays := []NodeID{w, 10, 20, z}
	p := NewProber(topo, 3)
	var out [8]float64
	for b.Loop() {
		if err := p.TorPathRTT(host, relays, out[:]); err != nil {
			b.Fatal(err)
		}
	}
}
