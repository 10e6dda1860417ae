// Package lib holds one declaration per census rule; main_test.go says what
// each is expected to do.
package lib

import "sync/atomic"

// Shape is implemented by Square; main calls Area through it.
type Shape interface{ Area() int }

type Square struct{ side int }

func NewSquare(side int) *Square { return &Square{side} }

// Area is reached only through a Shape value: not flagged.
func (s *Square) Area() int { return s.side * s.side }

// Handle is reachable and is never used as an io.Closer.
type Handle struct{}

func NewHandle() *Handle { return &Handle{} }

func (*Handle) Use() {}

// Close has a name every grep finds somewhere; nothing calls it: flagged.
func (*Handle) Close() error { return nil }

// DeadOuter has no caller, and is DeadInner's only one: both flagged.
func DeadOuter() int { return DeadInner() + deadHelper() }

func DeadInner() int { return 1 }

func deadHelper() int { return 2 }

// TestOnly is called from lib_test.go alone: flagged.
func TestOnly() int { return 3 }

// Allowed is nil-compared by main, so it is reached; AllowedSeam is not and
// the allowlist names it.
var Allowed func()

func AllowedSeam() {}

// Config is a caller's options: Size is keyed by main's literal, Knob only
// by Open's guarded default, which is not a caller: flagged.
type Config struct {
	Size int
	Knob int
}

// Counter's fields are written in place: Digest through a slice of the
// array, Hits through a pointer-receiver method. Neither is flagged.
type Counter struct {
	Digest [4]byte
	Hits   atomic.Int64
	size   int
}

func Open(c Config) *Counter {
	if c.Knob == 0 {
		c.Knob = 3
	}
	return &Counter{size: c.Size * c.Knob}
}

func (c *Counter) Touch(b []byte) {
	copy(c.Digest[:], b)
	c.Hits.Add(1)
}

// Fault's fields are set by nothing: the allowlist names the type.
type Fault struct {
	Drop  float64
	Stall float64
}

func (f Fault) Lossy() bool { return f.Drop > 0 || f.Stall > 0 }

// DemoOnly is reached from examples/demo alone: flagged.
func DemoOnly() int { return 4 }

// BenchOnly is reached from bench alone, and Tuning.Depth is set by bench
// alone: neither is flagged, and both are printed as bench only.
func BenchOnly() int { return 5 }

type Tuning struct{ Depth int }
