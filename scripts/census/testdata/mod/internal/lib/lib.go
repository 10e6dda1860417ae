// Package lib holds one declaration per census rule; main_test.go says what
// each is expected to do.
package lib

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
