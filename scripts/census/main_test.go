package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// census runs the tool over testdata/mod against the given allowlist text.
func census(t *testing.T, allow string) (status int, stdout, stderr string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "census.allow")
	if err := os.WriteFile(path, []byte(allow), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errs bytes.Buffer
	status = run(filepath.Join("testdata", "mod"), path, &out, &errs)
	return status, out.String(), errs.String()
}

// What the mini-module's declarations are for: flagged, with the line the
// tool must print, or absent from the output.
var (
	wantFlagged = []string{
		"lib.Handle.Close  internal/lib/lib.go:25", // a common name nothing calls: the grep's blind spot
		"lib.DeadOuter  internal/lib/lib.go:28",    // no caller
		"lib.DeadInner  internal/lib/lib.go:30",    // called only by DeadOuter
		"lib.TestOnly  internal/lib/lib.go:35",     // called only by lib_test.go
		"lib.DemoOnly  internal/lib/lib.go:79",     // called only by examples/demo
		"lib.AllowedSeam  internal/lib/lib.go:41",  // flagged, and answered by the allowlist
		"lib.Config.Knob  internal/lib/lib.go:47",  // set only by its package's guarded default
		"lib.Fault.Drop  internal/lib/lib.go:72",   // set by nothing; the allowlist names the type
		"lib.Fault.Stall  internal/lib/lib.go:73",
	}
	wantReached = []string{
		"Square.Area", "NewSquare", "NewHandle", "Handle.Use", // Area only through a Shape value; examples/demo calls both too
		"Config.Size",    // keyed by a literal in cmd/app
		"Counter.Digest", // copy(c.Digest[:], b)
		"Counter.Hits",   // c.Hits.Add(1)
	}
)

const allowAll = `# every name the module flags
lib.Handle.Close  r
lib.DeadOuter     r
lib.DeadInner     r
lib.TestOnly      r
lib.DemoOnly      r
lib.AllowedSeam   a seam another package's tests use
lib.Config.Knob   r
lib.Fault         fault vocabulary nothing in the module sets
`

func TestCensusFlagsWhatNoCommandReaches(t *testing.T) {
	status, stdout, stderr := census(t, "lib.AllowedSeam  a seam another package's tests use\nlib.Fault  r\n")
	if status != 1 {
		t.Fatalf("status %d, want 1\n%s%s", status, stdout, stderr)
	}
	for _, line := range wantFlagged {
		if !strings.Contains(stdout, line+"\n") {
			t.Errorf("stdout lacks %q:\n%s", line, stdout)
		}
	}
	for _, name := range wantReached {
		if strings.Contains(stdout, name) {
			t.Errorf("%s is reached from cmd/app but was flagged:\n%s", name, stdout)
		}
	}
	if strings.Contains(stdout, "deadHelper") {
		t.Errorf("an unexported func was listed:\n%s", stdout)
	}
	for _, name := range []string{"lib.Handle.Close", "lib.DeadOuter", "lib.DeadInner", "lib.TestOnly", "lib.DemoOnly", "lib.Config.Knob"} {
		if !strings.Contains(stderr, name) {
			t.Errorf("stderr does not name %s as unlisted:\n%s", name, stderr)
		}
	}
	for _, name := range []string{"lib.AllowedSeam", "lib.Fault"} {
		if strings.Contains(stderr, name) {
			t.Errorf("the allowlisted %s was reported as unlisted:\n%s", name, stderr)
		}
	}
}

// What bench/ alone reaches or sets is kept alive — not flagged, the exit
// status unchanged — and printed, each name once, after the findings.
func TestCensusPassesWhenEveryFlaggedNameIsListed(t *testing.T) {
	status, stdout, stderr := census(t, allowAll)
	want := "bench only: lib.BenchOnly  internal/lib/lib.go:83\n" +
		"bench only: lib.Tuning.Depth  internal/lib/lib.go:85\n" +
		"census: ok (8 allowlisted)\n"
	if status != 0 || stderr != "" || !strings.HasSuffix(stdout, want) || strings.Count(stdout, "bench only:") != 2 {
		t.Fatalf("status %d\nstdout:\n%sstderr:\n%s", status, stdout, stderr)
	}
}

func TestCensusFailsOnStaleAllowlistLine(t *testing.T) {
	for _, stale := range []string{
		"lib.Gone",        // a func deleted long ago
		"lib.Config.Size", // a field main sets
		"lib.Counter",     // a type none of whose fields is flagged
	} {
		status, _, stderr := census(t, allowAll+stale+"  r\n")
		if status != 1 || !strings.Contains(stderr, stale) || !strings.Contains(stderr, "no longer flagged") {
			t.Errorf("%s: status %d, stderr:\n%s", stale, status, stderr)
		}
	}
}

func TestCensusRefusesAllowlistLineWithoutReason(t *testing.T) {
	status, _, stderr := census(t, "lib.AllowedSeam\n")
	if status != 2 || !strings.Contains(stderr, "no reason") {
		t.Fatalf("status %d, stderr:\n%s", status, stderr)
	}
}
