package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// canned parses testdata/base.txt and testdata/head.txt, six go test runs a
// side of two mini-packages: in ting/internal/a, BenchmarkDoubled takes twice
// as long at the head, BenchmarkOverlap reads 100–140 ns/op at the base and
// 120–160 at the head, BenchmarkAllocsPlus3 goes from 10 to 13 allocs/op and
// BenchmarkAllocsPlus2 from 4 to 6 (its head result follows a line it
// logged); ting/internal/b has a BenchmarkDoubled that does not move, a
// BenchmarkGone only the base has and a BenchmarkNew only the head has.
func canned(t *testing.T) (base, head results) {
	t.Helper()
	base, head = results{}, results{}
	for file, into := range map[string]results{"base.txt": base, "head.txt": head} {
		f, err := os.Open(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		err = into.parse(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	return base, head
}

// verdictOf is the gate's decision on one canned benchmark.
func verdictOf(t *testing.T, name string) string {
	t.Helper()
	base, head := canned(t)
	v, _ := verdict(base[name], head[name])
	return v
}

func TestParseKeysByPackageAndName(t *testing.T) {
	base, head := canned(t)
	for name, want := range map[string][2]stats{
		"ting/internal/a/BenchmarkOverlap":     {{100, 140, 0}, {120, 160, 0}},
		"ting/internal/a/BenchmarkAllocsPlus2": {{911.1, 947.3, 4}, {906, 944.1, 6}},
	} {
		if *base[name] != want[0] || *head[name] != want[1] {
			t.Errorf("%s: base %+v, head %+v; want %+v, %+v", name, *base[name], *head[name], want[0], want[1])
		}
	}
	if len(base) != 6 || len(head) != 6 {
		t.Errorf("%d base and %d head benchmarks, want 6 each", len(base), len(head))
	}
}

func TestGateFlagsADoubling(t *testing.T) {
	if v := verdictOf(t, "ting/internal/a/BenchmarkDoubled"); v != "**slower**" {
		t.Errorf("2× slowdown: %s", v)
	}
	if v := verdictOf(t, "ting/internal/b/BenchmarkDoubled"); v != "ok" {
		t.Errorf("the other package's unchanged BenchmarkDoubled: %s", v)
	}
}

func TestGatePassesOverlappingRanges(t *testing.T) {
	if v := verdictOf(t, "ting/internal/a/BenchmarkOverlap"); v != "ok" {
		t.Errorf("overlapping ranges: %s", v)
	}
}

func TestGateAllocationRule(t *testing.T) {
	if v := verdictOf(t, "ting/internal/a/BenchmarkAllocsPlus3"); v != "**more allocs**" {
		t.Errorf("10 → 13 allocs/op: %s", v)
	}
	if v := verdictOf(t, "ting/internal/a/BenchmarkAllocsPlus2"); v != "ok" {
		t.Errorf("4 → 6 allocs/op: %s", v)
	}
}

func TestGateNewAndGoneNeverFail(t *testing.T) {
	base, head := canned(t)
	var out bytes.Buffer
	gone, added := "ting/internal/b/BenchmarkGone", "ting/internal/b/BenchmarkNew"
	if report(&out, results{gone: base[gone]}, results{added: head[added]}) {
		t.Errorf("a new and a gone benchmark fail the gate:\n%s", out.String())
	}
	for _, row := range []string{"| " + gone + " | ", "| gone |", "| " + added + " | ", "| new |"} {
		if !strings.Contains(out.String(), row) {
			t.Errorf("report lacks %q:\n%s", row, out.String())
		}
	}
}

func TestReportFailsOnEveryRegression(t *testing.T) {
	base, head := canned(t)
	var out bytes.Buffer
	if !report(&out, base, head) {
		t.Fatalf("report passes:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "2 benchmark(s) regressed") {
		t.Errorf("report does not count 2 regressions:\n%s", out.String())
	}
}

func TestGateNeverRunsPaperScale(t *testing.T) {
	args := goTestArgs()
	i := slices.Index(args, "-skip")
	if i < 0 {
		t.Fatalf("no -skip in %q", args)
	}
	skip := regexp.MustCompile(args[i+1])
	for _, name := range []string{"BenchmarkMatrixCodec", "BenchmarkRecoverCoordinator", "BenchmarkWorldAtPaperScale"} {
		if !skip.MatchString(name) {
			t.Errorf("-skip %q runs %s", args[i+1], name)
		}
	}
	for _, name := range []string{"BenchmarkMatrixClone", "BenchmarkFig14TIVs", "BenchmarkMatrixCodecs"} {
		if skip.MatchString(name) {
			t.Errorf("-skip %q skips %s", args[i+1], name)
		}
	}
}
