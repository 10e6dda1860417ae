// Command benchgate times the module's Go benchmarks at a base revision and
// in the working tree (the head), on the same host, and fails on a
// regression. Usage, from anywhere in the repository:
//
//	go run ./scripts/benchgate <base>
//
// It checks <base> out into a temporary git worktree and runs
//
//	go test -run '^$' -bench . -benchmem -benchtime 1s -skip '<paper scale>' ./...
//
// there and at the top of the working tree by turns (base, head, base, head,
// …), six runs a side, so that both sides see the same host through the
// same stretch of time. The three paper-scale benchmarks
// (BenchmarkMatrixCodec, BenchmarkRecoverCoordinator,
// BenchmarkWorldAtPaperScale) are never run: one run of each is the
// measurement, and each has its own CI step.
//
// A benchmark is keyed by package and name. It fails on time when the
// head's fastest ns/op is above the base's slowest by more than nsTolerance,
// and on allocations when the head's fewest allocs/op is above
// allocTolerance times the base's fewest and by more than allocFloor. A
// benchmark only the head has is reported as new, and one only the base has
// as gone; neither fails.
//
// Each side's spread, its slowest ns/op over its fastest, is printed for
// every benchmark. A benchmark that passes while the base's own spread is
// over 1 + nsTolerance is labelled unresolved rather than ok: its base runs
// disagree by more than the tolerance, so the time rule cannot see a
// slowdown of that size (a doubling, on the noisiest), and the pass says
// little. Unresolved does not fail.
//
// The report is a markdown table on stdout, progress goes to stderr. The
// exit status is 1 on a regression or when a run of the head fails, and 2
// when the gate cannot run or is interrupted (it removes its worktree either
// way). A failed run of the base is reported and what it printed still
// counts: a base that cannot run a benchmark does not block a head that can.
package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// runs is how many times each side runs every benchmark.
	runs = 6
	// benchTime is each benchmark's -benchtime in one run.
	benchTime = "1s"
	// nsTolerance is how far, as a fraction, the head's fastest run must
	// sit above the base's slowest to fail.
	nsTolerance = 0.1
	// allocTolerance and allocFloor bound allocs/op: the head fails above
	// allocTolerance × the base and more than allocFloor over it.
	allocTolerance = 1.25
	allocFloor     = 2
)

// paperScale names the benchmarks the gate never runs.
var paperScale = []string{"BenchmarkMatrixCodec", "BenchmarkRecoverCoordinator", "BenchmarkWorldAtPaperScale"}

// goTestArgs is the go command line of one run.
func goTestArgs() []string {
	return []string{"test", "-run", "^$", "-bench", ".", "-benchmem", "-benchtime", benchTime,
		"-skip", "^(" + strings.Join(paperScale, "|") + ")$", "./..."}
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: go run ./scripts/benchgate <base revision>")
		os.Exit(2)
	}
	os.Exit(run(os.Args[1], os.Stdout, os.Stderr))
}

// run is main without the process: the base revision, the report on stdout,
// progress and complaints on stderr, and the exit status.
func run(rev string, stdout, stderr io.Writer) int {
	// An interrupt stops the run in flight and still removes the worktree.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	top, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	if err != nil {
		fmt.Fprintln(stderr, "benchgate: git rev-parse --show-toplevel:", err)
		return 2
	}
	tmp, err := os.MkdirTemp("", "benchgate")
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 2
	}
	defer os.RemoveAll(tmp)
	baseDir := filepath.Join(tmp, "base")
	if out, err := exec.Command("git", "worktree", "add", "--detach", baseDir, rev).CombinedOutput(); err != nil {
		fmt.Fprintf(stderr, "benchgate: git worktree add %s: %v\n%s", rev, err, out)
		return 2
	}
	defer exec.Command("git", "worktree", "remove", "--force", baseDir).Run()

	base, head := results{}, results{}
	status := 0
	for i := 1; i <= runs; i++ {
		for _, side := range []struct {
			name, dir string
			into      results
		}{{"base", baseDir, base}, {"head", strings.TrimSpace(string(top)), head}} {
			fmt.Fprintf(stderr, "benchgate: run %d of %d, %s\n", i, runs, side.name)
			cmd := exec.CommandContext(ctx, "go", goTestArgs()...)
			// Killing go test can orphan the test binary it runs, which
			// still holds the output pipe: stop waiting for it.
			cmd.Dir, cmd.WaitDelay = side.dir, time.Second
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, &out
			runErr := cmd.Run()
			if ctx.Err() != nil {
				fmt.Fprintln(stderr, "benchgate: interrupted")
				return 2
			}
			if err := side.into.parse(&out); err != nil {
				fmt.Fprintln(stderr, "benchgate:", err)
				return 2
			}
			if runErr != nil {
				fmt.Fprintf(stderr, "benchgate: %s run %d: %v\n%s", side.name, i, runErr, out.Bytes())
				if side.name == "head" {
					status = 1
				}
			}
		}
	}
	if report(stdout, base, head) {
		status = 1
	}
	return status
}

// stats is one side's readings of one benchmark over its runs.
type stats struct{ nsMin, nsMax, allocsMin float64 }

// results holds one side's stats by "package/BenchmarkName".
type results map[string]*stats

// parse adds the readings of one run's go test output. A benchmark's name
// loses its -GOMAXPROCS suffix; a result line that follows the benchmark's
// own output belongs to the last name seen.
func (r results) parse(in io.Reader) error {
	var pkg, name string
	sc := bufio.NewScanner(in)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		switch {
		case len(f) == 0:
			continue
		case f[0] == "pkg:" && len(f) == 2:
			pkg, name = f[1], ""
			continue
		case strings.HasPrefix(f[0], "Benchmark"):
			name = f[0]
			if i := strings.LastIndexByte(name, '-'); i > 0 {
				if _, err := strconv.Atoi(name[i+1:]); err == nil {
					name = name[:i]
				}
			}
		}
		ns, ok := value(f, "ns/op")
		if !ok || name == "" {
			continue
		}
		allocs, _ := value(f, "allocs/op")
		key := pkg + "/" + name
		if s := r[key]; s != nil {
			s.nsMin, s.nsMax, s.allocsMin = min(s.nsMin, ns), max(s.nsMax, ns), min(s.allocsMin, allocs)
		} else {
			r[key] = &stats{ns, ns, allocs}
		}
	}
	return sc.Err()
}

// value is the number before unit on a benchmark's result line.
func value(fields []string, unit string) (float64, bool) {
	i := slices.Index(fields, unit)
	if i < 1 {
		return 0, false
	}
	v, err := strconv.ParseFloat(fields[i-1], 64)
	return v, err == nil
}

// verdict is the gate's decision for one benchmark (its stats are nil on
// the side that lacks it), and whether that decision fails the gate.
func verdict(base, head *stats) (string, bool) {
	switch {
	case base == nil:
		return "new", false
	case head == nil:
		return "gone", false
	}
	var why []string
	if head.nsMin > base.nsMax*(1+nsTolerance) {
		why = append(why, "slower")
	}
	if head.allocsMin > base.allocsMin*allocTolerance && head.allocsMin > base.allocsMin+allocFloor {
		why = append(why, "more allocs")
	}
	if why == nil {
		if base.spread() > 1+nsTolerance {
			return "unresolved", false
		}
		return "ok", false
	}
	return "**" + strings.Join(why, ", ") + "**", true
}

// report writes the markdown table and reports whether a benchmark failed.
func report(w io.Writer, base, head results) (failed bool) {
	fmt.Fprintf(w, "### Benchmarks: base vs head, %d runs a side at %s\n\n", runs, benchTime)
	fmt.Fprintln(w, "| benchmark | base ns/op | head ns/op | spread (base, head) | allocs/op (base → head) | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|")
	var names []string
	for name := range base {
		names = append(names, name)
	}
	for name := range head {
		if base[name] == nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fails, unresolved := 0, 0
	for _, name := range names {
		b, h := base[name], head[name]
		status, fail := verdict(b, h)
		if fail {
			fails++
		}
		if status == "unresolved" {
			unresolved++
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s, %s | %s → %s | %s |\n", name, b.nsRange(), h.nsRange(), b.spreadText(), h.spreadText(), b.allocs(), h.allocs(), status)
	}
	fmt.Fprintln(w)
	if unresolved > 0 {
		fmt.Fprintf(w, "%d benchmark(s) unresolved: the base's own runs spread over %.2f×, so a slowdown within that spread passes unseen.\n\n",
			unresolved, 1+nsTolerance)
	}
	if fails > 0 {
		fmt.Fprintf(w, "%d benchmark(s) regressed: slower means the head's fastest run is over %.0f%% above the base's slowest; more allocs means over %.2f× the base's fewest and by more than %d.\n",
			fails, nsTolerance*100, allocTolerance, allocFloor)
		return true
	}
	fmt.Fprintln(w, "No regression.")
	return false
}

// nsRange prints the fastest and slowest ns/op, "–" on the side without
// the benchmark.
func (s *stats) nsRange() string {
	if s == nil {
		return "–"
	}
	return num(s.nsMin) + "–" + num(s.nsMax)
}

// spread is the slowest ns/op over the fastest.
func (s *stats) spread() float64 { return s.nsMax / s.nsMin }

// spreadText prints the spread to two places, "–" on the side without the
// benchmark.
func (s *stats) spreadText() string {
	if s == nil {
		return "–"
	}
	return strconv.FormatFloat(s.spread(), 'f', 2, 64) + "×"
}

// allocs prints the fewest allocs/op, "–" on the side without the benchmark.
func (s *stats) allocs() string {
	if s == nil {
		return "–"
	}
	return num(s.allocsMin)
}

func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
