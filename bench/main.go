// Command bench is the repository's benchmark: four workloads — stack-scan,
// model-scan, campaign, serve — each timed end to end with tracing off and,
// in a separate traced run, broken down by layer. BENCHMARK.json at the
// repository root describes it to the benchmark driver; README.md in this
// directory describes it to people.
//
//	go run ./bench                      every workload, each in its own process
//	go run ./bench -workload serve      one workload, in this process
//	go run ./bench -trace spans.jsonl   also a traced run of each: per-layer table + spans
//	go run ./bench -agree               two full sets; fails if they disagree beyond the bounds
//
// The driver's form, -workload W -seed N -seconds S -trace 0|1, ends with
// one line of JSON: the end-to-end metrics, or with -trace 1 the per-layer
// ones.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// tmpRoot is inside the checkout (and .gitignore): the benchmark reads and
// writes nowhere else.
const tmpRoot = ".bench_tmp"

// childEnv marks a workload process started by a parent bench, which wants
// every metric on the last line, not only the driver's.
const childEnv = "TING_BENCH_CHILD"

var workloads = map[string]func(context.Context, config) (*result, error){
	stackScan: runStackScan,
	modelScan: runModelScan,
	campaignW: runCampaign,
	serveW:    runServe,
}

func main() {
	workload := flag.String("workload", "", "run only this workload, in this process (default: all four, each re-exec'd)")
	seed := flag.Int64("seed", 1, "seed for input generation (topology, lookup pairs, batch pool)")
	seconds := flag.Float64("seconds", 20, "length of each workload's timed part")
	trace := flag.String("trace", "0", "traced run: 0 = off, 1 = spans to "+tmpRoot+"/trace.jsonl, else the JSONL file to write")
	agree := flag.Bool("agree", false, "run two full sets and fail if a gated metric disagrees beyond its bound")
	flag.Parse()
	if flag.NArg() != 0 || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	// Workers and coordinators log through package log; none of it is output.
	log.SetOutput(io.Discard)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	traceFile := *trace
	switch traceFile {
	case "0":
		traceFile = ""
	case "1":
		traceFile = filepath.Join(tmpRoot, "trace.jsonl")
	}

	var err error
	switch {
	case *workload != "":
		err = runWorkload(ctx, *workload, config{seed: *seed, seconds: *seconds, trace: traceFile})
	case *agree:
		err = runAgree(ctx, *seed, *seconds)
	default:
		err = runAll(ctx, *seed, *seconds, traceFile)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runWorkload runs one workload in this process and ends with its JSON line.
func runWorkload(ctx context.Context, name string, cfg config) error {
	run, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(tmpRoot, name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	cfg.tmp = tmp
	child := os.Getenv(childEnv) != ""
	if cfg.trace != "" && !child {
		// A parent truncates once for all its children; a lone run for itself.
		if err := os.WriteFile(cfg.trace, nil, 0o644); err != nil {
			return err
		}
	}
	how := "trace off"
	if cfg.trace != "" {
		how = "half untraced, half traced"
	}
	fmt.Printf("== %s  seed %d, %.4g s timed, %s ==\n", name, cfg.seed, cfg.seconds, how)
	since := readUsage()
	res, err := run(ctx, cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	fmt.Printf("  CPU time the hypervisor withheld during the run (taken out of rates and setup_s): %.2f %%\n", 100*since.stolenShare())
	res.print(os.Stdout)
	if err := res.encode(os.Stdout, child); err != nil {
		return err
	}
	if !res.correct() {
		return fmt.Errorf("%s: %d correctness checks failed", name, len(res.problems))
	}
	return nil
}

// child runs one workload in a fresh process — a finished stack-scan leaves
// gigabytes of runtime Sys behind that would distort the next workload —
// forwarding its output and returning the metrics from its last line.
func child(ctx context.Context, name string, seed int64, seconds float64, traceFile string) (*childLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traceFile != "" {
		trace = traceFile
	}
	cmd := exec.CommandContext(ctx, exe,
		"-workload", name,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", trace)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
	cmd.WaitDelay = 10 * time.Second
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimRight(out.Bytes(), "\n"), []byte("\n"))
	last := lines[len(lines)-1]
	var line childLine
	if jsonErr := json.Unmarshal(last, &line); jsonErr != nil {
		os.Stdout.Write(out.Bytes())
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", name, runErr)
		}
		return nil, fmt.Errorf("%s: no result line: %w", name, jsonErr)
	}
	os.Stdout.Write(bytes.Join(lines[:len(lines)-1], []byte("\n")))
	fmt.Println()
	if runErr != nil {
		return &line, fmt.Errorf("%s: %w", name, runErr)
	}
	return &line, nil
}

// runSet runs every workload untraced and returns workload → metric → value.
func runSet(ctx context.Context, seed int64, seconds float64) (map[string]map[string]float64, error) {
	start := time.Now()
	set := map[string]map[string]float64{}
	for _, name := range workloadNames {
		line, err := child(ctx, name, seed, seconds, "")
		if err != nil {
			return nil, err
		}
		set[name] = line.EndToEnd
	}
	fmt.Printf("one full untraced set: %.1f s wall\n", time.Since(start).Seconds())
	return set, nil
}

func runAll(ctx context.Context, seed int64, seconds float64, traceFile string) error {
	if _, err := runSet(ctx, seed, seconds); err != nil {
		return err
	}
	if traceFile == "" {
		return nil
	}
	if dir := filepath.Dir(traceFile); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	if err := os.WriteFile(traceFile, nil, 0o644); err != nil {
		return err
	}
	for _, name := range workloadNames {
		if _, err := child(ctx, name, seed, seconds, traceFile); err != nil {
			return err
		}
	}
	fmt.Printf("spans of every workload: %s\n", traceFile)
	return nil
}

func runAgree(ctx context.Context, seed int64, seconds float64) error {
	first, err := runSet(ctx, seed, seconds)
	if err != nil {
		return err
	}
	second, err := runSet(ctx, seed, seconds)
	if err != nil {
		return err
	}
	if !agreement(os.Stdout, first, second) {
		return fmt.Errorf("two runs of the same code disagree beyond the bounds")
	}
	fmt.Println("two runs of the same code agree within every bound")
	return nil
}
