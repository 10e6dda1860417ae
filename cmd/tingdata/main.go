// Command tingdata inspects and compares the all-pairs RTT datasets that
// cmd/ting and cmd/experiments produce (the paper published its measured
// matrices; this is the companion tooling a consumer of such datasets
// needs).
//
// Usage:
//
//	tingdata stats   matrix.ting          # distribution summary
//	tingdata tivs    matrix.ting          # triangle inequality violations
//	tingdata compare old.ting new.ting    # stability between two scans
//	tingdata text    matrix.ting          # the cells as text, to stdout
//
// A matrix document is binary (ting.Matrix.Encode), the one form every
// command reads. "text" prints its cells for a human to read — a names
// header, one dense row per relay, and a "pred i j q" line per
// model-completed pair — and nothing reads that text back.
//
// Matrices from budgeted scans (ting -budget) mix measured and
// model-predicted cells. "tivs" skips violations whose direct leg is a
// prediction — they may be embedding artifacts, not real detours — unless
// -predicted is given, which lists them flagged instead.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"strconv"
	"strings"
	"unicode"

	"ting/internal/pathsel"
	"ting/internal/stats"
	"ting/internal/ting"
)

var withPredicted = flag.Bool("predicted", false,
	"tivs: include violations whose direct leg is a predicted cell, flagged")

func main() {
	log.SetFlags(0)
	log.SetPrefix("tingdata: ")
	flag.Parse()
	args := flag.Args()
	if len(args) < 2 {
		log.Fatal("usage: tingdata stats|tivs|compare|text <matrix.ting> [matrix2.ting]")
	}
	switch args[0] {
	case "stats":
		runStats(args[1])
	case "tivs":
		runTIVs(args[1])
	case "compare":
		if len(args) != 3 {
			log.Fatal("usage: tingdata compare old.ting new.ting")
		}
		runCompare(args[1], args[2])
	case "text":
		if err := writeText(os.Stdout, load(args[1])); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown command %q", args[0])
	}
}

func load(path string) *ting.Matrix {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	m, err := ting.DecodeMatrix(f)
	if err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	return m
}

func runStats(path string) {
	m := load(path)
	vals := m.PairValues()
	min, _ := stats.Min(vals)
	max, _ := stats.Max(vals)
	med, _ := stats.Median(vals)
	mean, _ := stats.Mean(vals)
	p10, _ := stats.Quantile(vals, 0.1)
	p90, _ := stats.Quantile(vals, 0.9)
	fmt.Printf("%s: %d relays, %d pairs\n", path, m.N(), len(vals))
	fmt.Printf("  RTT ms: min %.1f  p10 %.1f  median %.1f  mean %.1f  p90 %.1f  max %.1f\n",
		min, p10, med, mean, p90, max)
	unmeasured := 0
	for _, v := range vals {
		if v == 0 {
			unmeasured++
		}
	}
	if unmeasured > 0 {
		fmt.Printf("  WARNING: %d pairs unmeasured (zero)\n", unmeasured)
	}
	// Provenance persists in the document, cell by cell.
	if pc := m.ProvCounts(); pc.Predicted > 0 {
		fmt.Printf("  provenance: %d measured, %d predicted (budgeted scan)\n",
			pc.Measured(), pc.Predicted)
	}
}

func runTIVs(path string) {
	m := load(path)
	all, err := pathsel.FindTIVs(m)
	if err != nil {
		log.Fatal(err)
	}
	// Violations resting on a predicted direct leg may be embedding
	// artifacts; keep them out of the headline numbers.
	var tivs []pathsel.TIV
	predicted := 0
	for _, t := range all {
		if t.Predicted {
			predicted++
			if !*withPredicted {
				continue
			}
		}
		tivs = append(tivs, t)
	}
	n := m.N()
	pairs := n * (n - 1) / 2
	fmt.Printf("%s: %d of %d pairs (%.1f%%) have a TIV detour\n",
		path, len(tivs), pairs, 100*float64(len(tivs))/float64(pairs))
	if predicted > 0 && !*withPredicted {
		fmt.Printf("  skipped %d violations on predicted direct legs (re-run with -predicted to list)\n",
			predicted)
	}
	if len(tivs) == 0 {
		return
	}
	savings := make([]float64, len(tivs))
	for i, t := range tivs {
		savings[i] = t.SavingsFraction()
	}
	med, _ := stats.Median(savings)
	p90, _ := stats.Quantile(savings, 0.9)
	fmt.Printf("  savings: median %.1f%%, p90 %.1f%%\n", 100*med, 100*p90)

	// Show the five biggest detour wins.
	for i := 0; i < len(tivs); i++ {
		for j := i; j > 0 && tivs[j].SavingsFraction() > tivs[j-1].SavingsFraction(); j-- {
			tivs[j], tivs[j-1] = tivs[j-1], tivs[j]
		}
	}
	if len(tivs) > 5 {
		tivs = tivs[:5]
	}
	fmt.Println("  top detours:")
	for _, t := range tivs {
		mark := ""
		if t.Predicted {
			mark = "  [predicted]"
		}
		fmt.Printf("    %s ↔ %s: %.1fms direct, %.1fms via %s (−%.1f%%)%s\n",
			m.Names()[t.S], m.Names()[t.D], t.DirectMs, t.DetourMs, m.Names()[t.R],
			100*t.SavingsFraction(), mark)
	}
}

func runCompare(oldPath, newPath string) {
	a, b := load(oldPath), load(newPath)
	shared := make(map[string]bool)
	for _, n := range a.Names() {
		shared[n] = true
	}
	var common []string
	for _, n := range b.Names() {
		if shared[n] {
			common = append(common, n)
		}
	}
	if len(common) < 2 {
		log.Fatal("matrices share fewer than two relays")
	}
	var ratios, diffs []float64
	for i := 0; i < len(common); i++ {
		for j := i + 1; j < len(common); j++ {
			va, _ := a.RTT(common[i], common[j])
			vb, _ := b.RTT(common[i], common[j])
			if va <= 0 || vb <= 0 {
				continue
			}
			ratios = append(ratios, vb/va)
			d := vb - va
			if d < 0 {
				d = -d
			}
			diffs = append(diffs, d)
		}
	}
	if len(ratios) == 0 {
		log.Fatal("no measured pairs in common")
	}
	medR, _ := stats.Median(ratios)
	medD, _ := stats.Median(diffs)
	p90D, _ := stats.Quantile(diffs, 0.9)
	within := stats.FractionWithin(ratios, 0.1)
	fmt.Printf("compare %s → %s: %d shared relays, %d measured pairs\n",
		oldPath, newPath, len(common), len(ratios))
	fmt.Printf("  median new/old ratio %.3f; |Δ| median %.1fms, p90 %.1fms; %.1f%% within 10%%\n",
		medR, medD, p90D, 100*within)
	fmt.Println("  (§4.6: Ting scans stay stable for a week; large drift here means re-measure)")
}

// writeText writes m in the text form: "tingmatrix n=<n>", the names on one
// line, one row of n cells per relay (each value in the shortest form that
// parses back to it), and a "pred i j q" line for every predicted pair i < j
// at confidence q/255. Measured provenance is not written: the text is a
// view of the document, not a second form of it.
func writeText(w io.Writer, m ting.MatrixView) error {
	names := m.Names()
	for _, name := range names {
		if strings.ContainsFunc(name, unicode.IsSpace) {
			return fmt.Errorf("relay name %q holds white space, which the text form cannot", name)
		}
	}
	n := len(names)
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "tingmatrix n=%d\n%s\n", n, strings.Join(names, " "))
	num := make([]byte, 0, 32)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j > 0 {
				bw.WriteByte(' ')
			}
			bw.Write(strconv.AppendFloat(num[:0], m.At(i, j), 'g', -1, 64))
		}
		bw.WriteByte('\n')
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if m.ProvAt(i, j) == ting.ProvPredicted {
				fmt.Fprintf(bw, "pred %d %d %d\n", i, j, int(math.Round(m.ConfAt(i, j)*255)))
			}
		}
	}
	return bw.Flush()
}
