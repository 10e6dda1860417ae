// Command experiments regenerates every figure of the paper's evaluation
// (Figures 3–18), the headline numbers, and the ablation studies, printing
// summary rows and writing gnuplot-style .dat series.
//
// Usage:
//
//	experiments -fig all [-out data] [-quick] [-seed 42]
//	experiments -fig 12
//	experiments -fig headlines
//	experiments -fig ablations
//	experiments -fig completion
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"ting/internal/experiments"
	"ting/internal/stats"
	"ting/internal/wal"
)

// figure is one name -fig accepts and what regenerates it.
type figure struct {
	name string
	run  func(*runner) error
}

// figures is every figure the command regenerates, in the order -fig all
// runs them; it also spells out the -fig usage.
var figures = []figure{
	{"3", (*runner).runFig3},
	{"4", (*runner).runFig4},
	{"5", (*runner).runFig5},
	{"6", (*runner).runFig6},
	{"7", (*runner).runFig7},
	{"8", (*runner).runFig8},
	{"9", (*runner).runFig9},
	{"10", (*runner).runFig10},
	{"11", (*runner).runFig11},
	{"12", (*runner).runFig12},
	{"13", (*runner).runFig13},
	{"14", (*runner).runFig14},
	{"15", (*runner).runFig15},
	{"16", (*runner).runFig16},
	{"17", (*runner).runFig17},
	{"18", (*runner).runFig18},
	{"headlines", (*runner).runHeadlines},
	{"ablations", (*runner).runAblations},
	{"king", (*runner).runKing},
	{"defenses", (*runner).runDefenses},
	{"selection", (*runner).runSelection},
	{"completion", (*runner).runCompletion},
}

func figureNames() []string {
	names := make([]string, len(figures))
	for i, f := range figures {
		names[i] = f.name
	}
	return names
}

var (
	figFlag   = flag.String("fig", "all", "figures to regenerate, comma-separated: "+strings.Join(figureNames(), ", ")+", or all")
	outFlag   = flag.String("out", "data", "directory for .dat series")
	quickFlag = flag.Bool("quick", false, "run at reduced scale (for smoke tests)")
	seedFlag  = flag.Int64("seed", 42, "base random seed")
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	flag.Parse()
	if err := os.MkdirAll(*outFlag, 0o755); err != nil {
		log.Fatal(err)
	}
	r := &runner{out: *outFlag, quick: *quickFlag, seed: *seedFlag}
	if err := r.run(*figFlag); err != nil {
		log.Fatal(err)
	}
}

// runner caches shared results (Fig 3 data feeds 4 and 7; Fig 11 feeds
// 12–17).
type runner struct {
	out   string
	quick bool
	seed  int64

	f3  *experiments.Fig3Result
	f9  *experiments.Fig9Result
	f11 *experiments.Fig11Result
	f12 *experiments.Fig12Result
	f14 *experiments.Fig14Result
	f16 *experiments.Fig16Result
	f18 *experiments.Fig18Result
}

// run regenerates a comma-separated list of figures, or every figure in
// table order for "all".
func (r *runner) run(list string) error {
	names := strings.Split(list, ",")
	if list == "all" {
		names = figureNames()
	}
	for _, name := range names {
		name = strings.TrimSpace(name)
		i := slices.IndexFunc(figures, func(f figure) bool { return f.name == name })
		if i < 0 {
			return fmt.Errorf("fig %s: unknown figure %q", name, name)
		}
		if err := figures[i].run(r); err != nil {
			return fmt.Errorf("fig %s: %w", name, err)
		}
	}
	return nil
}

// memo returns *slot, computing and storing it on first use. A failed
// computation stores nothing.
func memo[T any](slot **T, compute func() (*T, error)) (*T, error) {
	if *slot == nil {
		v, err := compute()
		if err != nil {
			return nil, err
		}
		*slot = v
	}
	return *slot, nil
}

func (r *runner) fig3cfg() experiments.Fig3Config {
	cfg := experiments.Fig3Config{Ordered: true, Seed: r.seed}
	if r.quick {
		cfg = experiments.Fig3Config{Nodes: 12, Samples: 150, PingSamples: 40, Seed: r.seed}
	}
	return cfg
}

func (r *runner) ensureF3() (*experiments.Fig3Result, error) {
	return memo(&r.f3, func() (*experiments.Fig3Result, error) { return experiments.Fig3(r.fig3cfg()) })
}

func (r *runner) ensureF9() (*experiments.Fig9Result, error) {
	return memo(&r.f9, func() (*experiments.Fig9Result, error) {
		cfg := experiments.Fig9Config{Seed: r.seed}
		if r.quick {
			cfg = experiments.Fig9Config{WorldNodes: 40, PairCount: 12, Hours: 24, Samples: 80, Seed: r.seed}
		}
		return experiments.Fig9(cfg)
	})
}

func (r *runner) ensureF11() (*experiments.Fig11Result, error) {
	return memo(&r.f11, func() (*experiments.Fig11Result, error) {
		cfg := experiments.Fig11Config{Seed: r.seed}
		if r.quick {
			cfg = experiments.Fig11Config{Nodes: 25, Samples: 60, Seed: r.seed}
		}
		return experiments.Fig11(cfg)
	})
}

func (r *runner) ensureF12() (*experiments.Fig12Result, error) {
	return memo(&r.f12, func() (*experiments.Fig12Result, error) {
		f11, err := r.ensureF11()
		if err != nil {
			return nil, err
		}
		cfg := experiments.Fig12Config{Seed: r.seed}
		if r.quick {
			cfg.Trials = 200
		}
		return experiments.Fig12(f11, cfg)
	})
}

func (r *runner) ensureF14() (*experiments.Fig14Result, error) {
	return memo(&r.f14, func() (*experiments.Fig14Result, error) {
		f11, err := r.ensureF11()
		if err != nil {
			return nil, err
		}
		return experiments.Fig14(f11)
	})
}

func (r *runner) ensureF16() (*experiments.Fig16Result, error) {
	return memo(&r.f16, func() (*experiments.Fig16Result, error) {
		f11, err := r.ensureF11()
		if err != nil {
			return nil, err
		}
		cfg := experiments.Fig16Config{Seed: r.seed}
		if r.quick {
			cfg.Samples = 3000
		}
		return experiments.Fig16(f11, cfg)
	})
}

func (r *runner) ensureF18() (*experiments.Fig18Result, error) {
	return memo(&r.f18, func() (*experiments.Fig18Result, error) {
		cfg := experiments.Fig18Config{Seed: r.seed}
		if r.quick {
			cfg = experiments.Fig18Config{Days: 20, Relays: 2000, Seed: r.seed}
		}
		return experiments.Fig18(cfg)
	})
}

// writeDat publishes whitespace-separated rows under a "# header" line
// through wal.WriteFile: a failed write or close is returned, and a crash
// leaves the old file or the new one, never part of either.
func (r *runner) writeDat(name, header string, rows [][]float64) error {
	path := filepath.Join(r.out, name)
	err := wal.WriteFile(path, func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		fmt.Fprintf(bw, "# %s\n", header)
		for _, row := range rows {
			// fmt prints a []float64 as "[v1 v2 …]", each value %g.
			fmt.Fprintln(bw, strings.Trim(fmt.Sprint(row), "[]"))
		}
		return bw.Flush()
	})
	if err != nil {
		return err
	}
	fmt.Printf("  wrote %s (%d rows)\n", path, len(rows))
	return nil
}

func cdfRows(xs []float64) [][]float64 { return cdfPoints(stats.NewCDF(xs)) }

// cdfPoints lays a CDF out as (value, cumulative fraction) rows; a CDF that
// could not be built (no data) is no rows.
func cdfPoints(c *stats.CDF, err error) [][]float64 {
	if err != nil {
		return nil
	}
	vals, ps := c.Points()
	rows := make([][]float64, len(vals))
	for i := range vals {
		rows[i] = []float64{vals[i], ps[i]}
	}
	return rows
}

func (r *runner) runFig3() error {
	res, err := r.ensureF3()
	if err != nil {
		return err
	}
	sp, err := res.Spearman()
	if err != nil {
		return err
	}
	fmt.Printf("Fig 3: %d pairs; within 10%%: %.1f%% (paper 91%%); err>30%%: %.1f%% (paper <2%%); spearman %.4f (paper 0.997)\n",
		len(res.Pairs), 100*res.Within(0.1), 100*(1-res.Within(0.3)), sp)
	return r.writeDat("fig3_cdf.dat", "measured/real cumulative-fraction", cdfRows(res.Ratios()))
}

func (r *runner) runFig4() error {
	res, err := r.ensureF3()
	if err != nil {
		return err
	}
	buckets := experiments.Fig4(res)
	for _, b := range buckets {
		fmt.Printf("Fig 4 [%s]: %d pairs, within 10%%: %.1f%%\n", b.Label, len(b.Ratios), 100*b.Within10)
		name := fmt.Sprintf("fig4_%s.dat", strings.NewReplacer("<", "lt", ">", "gt", "-", "_").Replace(b.Label))
		if len(b.Ratios) == 0 {
			continue
		}
		if err := r.writeDat(name, "measured/real cumulative-fraction ("+b.Label+")", cdfRows(b.Ratios)); err != nil {
			return err
		}
	}
	return nil
}

func (r *runner) runFig5() error {
	cfg := experiments.Fig5Config{Seed: r.seed}
	if r.quick {
		cfg = experiments.Fig5Config{Nodes: 16, Rounds: 6, CircuitSamples: 150, PingSamples: 40, Seed: r.seed}
	}
	res, err := experiments.Fig5(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("Fig 5: %d hosts, abnormal fraction %.1f%% (paper ~35%%)\n",
		len(res.Hosts), 100*res.AbnormalFraction())
	rows := make([][]float64, 0, len(res.Hosts))
	for i, h := range res.Hosts {
		rows = append(rows, []float64{float64(i),
			h.ICMP.Median, h.ICMP.Q1, h.ICMP.Q3, h.ICMP.WhiskerLow, h.ICMP.WhiskerHigh,
			h.TCP.Median, h.TCP.Q1, h.TCP.Q3, h.TCP.WhiskerLow, h.TCP.WhiskerHigh,
		})
	}
	return r.writeDat("fig5_boxes.dat",
		"host icmp(med q1 q3 lo hi) tcp(med q1 q3 lo hi) — sorted by ICMP median", rows)
}

func (r *runner) runFig6() error {
	cfg := experiments.Fig6Config{Seed: r.seed}
	if r.quick {
		cfg = experiments.Fig6Config{WorldNodes: 30, Pairs: 40, Samples: 400, Seed: r.seed}
	}
	res, err := experiments.Fig6(cfg)
	if err != nil {
		return err
	}
	for _, s := range []string{"min", "1ms", "1pct", "5pct", "10pct"} {
		vals, err := res.Series(s)
		if err != nil {
			return err
		}
		med, _ := stats.Median(vals)
		fmt.Printf("Fig 6 [%s]: median %.0f samples\n", s, med)
		if err := r.writeDat("fig6_"+s+".dat", "samples cumulative-fraction ("+s+")", cdfRows(vals)); err != nil {
			return err
		}
	}
	return nil
}

func (r *runner) runFig7() error {
	cfg := r.fig3cfg()
	samplesA, samplesB := 200, 1000
	if r.quick {
		samplesA, samplesB = 50, 250
	}
	res, err := experiments.Fig7(cfg, samplesA, samplesB)
	if err != nil {
		return err
	}
	fmt.Printf("Fig 7: %d samples within10 %.1f%% vs %d samples within10 %.1f%% (nearly identical per paper)\n",
		res.SamplesA, 100*res.A.Within(0.1), res.SamplesB, 100*res.B.Within(0.1))
	if err := r.writeDat(fmt.Sprintf("fig7_%d.dat", res.SamplesA), "estimated/real cumulative-fraction", cdfRows(res.A.Ratios())); err != nil {
		return err
	}
	return r.writeDat(fmt.Sprintf("fig7_%d.dat", res.SamplesB), "estimated/real cumulative-fraction", cdfRows(res.B.Ratios()))
}

func (r *runner) runFig8() error {
	cfg := experiments.Fig8Config{Seed: r.seed}
	if r.quick {
		cfg = experiments.Fig8Config{WorldNodes: 120, Pairs: 800, Samples: 60, Seed: r.seed}
	}
	res, err := experiments.Fig8(cfg)
	if err != nil {
		return err
	}
	below, explained := res.BelowLightSpeedStats()
	fmt.Printf("Fig 8: %d pairs; fit %.4f ms/km + %.1f ms (Htrae %.4f/%.1f); %d below (2/3)c, %d from geo errors\n",
		len(res.Points), res.Fit.Slope, res.Fit.Intercept,
		experiments.HtraeFit.Slope, experiments.HtraeFit.Intercept, below, explained)
	rows := make([][]float64, len(res.Points))
	for i, p := range res.Points {
		ge := 0.0
		if p.GeoError {
			ge = 1
		}
		rows[i] = []float64{p.DistanceKm, p.RTTms, ge}
	}
	// The paper plots the CDF of each axis in the scatter's margins.
	if err := r.writeDat("fig8_distance_cdf.dat", "distance-km cumulative-fraction", cdfPoints(res.DistanceCDF())); err != nil {
		return err
	}
	if err := r.writeDat("fig8_rtt_cdf.dat", "rtt-ms cumulative-fraction", cdfPoints(res.RTTCDF())); err != nil {
		return err
	}
	return r.writeDat("fig8_scatter.dat", "distance-km rtt-ms geo-error", rows)
}

func (r *runner) runFig9() error {
	res, err := r.ensureF9()
	if err != nil {
		return err
	}
	fmt.Printf("Fig 9: %d pairs; cv<0.5 for %.1f%% (paper 96.7%%)\n",
		len(res.Pairs), 100*res.FractionBelow(0.5))
	return r.writeDat("fig9_cv.dat", "cv cumulative-fraction", cdfRows(res.CVs()))
}

func (r *runner) runFig10() error {
	res, err := r.ensureF9()
	if err != nil {
		return err
	}
	ordered := experiments.Fig10(res)
	rows := make([][]float64, len(ordered))
	for i, p := range ordered {
		rows[i] = []float64{float64(i), p.Box.Median, p.Box.Q1, p.Box.Q3, p.Box.WhiskerLow, p.Box.WhiskerHigh}
	}
	fmt.Printf("Fig 10: %d pairs sorted by median latency\n", len(ordered))
	return r.writeDat("fig10_boxes.dat", "pair median q1 q3 lo hi", rows)
}

func (r *runner) runFig11() error {
	res, err := r.ensureF11()
	if err != nil {
		return err
	}
	med, _ := stats.Median(res.Matrix.PairValues())
	fmt.Printf("Fig 11: all-pairs over %d nodes; median inter-node RTT %.1f ms\n", res.Matrix.N(), med)
	// Publish the dataset itself, as the paper did with its measured
	// matrices.
	path := filepath.Join(r.out, "allpairs.ting")
	if err := res.Matrix.WriteFile(path); err != nil {
		return err
	}
	fmt.Printf("  wrote %s (all-pairs dataset)\n", path)
	return r.writeDat("fig11_cdf.dat", "rtt-ms cumulative-fraction", cdfPoints(res.RTTCDF()))
}

func (r *runner) runFig12() error {
	res, err := r.ensureF12()
	if err != nil {
		return err
	}
	for _, s := range res.Strategies {
		fmt.Printf("Fig 12 [%s]: median fraction probed %.3f\n", s, res.Medians[s])
		c, err := res.CDF(s)
		if err != nil {
			return err
		}
		if err := r.writeDat("fig12_"+s+".dat", "fraction-tested cumulative-fraction", cdfPoints(c, nil)); err != nil {
			return err
		}
	}
	sp, err := res.Speedup()
	if err != nil {
		return err
	}
	fmt.Printf("Fig 12: speedup %.2fx (paper: 1.5x unweighted)\n", sp)

	// Footnote 5: the same attack when circuits are bandwidth-weighted,
	// over the Fig 11 data ensureF12 has computed.
	cfg := experiments.Fig12Config{Trials: len(res.Trials), Seed: r.seed, Weighted: true}
	wres, err := experiments.Fig12(r.f11, cfg)
	if err != nil {
		return err
	}
	if sp, err = wres.Speedup(); err != nil {
		return err
	}
	base, informed := wres.Strategies[0], wres.Strategies[len(wres.Strategies)-1]
	fmt.Printf("Fig 12 (weighted, fn 5): median fraction probed %s %.3f, %s %.3f; speedup %.2fx (paper: 2x weighted)\n",
		base, wres.Medians[base], informed, wres.Medians[informed], sp)
	return nil
}

func (r *runner) runFig13() error {
	res, err := r.ensureF12()
	if err != nil {
		return err
	}
	pts := experiments.Fig13(res)
	rows := make([][]float64, len(pts))
	for i, p := range pts {
		rows[i] = []float64{p.E2EMs, p.FracRuledOut}
	}
	fmt.Printf("Fig 13: %d trials (fraction ruled out vs end-to-end RTT)\n", len(pts))
	return r.writeDat("fig13_scatter.dat", "e2e-ms fraction-ruled-out", rows)
}

func (r *runner) runFig14() error {
	res, err := r.ensureF14()
	if err != nil {
		return err
	}
	med, _ := stats.Median(res.Summary.Savings) // 0 with no savings
	fmt.Printf("Fig 14: %.1f%% of pairs have a TIV (paper 69%%); median saving %.1f%% (paper 7.5%%)\n",
		100*res.Summary.FractionWithTIV(), 100*med)
	pct := make([]float64, len(res.Summary.Savings))
	for i, s := range res.Summary.Savings {
		pct[i] = 100 * s
	}
	return r.writeDat("fig14_savings.dat", "savings-% cumulative-fraction", cdfRows(pct))
}

func (r *runner) runFig15() error {
	res, err := r.ensureF14()
	if err != nil {
		return err
	}
	pts := experiments.Fig15(res)
	rows := make([][]float64, len(pts))
	for i, p := range pts {
		rows[i] = []float64{p.DirectMs, p.DetourMs}
	}
	fmt.Printf("Fig 15: %d TIVs (default-path vs detour RTT)\n", len(pts))
	return r.writeDat("fig15_scatter.dat", "direct-ms detour-ms", rows)
}

func (r *runner) runFig16() error {
	res, err := r.ensureF16()
	if err != nil {
		return err
	}
	for _, lh := range res.Lengths {
		rows := make([][]float64, 0, len(lh.Hist.Counts))
		for b, c := range lh.Hist.Counts {
			if c > 0 {
				rows = append(rows, []float64{lh.Hist.BinCenter(b) / 1000, c})
			}
		}
		fmt.Printf("Fig 16 [%d-hop]: %.3g scaled circuits, 200-300ms band holds %.3g\n",
			lh.Length, lh.Hist.Total(), lh.CircuitsWithin(200, 300))
		if err := r.writeDat(fmt.Sprintf("fig16_len%d.dat", lh.Length),
			"rtt-seconds circuits", rows); err != nil {
			return err
		}
	}
	return nil
}

func (r *runner) runFig17() error {
	res, err := r.ensureF16()
	if err != nil {
		return err
	}
	for _, lh := range res.Lengths {
		rows := make([][]float64, 0, len(lh.NodeProb))
		for b, p := range lh.NodeProb {
			if p > 0 {
				rows = append(rows, []float64{lh.Hist.BinCenter(b) / 1000, p})
			}
		}
		if err := r.writeDat(fmt.Sprintf("fig17_len%d.dat", lh.Length),
			"rtt-seconds median-node-probability", rows); err != nil {
			return err
		}
	}
	fmt.Printf("Fig 17: node-membership probability per RTT bin, lengths")
	for _, lh := range res.Lengths {
		fmt.Printf(" %d", lh.Length)
	}
	fmt.Println()
	return nil
}

func (r *runner) runFig18() error {
	res, err := r.ensureF18()
	if err != nil {
		return err
	}
	rows := make([][]float64, len(res.Points))
	for i, p := range res.Points {
		rows[i] = []float64{float64(i), float64(p.Relays), float64(p.Unique24s)}
	}
	last := res.Points[len(res.Points)-1]
	fmt.Printf("Fig 18: day %d: %d relays, %d unique /24s (paper: 5426-6044); residential %.1f%% of named (paper 61%%); %d countries (paper 77)\n",
		len(res.Points)-1, last.Relays, last.Unique24s,
		100*res.Classes.ResidentialFractionOfNamed(), res.Countries)
	fmt.Printf("  as a platform for residential networks: %d /24s with a residential relay, in %d countries\n",
		res.Residential.Prefixes, res.Residential.Countries)
	return r.writeDat("fig18_history.dat", "day relays unique24s", rows)
}

func (r *runner) runHeadlines() error {
	f3, err := r.ensureF3()
	if err != nil {
		return err
	}
	f12, err := r.ensureF12()
	if err != nil {
		return err
	}
	f14, err := r.ensureF14()
	if err != nil {
		return err
	}
	f18, err := r.ensureF18()
	if err != nil {
		return err
	}
	h, err := experiments.ComputeHeadlines(f3, f12, f14, f18)
	if err != nil {
		return err
	}
	fmt.Println("Headlines:", h.String())
	return nil
}

func (r *runner) runKing() error {
	cfg := experiments.KingConfig{Seed: r.seed}
	if r.quick {
		cfg = experiments.KingConfig{Nodes: 16, Pairs: 80, Samples: 100, Seed: r.seed}
	}
	res, err := experiments.KingComparison(cfg)
	if err != nil {
		return err
	}
	km, err := res.KingMedianRatio()
	if err != nil {
		return err
	}
	fmt.Printf("King comparison: within10 ting %.1f%% vs king %.1f%%; king median ratio %.2f (skewed left, as in King's Fig 5)\n",
		100*res.TingWithin10(), 100*res.KingWithin10(), km)
	if err := r.writeDat("king_ting.dat", "estimated/real cumulative-fraction (ting)", cdfRows(res.TingRatios)); err != nil {
		return err
	}
	return r.writeDat("king_king.dat", "estimated/real cumulative-fraction (king)", cdfRows(res.KingRatios))
}

func (r *runner) runDefenses() error {
	f11, err := r.ensureF11()
	if err != nil {
		return err
	}
	cfg := experiments.DefenseConfig{Seed: r.seed}
	if r.quick {
		cfg.Trials = 150
		cfg.PaddingLevels = []float64{0, 100}
	}
	res, err := experiments.Defenses(f11, cfg)
	if err != nil {
		return err
	}
	rows := make([][]float64, 0, len(res.Padding))
	for _, p := range res.Padding {
		fmt.Printf("Defense padding [max %gms/relay]: attacker speedup %.2fx, median latency cost %.0fms\n",
			p.MaxPadMs, p.Speedup(), p.MedianE2EOverheadMs)
		rows = append(rows, []float64{p.MaxPadMs, p.Speedup(), p.MedianE2EOverheadMs})
	}
	if err := r.writeDat("defense_padding.dat", "maxpad-ms attacker-speedup latency-cost-ms", rows); err != nil {
		return err
	}
	fmt.Printf("Defense lengths: fixed 3-hop attacker probes %.1f%%; randomized 3-%d hops %.1f%% (+%.1f hops median cost)\n",
		100*res.Fixed.MedianFracRTTOrder, res.Random.MaxLen,
		100*res.Random.MedianFracRTTOrder, res.Random.MedianExtraHops)
	return nil
}

func (r *runner) runSelection() error {
	f11, err := r.ensureF11()
	if err != nil {
		return err
	}
	cfg := experiments.SelectionConfig{Seed: r.seed}
	if r.quick {
		cfg = experiments.SelectionConfig{Lengths: []int{4}, Baseline3Hop: 2000, Select: 300, Seed: r.seed}
	}
	res, err := experiments.Selection(f11, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("Selection: 3-hop median budget %.0fms\n", res.BudgetMs)
	rows := make([][]float64, 0, len(res.Rows))
	for _, row := range res.Rows {
		fmt.Printf("  %d-hop within budget: %d circuits, median %.0fms, entropy %.3f\n",
			row.Length, row.Selected, row.MedianRTT, row.Entropy)
		rows = append(rows, []float64{float64(row.Length), row.MedianRTT, row.Entropy, float64(row.Selected)})
	}
	return r.writeDat("selection.dat", "length median-rtt-ms entropy circuits", rows)
}

// runCompletion scores the budgeted campaign (measure a fraction of the
// pairs, predict the rest from coordinates) against ground truth: the error
// distribution at the default budget, then the two sweeps that say how far
// the budget can drop and whether accuracy holds as the world grows.
func (r *runner) runCompletion() error {
	cfg := experiments.CompletionConfig{Seed: r.seed}
	fractions, sizes := []float64{0.05, 0.1, 0.25, 0.5}, []int{128, 256, 512}
	if r.quick {
		cfg.Nodes = 128
		fractions, sizes = []float64{0.1, 0.25, 0.5}, []int{64, 128}
	}
	res, err := experiments.Completion(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("Completion: %d of %d pairs measured, the rest predicted; predicted cells off by median %.2f ms, p90 %.2f ms (median RTT %.1f ms)\n",
		res.Measured, res.Measured+res.Predicted, res.MedianAbsErrMs, res.P90AbsErrMs, res.MedianRTTMs)
	if err := r.writeDat("completion_err_cdf.dat", "abs-error-ms cumulative-fraction", cdfPoints(res.ErrCDF())); err != nil {
		return err
	}
	tradeoff, err := experiments.CompletionTradeoff(cfg, fractions)
	if err != nil {
		return err
	}
	rows := make([][]float64, len(tradeoff))
	for i, p := range tradeoff {
		fmt.Printf("  budget %.0f%%: median error %.1f%% of the median RTT\n", 100*p.Fraction, 100*p.MedianAbsErrMs/p.MedianRTTMs)
		rows[i] = []float64{p.Fraction, float64(p.Measured), p.MedianAbsErrMs, p.P90AbsErrMs, p.MedianRTTMs}
	}
	if err := r.writeDat("completion_tradeoff.dat", "fraction measured median-err-ms p90-err-ms median-rtt-ms", rows); err != nil {
		return err
	}
	bySize, err := experiments.CompletionBySize(cfg, sizes)
	if err != nil {
		return err
	}
	rows = make([][]float64, len(bySize))
	for i, p := range bySize {
		fmt.Printf("  %d nodes: median error %.1f%% of the median RTT\n", p.Nodes, 100*p.MedianAbsErrMs/p.MedianRTTMs)
		rows[i] = []float64{float64(p.Nodes), p.MedianAbsErrMs, p.P90AbsErrMs, p.MedianRTTMs}
	}
	return r.writeDat("completion_by_size.dat", "nodes median-err-ms p90-err-ms median-rtt-ms", rows)
}

func (r *runner) runAblations() error {
	cfg := experiments.AblationConfig{Seed: r.seed}
	if r.quick {
		cfg = experiments.AblationConfig{Nodes: 14, Pairs: 40, Samples: 150, Seed: r.seed}
	}
	aggs, err := experiments.AblationAggregator(cfg)
	if err != nil {
		return err
	}
	for _, a := range aggs {
		fmt.Printf("Ablation aggregator [%s]: within10 %.1f%%, median |err| %.2f%%\n",
			a.Name, 100*a.Within10, a.MedianAbsErrPct)
	}
	straw, err := experiments.AblationStrawman(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("Ablation strawman: ting %.1f%%, strawman %.1f%% (biased nets %.1f%%, clean %.1f%%) within 10%%\n",
		100*straw.TingWithin10, 100*straw.StrawmanWithin10,
		100*straw.BiasedStrawmanWithin10, 100*straw.CleanStrawmanWithin10)
	counts := []int{10, 50, 100, 200, 1000}
	if r.quick {
		counts = []int{10, 100, 400}
	}
	sweep, err := experiments.AblationSamples(cfg, counts)
	if err != nil {
		return err
	}
	for _, pt := range sweep {
		fmt.Printf("Ablation samples [%d]: within10 %.1f%%, within5 %.1f%%\n",
			pt.Samples, 100*pt.Within10, 100*pt.Within5)
	}
	f11, err := r.ensureF11()
	if err != nil {
		return err
	}
	trials := 500
	if r.quick {
		trials = 150
	}
	mu, err := experiments.AblationMu(f11, trials, r.seed+77)
	if err != nil {
		return err
	}
	fmt.Printf("Ablation mu: informed with µ median %.3f, without µ %.3f\n", mu.WithMu, mu.WithoutMu)
	return nil
}
