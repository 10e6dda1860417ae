// Command ting measures round-trip times between relays of a running
// mintor network (see cmd/tingnet) through its control port — the
// deployment mode of the paper, where an unmodified Tor client is driven
// by a controller.
//
// Usage:
//
//	ting -control 127.0.0.1:9051 -data 127.0.0.1:9052 -pair relay000,relay003
//	ting -control 127.0.0.1:9051 -data 127.0.0.1:9052 -all -parallel 4 -out matrix.ting
//	ting -plan -relays 6600 -samples 200 -parallel 8   (no network needed)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"ting/internal/cliflags"
	"ting/internal/directory"
	"ting/internal/telemetry"
	"ting/internal/ting"
)

var (
	ctl cliflags.Control // -control -data -password -w -z -target -scale

	samples    = flag.Int("samples", 50, "samples per circuit")
	parallel   = flag.Int("parallel", 1, "concurrent measurements: -all's scan workers, which share the one control session, and the parallelism -plan prices")
	pairFlag   = flag.String("pair", "", "comma-separated relay pair to measure")
	allFlag    = flag.Bool("all", false, "measure all pairs from the consensus")
	budgetFlag = flag.Int("budget", 0, "with -all: measure at most this many pairs and complete the rest from a Vivaldi coordinate embedding (active learning picks the pairs; completed cells carry provenance 'predicted' plus a confidence)")
	outFlag    = flag.String("out", "", "write the all-pairs matrix to this file")

	retryFlag    = flag.Int("retry", 2, "all-pairs: extra attempts per failed pair")
	backoffFlag  = flag.Duration("backoff", time.Second, "all-pairs: base retry backoff (doubled per attempt, jittered)")
	pairTimeout  = flag.Duration("pair-timeout", 0, "all-pairs: per-attempt deadline (0 = none)")
	adaptiveFlag = flag.Bool("adaptive-deadline", false, "all-pairs: bound each attempt by an RTT-derived per-pair deadline (EWMA + 4×deviation, clamped to [-min-pair-timeout, -pair-timeout]) instead of the fixed -pair-timeout; a strangled slow pair retries with the full timeout if -retry allows")
	minPairFlag  = flag.Duration("min-pair-timeout", 100*time.Millisecond, "all-pairs: floor of the adaptive deadline, so fast pairs cannot strangle a legitimately slow one")
	halfCache    = flag.Bool("half-cache", true, "all-pairs: memoize half-circuit minima (§4.6) so each C_x series is measured once per scan; false re-measures C_x and C_y for every pair")

	dirFlag        = cliflags.Dir(flag.CommandLine, "all-pairs: directory server address; the consensus is fetched there and polled for churn during the scan, so relays that join, drain, or rotate keys mid-campaign are reconciled live")
	checkpointFlag = flag.String("checkpoint", "", "all-pairs: append finished pairs to this crash-safe log")
	resumeFlag     = flag.Bool("resume", false, "all-pairs: replay -checkpoint and measure only unfinished pairs (relay set comes from the log)")
	breakerFlag    = flag.Int("breaker", 3, "all-pairs: consecutive failures before a relay's circuit breaker opens (0 disables the scoreboard)")
	breakerCool    = flag.Duration("breaker-cooldown", 30*time.Second, "all-pairs: quarantine before an open breaker half-opens for a probe")

	debugAddr = cliflags.DebugAddr(flag.CommandLine)

	planFlag   = flag.Bool("plan", false, "project campaign cost instead of measuring")
	planRelays = flag.Int("relays", 0, "plan: relay population (all pairs)")
	planPairs  = flag.Int("pairs", 0, "plan: explicit pair count")
	planRTT    = flag.Duration("rtt", 300*time.Millisecond, "plan: mean circuit RTT")
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ting: ")
	ctl.Register(flag.CommandLine, "127.0.0.1:9051", "control port of the onion proxy", "")
	flag.Parse()

	if *planFlag {
		// Priced as the scan would run: with -half-cache (its default) an
		// all-pairs campaign samples pairs + relays series, not 3·pairs.
		// With only -pairs the relay count is unknown, and the literal
		// procedure's price stands as the upper bound.
		memoized := *halfCache && *planRelays > 0
		plan, err := ting.PlanCampaign(ting.CampaignConfig{
			Relays:   *planRelays,
			Pairs:    *planPairs,
			Samples:  *samples,
			MeanRTT:  *planRTT,
			Parallel: *parallel,
			Memoized: memoized,
			Budget:   *budgetFlag,
		})
		if err != nil {
			log.Fatal(err)
		}
		series := "three series a pair"
		if memoized {
			series = "half circuits memoized: pairs + relays series"
		}
		fmt.Printf("campaign: %d pairs, %v per pair, %v total at parallelism %d (%s)\n",
			plan.Pairs, plan.PerPair.Round(time.Second), plan.Total.Round(time.Minute), *parallel, series)
		fmt.Println("anchors (§4.4): ~2.5 min/pair at 200 samples; <15 s at the 5 percent error point (~15 samples)")
		return
	}

	if *resumeFlag && *checkpointFlag == "" {
		log.Fatal("-resume needs -checkpoint pointing at the interrupted campaign's log")
	}
	if *budgetFlag > 0 && *checkpointFlag != "" {
		log.Fatal("-budget writes no checkpoint, so -checkpoint would leave nothing to -resume: a budgeted campaign is re-run, not resumed")
	}

	conn, err := ctl.Dial()
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()

	// Telemetry is off (nil registry, no-op metrics) unless -debug-addr
	// asks for the debug surface.
	reg, _, shutdownTelemetry, err := cliflags.BootTelemetry(*debugAddr)
	if err != nil {
		log.Fatal(err)
	}
	defer shutdownTelemetry()
	obs := ting.NewTelemetryObserver(reg)

	newMeasurer := func() (*ting.Measurer, error) { return ctl.NewMeasurer(conn, *samples, obs) }

	switch {
	case *pairFlag != "":
		x, y, ok := splitPair(*pairFlag)
		if !ok {
			log.Fatalf("bad -pair %q, want x,y", *pairFlag)
		}
		m, err := newMeasurer()
		if err != nil {
			log.Fatal(err)
		}
		res, err := m.MeasurePair(context.Background(), x, y)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("R(%s, %s) = %.2f ms\n", x, y, res.RTT)
		fmt.Printf("  circuits: C_xy min %.2f ms, C_x min %.2f ms, C_y min %.2f ms\n",
			res.MinFull, res.MinX, res.MinY)
		fmt.Printf("  %d samples/circuit in %v\n", res.SamplesPerCircuit, res.Elapsed)
		printSummary(reg)

	case *allFlag || *resumeFlag:
		// The scoreboard quarantines relays that fail repeatedly so the
		// campaign stops burning retries on them (-breaker 0 turns it off).
		var health *ting.Health
		if *breakerFlag > 0 {
			health = ting.NewHealth(ting.HealthConfig{
				FailureThreshold: *breakerFlag,
				Cooldown:         *breakerCool,
				Observer:         obs,
			})
		}
		// Every finished pair is appended to the crash-safe log before it
		// counts as done, so a killed campaign resumes where it stopped.
		var cp ting.Checkpoint
		if *checkpointFlag != "" {
			fc, err := ting.OpenFileCheckpoint(*checkpointFlag)
			if err != nil {
				log.Fatal(err)
			}
			defer fc.Close()
			cp = fc
		}
		// The scan reconciles against the consensus as fetched now: pairs
		// whose relays are gone are tombstoned instead of burning retries,
		// and a resumed campaign whose relays vanished while it was down
		// never re-measures ghosts. With -dir the consensus is a live
		// mirror of the directory server, so churn during the scan is
		// reconciled as it happens; the control-port snapshot only covers
		// churn that predates the scan.
		var dir *directory.Registry
		var err error
		if *dirFlag != "" {
			dir, err = directory.Fetch(*dirFlag)
		} else {
			dir, err = conn.Consensus()
		}
		if err != nil {
			log.Fatal(err)
		}
		// Tally churn reconciliations for the end-of-scan summary, on top
		// of whatever telemetry is already watching; with telemetry off
		// (a nil obs) the scan gets an Observer of its own for it.
		var churnMu sync.Mutex
		churnCount := map[ting.ChurnKind]int{}
		tombstonedPairs := 0
		var epochLo, epochHi uint64
		scanObs := obs
		if scanObs == nil {
			scanObs = &ting.Observer{}
		}
		innerChurn := scanObs.Churn
		scanObs.Churn = func(ev ting.ChurnEvent) {
			if innerChurn != nil {
				innerChurn(ev)
			}
			churnMu.Lock()
			churnCount[ev.Kind]++
			tombstonedPairs += ev.Tombstoned
			if epochLo == 0 || ev.Epoch < epochLo {
				epochLo = ev.Epoch
			}
			if ev.Epoch > epochHi {
				epochHi = ev.Epoch
			}
			churnMu.Unlock()
		}
		// Ctrl-C cancels the scan cooperatively: in-flight pairs finish,
		// the rest of the campaign is abandoned promptly.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if *dirFlag != "" {
			go directory.Mirror(ctx, *dirFlag, dir, time.Second, reg)
		}
		sc := &ting.Scanner{
			NewMeasurer: func(worker int) (*ting.Measurer, error) { return newMeasurer() },
			Workers:     max(*parallel, 1), // as -plan reads it
			Progress: func(done, total int) {
				fmt.Printf("\r  %d/%d", done, total)
			},
			// Live relays churn (§4.5); keep scanning past dead ones, but
			// give each failed pair a few backed-off retries first.
			SkipFailures: true,
			Retry:        *retryFlag,
			Backoff:      *backoffFlag,
			PairTimeout:  *pairTimeout,
			// Adaptive deadlines cut the tail cost of wedged pairs from
			// -pair-timeout to roughly -min-pair-timeout each.
			AdaptiveDeadline: *adaptiveFlag,
			MinPairTimeout:   *minPairFlag,
			// The consensus snapshot drives churn reconciliation: relays
			// that left are tombstoned, not retried.
			Directory: dir,
			// Half-circuit memoization (§3.3/§4.6): min R_Cx depends only on
			// x, so the scan samples pairs+N circuit series instead of
			// 3·pairs. -half-cache=false restores the literal per-pair
			// procedure of §4.2.
			DisableHalfCache: !*halfCache,
			Observer:         scanObs,
			Checkpoint:       cp,
			Health:           health,
		}
		var matrix *ting.Matrix
		var failures []ting.PairError
		var scanErr error
		if *resumeFlag {
			// The relay set comes from the log's campaign header; pairs
			// already on disk are seeded, only the rest are measured.
			fmt.Printf("resuming campaign from %s…\n", *checkpointFlag)
			matrix, failures, scanErr = sc.Resume(ctx, cp)
		} else {
			names := make([]string, 0, dir.Len())
			for _, d := range dir.Consensus() {
				names = append(names, d.Nickname)
			}
			allPairs := len(names) * (len(names) - 1) / 2
			if *budgetFlag > 0 && *budgetFlag < allPairs {
				fmt.Printf("measuring %d of %d pairs of %d relays (embedding completes the rest)…\n",
					*budgetFlag, allPairs, len(names))
				matrix, failures, scanErr = sc.ScanBudget(ctx, names, *budgetFlag)
			} else {
				fmt.Printf("measuring all %d pairs of %d relays…\n", allPairs, len(names))
				matrix, failures, scanErr = sc.Scan(ctx, names)
			}
		}
		fmt.Println()
		for _, f := range failures {
			if errors.Is(f.Err, ting.ErrQuarantined) {
				fmt.Printf("  quarantined: %s-%s: %v\n", f.X, f.Y, f.Err)
				continue
			}
			fmt.Printf("  failed after %d attempts: %s-%s: %v\n", f.Attempts, f.X, f.Y, f.Err)
		}
		// Even an interrupted scan yields a usable partial matrix; per-cell
		// provenance says how much was measured now vs. replayed vs. lost.
		if matrix != nil {
			pc := matrix.ProvCounts()
			fmt.Printf("pairs: %d fresh, %d resumed, %d removed, %d predicted, %d missing\n",
				pc.Fresh, pc.Resumed, pc.Removed, pc.Predicted, pc.Missing)
			if pc.Predicted > 0 {
				// Measured-vs-predicted summary for budgeted campaigns: how
				// much of the matrix is real, and how confident the model is
				// about the rest.
				names := matrix.Names()
				var confSum float64
				for i := 0; i < len(names); i++ {
					for j := i + 1; j < len(names); j++ {
						if matrix.ProvAt(i, j) == ting.ProvPredicted {
							confSum += matrix.ConfAt(i, j)
						}
					}
				}
				total := pc.Measured() + pc.Predicted
				fmt.Printf("budget: %d/%d pairs measured (%.1f%%), %d predicted at mean confidence %.2f\n",
					pc.Measured(), total, 100*float64(pc.Measured())/float64(total),
					pc.Predicted, confSum/float64(pc.Predicted))
			}
			if *outFlag != "" {
				if err := matrix.WriteFile(*outFlag); err != nil {
					log.Fatal(err)
				}
				fmt.Printf("wrote %s\n", *outFlag)
			}
			fmt.Printf("mean inter-relay RTT: %.1f ms\n", matrix.Mean())
		}
		churnMu.Lock()
		if churnCount[ting.ChurnJoined]+churnCount[ting.ChurnRemoved]+churnCount[ting.ChurnRotated] > 0 {
			fmt.Printf("churn: %d joined, %d removed, %d rotated; %d pairs tombstoned (consensus epochs %d..%d)\n",
				churnCount[ting.ChurnJoined], churnCount[ting.ChurnRemoved], churnCount[ting.ChurnRotated],
				tombstonedPairs, epochLo, epochHi)
		}
		churnMu.Unlock()
		printHealth(health)
		printSummary(reg)
		if scanErr != nil {
			if *checkpointFlag != "" {
				fmt.Printf("scan interrupted; rerun with -resume -checkpoint %s to continue\n", *checkpointFlag)
			}
			log.Fatal(scanErr)
		}

	default:
		log.Fatal("need -pair x,y, -all, or -resume")
	}
}

// printHealth reports the relay scoreboard: which breakers tripped, how
// often each relay failed, and how expensive those failures were. Healthy
// all-quiet relays are elided.
func printHealth(h *ting.Health) {
	if h == nil {
		return
	}
	shown := false
	for _, r := range h.Snapshot() {
		if r.State == ting.BreakerClosed && r.Failures == 0 {
			continue
		}
		if !shown {
			fmt.Println("relay health:")
			shown = true
		}
		fmt.Printf("  %s: %s, %d ok / %d failed (%d opens, mean failure %.0f ms)",
			r.Name, r.State, r.Successes, r.Failures, r.Opens, r.MeanFailureMs)
		if r.LastFailure != "" {
			fmt.Printf(", last: %s", r.LastFailure)
		}
		fmt.Println()
	}
}

// printSummary reports what the campaign actually did — circuits built,
// samples taken, retries burned, cache hits — from the telemetry registry.
// Silent when telemetry is off.
func printSummary(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	s := reg.Snapshot()
	c := s.Counters
	fmt.Printf("telemetry: %d circuits (%d failed), %d samples, %d pairs (%d failed), %d retries\n",
		c["ting.circuits_sampled"], c["ting.circuit_failures"],
		c["ting.samples"],
		c["ting.pairs_measured"], c["ting.pair_failures"],
		c["ting.retries"])
	if half := c["ting.halfcircuit.hit"] + c["ting.halfcircuit.miss"] + c["ting.halfcircuit.inflight_wait"]; half > 0 {
		fmt.Printf("telemetry: half circuits %d measured, %d memoized, %d joined in-flight (of %d lookups)\n",
			c["ting.halfcircuit.miss"], c["ting.halfcircuit.hit"],
			c["ting.halfcircuit.inflight_wait"], half)
	}
	if ck := c["ting.checkpoint.appended"] + c["ting.checkpoint.replayed"]; ck > 0 {
		fmt.Printf("telemetry: checkpoint %d records appended, %d replayed\n",
			c["ting.checkpoint.appended"], c["ting.checkpoint.replayed"])
	}
	if q, open := c["ting.quarantined_pairs"], s.Gauges["ting.health.breaker_open"]; q > 0 || open > 0 {
		fmt.Printf("telemetry: %d breakers open, %d pairs quarantined\n", open, q)
	}
	if h, ok := s.Histograms["ting.pair_rtt_ms"]; ok && h.Count > 0 {
		fmt.Printf("telemetry: pair RTT ms p50=%.2f p90=%.2f p99=%.2f\n", h.P50, h.P90, h.P99)
	}
}

func splitPair(s string) (x, y string, ok bool) {
	for i := 0; i < len(s); i++ {
		if s[i] == ',' {
			x, y = s[:i], s[i+1:]
			return x, y, x != "" && y != ""
		}
	}
	return "", "", false
}
