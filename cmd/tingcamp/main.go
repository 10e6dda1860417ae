// Command tingcamp runs a distributed sharded campaign over the synthetic
// Internet: one coordinator process partitions the pair space into
// tile-keyed shard leases, any number of worker processes measure them
// (crash-tolerantly, resuming their own checkpoints), and the coordinator
// merges the submissions into a matrix bytewise equal to a single-process
// scan of the same world.
//
// Usage:
//
//	tingcamp -coordinator -model 20 -seed 97 -shards 16 -listen 127.0.0.1:0 \
//	         -addr-file camp.addr -journal camp.journal \
//	         -out merged.matrix -state state.json
//	tingcamp -worker -name w1 -addr $(cut -d= -f2 camp.addr) -model 20 -seed 97 \
//	         -checkpoint w1.ckpt -unreachable-grace 2m
//	tingcamp -single -model 20 -seed 97 -out single.matrix
//
// With -journal the coordinator is durable: every grant and submission is
// written ahead to an append-only journal, and restarting tingcamp with
// the same -journal path resumes the campaign in place — done shards stay
// done, the fencing-epoch counter resumes strictly above every epoch ever
// granted, and workers (which ride out the outage with jittered
// reconnection, up to -unreachable-grace) pick up where they left off.
//
// Exit codes: 0 — campaign complete, merged matrix written; 1 — campaign
// complete but pairs were lost; 2 — internal error; 3 — interrupted with
// shards outstanding (state snapshot and journal are flushed; restart
// with the same -journal to resume). Workers exit 0 when the coordinator
// reports the campaign done. All modes use the exact (floor) measurer, so
// reruns and redistributions reproduce the matrix byte for byte.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ting/internal/campaign"
	"ting/internal/cliflags"
	"ting/internal/directory"
	"ting/internal/experiments"
	"ting/internal/telemetry"
	"ting/internal/ting"
)

var (
	coordMode  = flag.Bool("coordinator", false, "run the campaign coordinator")
	workerMode = flag.Bool("worker", false, "run a campaign worker")
	singleMode = flag.Bool("single", false, "run the whole campaign in-process (the determinism reference)")

	modelFlag = flag.Int("model", 20, "number of relays in the synthetic world")
	seedFlag  = flag.Int64("seed", 42, "topology seed (coordinator and workers must agree)")
	samples   = flag.Int("samples", 3, "samples per circuit per measurement")

	// Coordinator.
	listenAddr  = flag.String("listen", "127.0.0.1:0", "coordinator: listen address for the campaign/directory transport")
	addrFile    = flag.String("addr-file", "", "coordinator: write the bound address (camp=… line) to this file atomically")
	shardsFlag  = flag.Int("shards", 16, "coordinator: target shard count")
	leaseTTL    = flag.Duration("lease-ttl", 2*time.Second, "coordinator: lease time-to-live without a heartbeat")
	outFlag     = flag.String("out", "", "coordinator/single: write the final matrix here")
	stateFlag   = flag.String("state", "", "coordinator: write campaign status snapshots (JSON) here")
	journalFlag = flag.String("journal", "", "coordinator: write-ahead journal path; restart with the same path to recover the campaign in place")
	compactEvy  = flag.Duration("journal-compact-every", 10*time.Second, "coordinator: compact the journal on this cadence (0 disables)")

	// Worker.
	nameFlag   = flag.String("name", "", "worker: name (required)")
	addrFlag   = flag.String("addr", "", "worker: coordinator address (required)")
	ckptFlag   = flag.String("checkpoint", "", "worker: durable campaign log path (restart with the same path to resume)")
	scanWk     = flag.Int("scan-workers", 2, "worker/single: scanner parallelism")
	dallyFlag  = flag.Duration("dally", 0, "worker: pause between leases (soak hook)")
	delayFlag  = flag.Duration("pair-delay", 0, "worker: sleep this long per circuit series (soak hook: stretches lease hold time without changing any value)")
	hbFlag     = flag.Duration("heartbeat", 0, "worker: lease renewal cadence (default TTL/3)")
	pollFlag   = flag.Duration("poll", 200*time.Millisecond, "worker: wait when no shard is free")
	graceFlag  = flag.Duration("unreachable-grace", campaign.DefaultUnreachableGrace, "worker: give up after the coordinator has been unreachable this long")
	debugAddrF = cliflags.DebugAddr(flag.CommandLine)
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tingcamp: ")
	flag.Parse()

	modes := 0
	for _, m := range []bool{*coordMode, *workerMode, *singleMode} {
		if m {
			modes++
		}
	}
	if modes != 1 {
		log.Fatal("pick exactly one of -coordinator, -worker, -single")
	}

	reg, _, shutdownTelemetry, err := cliflags.BootTelemetry(*debugAddrF)
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)

	world, err := experiments.NewTestbedWorld(*modelFlag, *seedFlag)
	if err != nil {
		log.Fatal(err)
	}

	// The run* functions return an exit code instead of log.Fatal-ing so
	// deferred cleanup — journal sync/close, final state snapshot, the
	// directory listener — always runs, even on an interrupt.
	var code int
	switch {
	case *coordMode:
		code = runCoordinator(ctx, world, reg)
	case *workerMode:
		code = runWorker(ctx, world)
	default:
		code = runSingle(ctx, world)
	}
	stop()
	shutdownTelemetry()
	os.Exit(code)
}

// buildCoordinator creates or recovers the campaign coordinator. With
// -journal pointing at an existing non-empty journal, the campaign is
// recovered in place; the journal's own header (names, shards, TTL) wins
// over the command-line geometry, which is cross-checked against the
// seeded world so a restart with a different -model/-seed fails loudly.
func buildCoordinator(world *experiments.World, reg *telemetry.Registry) (*campaign.Coordinator, error) {
	shards := campaign.Partition(len(world.Names), *shardsFlag)
	if *journalFlag == "" {
		return campaign.NewCoordinator(world.Names, shards, *leaseTTL, reg)
	}
	if fi, err := os.Stat(*journalFlag); err == nil && fi.Size() > 0 {
		coord, err := campaign.RecoverCoordinator(*journalFlag, reg)
		if err != nil {
			return nil, err
		}
		got := coord.Names()
		if len(got) != len(world.Names) {
			return nil, fmt.Errorf("journal %s holds a %d-relay campaign, world has %d (wrong -model/-seed?)",
				*journalFlag, len(got), len(world.Names))
		}
		for i, n := range got {
			if n != world.Names[i] {
				return nil, fmt.Errorf("journal %s relay %d is %q, world says %q (wrong -model/-seed?)",
					*journalFlag, i, n, world.Names[i])
			}
		}
		st := coord.Snapshot()
		log.Printf("recovered from journal %s: %d/%d shards done, %d leased, epoch watermark %d",
			*journalFlag, st.Done, st.Total, st.Leased, st.EpochWatermark)
		return coord, nil
	}
	return campaign.NewJournaledCoordinator(world.Names, shards, *leaseTTL, *journalFlag, reg)
}

func runCoordinator(ctx context.Context, world *experiments.World, reg *telemetry.Registry) int {
	coord, err := buildCoordinator(world, reg)
	if err != nil {
		log.Print(err)
		return 2
	}
	if j := coord.Journal(); j != nil {
		defer func() {
			if err := j.Close(); err != nil {
				log.Printf("journal close: %v", err)
			}
		}()
	}
	ds := directory.NewServer(directory.NewRegistry())
	campaign.NewServer(coord).Register(ds)
	ln, err := net.Listen("tcp", *listenAddr)
	if err != nil {
		log.Print(err)
		return 2
	}
	serveErr := make(chan error, 1)
	go func() {
		if err := ds.Serve(ln); err != nil {
			serveErr <- err
		}
	}()
	defer ds.Close()
	st := coord.Snapshot()
	fmt.Printf("coordinator: %s (%d relays, %d shards, %d already done, lease TTL %s)\n",
		ln.Addr(), st.Relays, st.Total, st.Done, coord.TTL)
	if *addrFile != "" {
		if err := cliflags.WriteAddrFile(*addrFile, map[string]string{"camp": ln.Addr().String()}); err != nil {
			log.Fatal(err)
		}
	}

	writeState := func() {
		if *stateFlag == "" {
			return
		}
		b, err := json.MarshalIndent(coord.Snapshot(), "", "  ")
		if err != nil {
			log.Printf("state: %v", err)
			return
		}
		if err := cliflags.WriteFileAtomic(*stateFlag, append(b, '\n')); err != nil {
			log.Fatal(err)
		}
	}
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	lastCompact := time.Now()
wait:
	for {
		select {
		case <-ctx.Done():
			// Orderly shutdown with shards outstanding: flush a final state
			// snapshot, let the deferred journal close sync the log, and
			// exit with a distinct code so wrappers can tell "interrupted,
			// resumable" from "failed".
			writeState()
			log.Printf("interrupted with shards outstanding; restart with -journal %s to resume", *journalFlag)
			return 3
		case err := <-serveErr:
			if ctx.Err() != nil {
				writeState()
				log.Printf("interrupted with shards outstanding; restart with -journal %s to resume", *journalFlag)
				return 3
			}
			writeState()
			log.Printf("serve: %v", err)
			return 2
		case <-tick.C:
			writeState()
			if *journalFlag != "" && *compactEvy > 0 && time.Since(lastCompact) >= *compactEvy {
				if err := coord.CompactJournal(); err != nil {
					log.Printf("journal compact: %v", err)
				}
				lastCompact = time.Now()
			}
		case <-coord.Done():
			break wait
		}
	}
	writeState()

	st = coord.Snapshot()
	fmt.Printf("campaign done: %d shards, %d lease reassignments, %d recoveries, %d lost pairs\n",
		st.Total, st.Reassigned, st.Recoveries, st.LostPairs)
	m, err := coord.Merged()
	if err != nil {
		log.Print(err)
		return 2
	}
	if *outFlag != "" {
		if err := m.WriteFile(*outFlag); err != nil {
			log.Print(err)
			return 2
		}
		fmt.Printf("merged matrix: %s (%d relays)\n", *outFlag, m.N())
	}
	if st.LostPairs > 0 {
		return 1
	}
	return 0
}

func runWorker(ctx context.Context, world *experiments.World) int {
	if *nameFlag == "" || *addrFlag == "" {
		log.Print("-worker needs -name and -addr")
		return 2
	}
	var (
		cp  ting.Checkpoint
		fcp *ting.FileCheckpoint
	)
	if *ckptFlag != "" {
		var err error
		fcp, err = ting.OpenFileCheckpoint(*ckptFlag)
		if err != nil {
			log.Print(err)
			return 2
		}
		defer fcp.Close()
		cp = fcp
	}
	sc := &ting.Scanner{
		NewMeasurer: func(int) (*ting.Measurer, error) {
			if *delayFlag <= 0 {
				return world.ExactMeasurer(*samples)
			}
			p := world.Prober(0)
			p.Exact = true
			return ting.NewMeasurer(ting.Config{
				Prober:  &slowProber{inner: p, delay: *delayFlag},
				W:       world.W,
				Z:       world.Z,
				Samples: *samples,
			})
		},
		Workers:    *scanWk,
		Checkpoint: cp,
	}
	w := &campaign.Worker{
		Name:             *nameFlag,
		Addr:             *addrFlag,
		Scanner:          sc,
		Checkpoint:       cp,
		HeartbeatEvery:   *hbFlag,
		Poll:             *pollFlag,
		UnreachableGrace: *graceFlag,
		Dally:            *dallyFlag,
		Log:              log.Default(),
	}
	if err := w.Run(ctx); err != nil && ctx.Err() == nil {
		log.Print(err)
		return 2
	}
	return 0
}

func runSingle(ctx context.Context, world *experiments.World) int {
	sc := &ting.Scanner{
		NewMeasurer: func(int) (*ting.Measurer, error) { return world.ExactMeasurer(*samples) },
		Workers:     *scanWk,
	}
	m, failures, err := sc.Scan(ctx, world.Names)
	if err != nil {
		log.Print(err)
		return 2
	}
	if len(failures) > 0 {
		log.Printf("%d pairs failed", len(failures))
		return 2
	}
	if *outFlag == "" {
		log.Print("-single needs -out")
		return 2
	}
	if err := m.WriteFile(*outFlag); err != nil {
		log.Print(err)
		return 2
	}
	fmt.Printf("single-process matrix: %s (%d relays)\n", *outFlag, m.N())
	return 0
}

// slowProber stretches every circuit series by a fixed delay while
// delegating the samples to the exact prober — lease hold times grow, the
// measured values do not, so soak kills land mid-lease without perturbing
// the bytewise-equality gate.
type slowProber struct {
	inner ting.CircuitProber
	delay time.Duration
}

func (p *slowProber) SampleCircuit(ctx context.Context, path []string, n int) ([]float64, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-time.After(p.delay):
	}
	return p.inner.SampleCircuit(ctx, path, n)
}
