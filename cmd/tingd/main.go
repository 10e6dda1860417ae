// Command tingd is the serving plane of the latency matrix: a long-running
// daemon that keeps an all-pairs RTT dataset fresh with continuous Monitor
// sweeps and serves it at high QPS. Each completed sweep is published as an
// immutable epoch snapshot and swapped in atomically, so readers never lock
// against the sweeper; queries are answered over a versioned HTTP/JSON API
// (/v1/…) and a compact length-prefixed binary protocol (see
// internal/serve).
//
// Measurement sources, pick one:
//
//	tingd -model 16                              synthetic Internet, model-direct measurers (self-contained)
//	tingd -control 127.0.0.1:9051 -data :9052    a running mintor network (cmd/tingnet) via its control port
//	tingd -matrix matrix.ting                    a finished cmd/ting campaign, served statically as epoch 1
//
// Usage:
//
//	tingd -model 16 -http 127.0.0.1:7070 -bin 127.0.0.1:7071 -debug-addr 127.0.0.1:0
//	tingload -bin 127.0.0.1:7071 -duration 5s
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ting/internal/cliflags"
	"ting/internal/directory"
	"ting/internal/experiments"
	"ting/internal/netutil"
	"ting/internal/serve"
	"ting/internal/ting"
)

var (
	httpAddr = flag.String("http", "127.0.0.1:7070", "serve the /v1 HTTP/JSON query API on this address (empty disables)")
	binAddr  = flag.String("bin", "127.0.0.1:7071", "serve the binary query protocol on this address (empty disables)")
	addrFile = flag.String("addr-file", "", "write the bound addresses (http=…, bin=…, debug=… lines) to this file, so :0 binds are discoverable without races")

	modelFlag = flag.Int("model", 0, "serve a synthetic n-relay Internet measured with model-direct probers (self-contained mode)")
	seedFlag  = flag.Int64("seed", 42, "model: topology seed")

	ctl cliflags.Control // -control -data -password -w -z -target -scale

	matrixFlag = flag.String("matrix", "", "serve a finished campaign's matrix file statically (no sweeps)")

	samples       = flag.Int("samples", 10, "samples per circuit per measurement")
	maxAge        = flag.Duration("max-age", time.Minute, "re-measure a pair once its measurement is older than this")
	pairsPerSweep = flag.Int("pairs-per-sweep", 0, "bound how many pairs one sweep refreshes (0 = all stale pairs)")
	workers       = flag.Int("workers", 2, "sweep parallelism")
	sweepInterval = flag.Duration("sweep-interval", time.Second, "pause between sweeps")
	quiet         = flag.Bool("quiet", false, "do not log epoch swaps")

	dirFlag   = cliflags.Dir(flag.CommandLine, "control mode: directory server address to fetch the relay set from (default: the control port's consensus)")
	debugAddr = cliflags.DebugAddr(flag.CommandLine)
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tingd: ")
	ctl.Register(flag.CommandLine, "", "control port of an onion proxy to measure through (deployment mode)", "control mode: ")
	flag.Parse()

	reg, debugBound, shutdownTelemetry, err := cliflags.BootTelemetry(*debugAddr)
	if err != nil {
		log.Fatal(err)
	}
	defer shutdownTelemetry()

	obs := ting.NewTelemetryObserver(reg)
	// Sweeps select against a relay scoreboard, as the chaos soak's do: a
	// relay that keeps failing is quarantined and stepped over instead of
	// costing every sweep its pairs' timeouts.
	health := ting.NewHealth(ting.HealthConfig{Observer: obs})

	pub := serve.NewPublisher(reg)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The measurement source: exactly one of -model, -control, -matrix.
	// Both measuring sources sweep under one configuration; only the
	// measurers and the relay set differ.
	cfg := ting.MonitorConfig{
		MaxAge:        *maxAge,
		PairsPerSweep: *pairsPerSweep,
		Workers:       *workers,
		Health:        health,
		Observer:      obs,
	}
	switch {
	case *matrixFlag != "":
		f, err := os.Open(*matrixFlag)
		if err != nil {
			log.Fatal(err)
		}
		m, err := ting.DecodeMatrix(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		if _, err := pub.Publish(m); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("serving %s statically: %d relays, epoch 1\n", *matrixFlag, m.N())

	case *modelFlag > 0:
		world, err := experiments.NewTestbedWorld(*modelFlag, *seedFlag)
		if err != nil {
			log.Fatal(err)
		}
		cfg.NewMeasurer = func(worker int) (*ting.Measurer, error) {
			return world.Measurer(*samples, *seedFlag+int64(worker)+1)
		}
		cfg.Names = world.Names
		fmt.Printf("sweeping a synthetic %d-relay Internet (seed %d)\n", *modelFlag, *seedFlag)

	case ctl.Addr != "":
		conn, err := ctl.Dial()
		if err != nil {
			log.Fatal(err)
		}
		defer conn.Close()
		var dir *directory.Registry
		if *dirFlag != "" {
			dir, err = directory.Fetch(*dirFlag)
		} else {
			dir, err = conn.Consensus()
		}
		if err != nil {
			log.Fatal(err)
		}
		for _, d := range dir.Consensus() {
			cfg.Names = append(cfg.Names, d.Nickname)
		}
		cfg.NewMeasurer = func(worker int) (*ting.Measurer, error) {
			return ctl.NewMeasurer(conn, *samples, obs)
		}
		fmt.Printf("sweeping %d relays through %s\n", len(cfg.Names), ctl.Addr)

	default:
		log.Fatal("need a measurement source: -model n, -control addr, or -matrix file")
	}
	var mon *ting.Monitor
	if cfg.NewMeasurer != nil {
		if mon, err = ting.NewMonitor(cfg); err != nil {
			log.Fatal(err)
		}
	}

	// Query surfaces. Both answer from the same publisher, so they are
	// always mutually consistent for a given epoch.
	written := map[string]string{}
	if debugBound != "" {
		written["debug"] = debugBound
	}
	if *httpAddr != "" {
		ln := listen(*httpAddr)
		// Bounded like the binary listener: at most as many open
		// connections, and a client that trickles its request, never reads
		// its answer, or parks an idle keep-alive is dropped instead of
		// pinning a goroutine. WriteTimeout covers the handler too, and
		// leaves room for an epoch's first O(N³) /v1/tiv.
		srv := &http.Server{
			Handler:           serve.NewServer(pub, reg).Handler(),
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      2 * time.Minute,
			IdleTimeout:       2 * time.Minute,
		}
		go func() {
			if err := srv.Serve(netutil.LimitListener(ln, netutil.MaxConns)); err != nil && err != http.ErrServerClosed {
				log.Fatal(err)
			}
		}()
		defer srv.Close()
		written["http"] = ln.Addr().String()
		fmt.Printf("http:   http://%s/v1/epoch\n", ln.Addr())
	}
	if *binAddr != "" {
		ln := listen(*binAddr)
		bin := serve.NewBinaryServer(pub, reg)
		go func() {
			if err := bin.Serve(ctx, ln); err != nil {
				log.Fatal(err)
			}
		}()
		written["bin"] = ln.Addr().String()
		fmt.Printf("binary: %s\n", ln.Addr())
	}
	if len(written) == 0 {
		log.Fatal("both -http and -bin disabled: nothing to serve")
	}
	if *addrFile != "" {
		if err := cliflags.WriteAddrFile(*addrFile, written); err != nil {
			log.Fatal(err)
		}
	}

	if mon != nil {
		mon.Run(ctx, *sweepInterval, func(m *ting.Matrix, stats ting.MonitorStats, err error) {
			if err != nil && ctx.Err() == nil {
				log.Printf("sweep error: %v", err)
			}
			if m == nil {
				return
			}
			snap, _ := pub.Publish(m)
			if !*quiet {
				pc := snap.ProvCounts()
				log.Printf("epoch %d: %d measured total (pairs: %d fresh, %d resumed, %d removed, %d predicted, %d missing)",
					snap.Epoch(), stats.Measured, pc.Fresh, pc.Resumed, pc.Removed, pc.Predicted, pc.Missing)
			}
		})
	} else {
		<-ctx.Done()
	}
	fmt.Println("shutting down")
}

func listen(addr string) net.Listener {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("listen %s: %v", addr, err)
	}
	return ln
}
