package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"time"

	"ting/internal/cell"
	"ting/internal/client"
	"ting/internal/directory"
	"ting/internal/echo"
	"ting/internal/experiments"
	"ting/internal/link"
	"ting/internal/onion"
	"ting/internal/ting"
	"ting/internal/tornet"
)

// The layer probes time calls into one layer's exported functions, from
// outside. They run in the traced run only, after the workload, on its
// fixture.

// sink keeps the compiler from deleting a probe's loop body.
var sink byte

// perOp calls fn in growing batches for about budget and returns the mean
// cost of one call in nanoseconds, the bytes allocated per call, and the
// number of calls.
func perOp(budget time.Duration, fn func() error) (float64, float64, int, error) {
	n, batch := 0, 1
	alloc := totalAlloc()
	start := time.Now()
	for {
		for i := 0; i < batch; i++ {
			if err := fn(); err != nil {
				return 0, 0, n, err
			}
		}
		n += batch
		elapsed := time.Since(start)
		if elapsed >= budget {
			return float64(elapsed) / float64(n), float64(totalAlloc()-alloc) / float64(n), n, nil
		}
		if elapsed < budget/10 {
			batch *= 2
		}
	}
}

// meanOf calls fn n times; fn times the part of itself that counts. The
// mean is in nanoseconds.
func meanOf(n int, fn func() (time.Duration, error)) (float64, error) {
	var sum time.Duration
	for i := 0; i < n; i++ {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		sum += d
	}
	return float64(sum) / float64(n), nil
}

func stackLayers(ctx context.Context, cfg config, layers map[string]value, overlay *tornet.Net, names []string, newProber func() *ting.StackProber) error {
	if err := cellOnionLayers(cfg, layers); err != nil {
		return err
	}
	if err := linkLayers(cfg, layers); err != nil {
		return err
	}
	if err := clientRelayLayers(cfg, layers, overlay, names); err != nil {
		return err
	}
	return pairBreakdown(ctx, cfg, layers, overlay, names, newProber)
}

func cellOnionLayers(cfg config, layers map[string]value) error {
	probeBudget := cfg.probeBudget()
	c := cell.Cell{Circ: 42, Cmd: cell.Relay}
	buf := make([]byte, cell.Size)
	d, _, n, _ := perOp(probeBudget, func() error {
		c.MarshalInto(buf)
		sink += buf[0]
		return nil
	})
	layers["cell.marshal_ns"] = value{d, n}
	var dst cell.Cell
	d, _, n, err := perOp(probeBudget, func() error {
		err := cell.UnmarshalInto(&dst, buf)
		sink += dst.Payload[0]
		return err
	})
	if err != nil {
		return err
	}
	layers["cell.unmarshal_ns"] = value{d, n}

	rnd := rand.New(rand.NewSource(1))
	id, err := onion.NewIdentity(rnd)
	if err != nil {
		return err
	}
	shake := func() (client, relay *onion.HopState, err error) {
		ch, err := onion.StartHandshake(id.Public(), rnd)
		if err != nil {
			return nil, nil, err
		}
		reply, relay, err := onion.ServerHandshake(id, ch.Onionskin(), rnd)
		if err != nil {
			return nil, nil, err
		}
		client, err = ch.Complete(reply)
		return client, relay, err
	}
	d, _, n, err = perOp(probeBudget, func() error {
		_, _, err := shake()
		return err
	})
	if err != nil {
		return err
	}
	layers["onion.handshake_us"] = value{d / 1e3, n}

	var cc onion.CircuitCrypto
	var relays [3]*onion.HopState
	for i := range relays {
		ch, rh, err := shake()
		if err != nil {
			return err
		}
		cc.AddHop(ch)
		relays[i] = rh
	}
	rc := cell.RelayCell{Cmd: cell.RelayData, Stream: 1, Data: make([]byte, cell.RelayDataLen)}
	d, _, n, err = perOp(probeBudget, func() error {
		p, err := rc.MarshalPayload()
		if err != nil {
			return err
		}
		if err := cc.EncryptForward(2, &p); err != nil {
			return err
		}
		for i, r := range relays {
			r.CryptForward(&p)
			if r.VerifyForward(&p) != (i == 2) {
				return errors.New("onion: cell recognized at the wrong hop")
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	layers["onion.forward3_ns"] = value{d, n}
	return nil
}

func linkLayers(cfg config, layers map[string]value) error {
	probeBudget := cfg.probeBudget()
	pn := link.NewPipeNet()
	ln, err := pn.Listen("probe")
	if err != nil {
		return err
	}
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		for {
			lk, err := ln.Accept()
			if err != nil {
				return
			}
			lk.Close()
		}
	}()
	d, alloc, n, err := perOp(probeBudget, func() error {
		raw, err := pn.Dial("probe")
		if err != nil {
			return err
		}
		return link.Delayed(raw, 0, 0).Close()
	})
	ln.Close()
	<-accepted
	if err != nil {
		return err
	}
	layers["link.dial_us"] = value{d / 1e3, n}
	layers["link.dial_alloc_kb"] = value{alloc / 1024, n}

	a, b := link.Pipe(0, "a", "b")
	near := link.Delayed(a, 0, 0)
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		var c cell.Cell
		for b.Recv(&c) == nil && b.Send(&c) == nil {
		}
	}()
	c := cell.Cell{Circ: 7, Cmd: cell.Relay}
	d, _, n, err = perOp(probeBudget, func() error {
		if err := near.Send(&c); err != nil {
			return err
		}
		return near.Recv(&c)
	})
	near.Close()
	b.Close()
	<-echoed
	if err != nil {
		return err
	}
	layers["link.cell_rtt_us"] = value{d / 1e3, n}
	return nil
}

// descriptors resolves a path of relay nicknames.
func descriptors(reg *directory.Registry, path ...string) ([]*directory.Descriptor, error) {
	descs := make([]*directory.Descriptor, len(path))
	for i, name := range path {
		d, ok := reg.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("unknown relay %q", name)
		}
		descs[i] = d
	}
	return descs, nil
}

func clientRelayLayers(cfg config, layers map[string]value, overlay *tornet.Net, names []string) error {
	reps := cfg.reps(100)
	full, err := descriptors(overlay.Registry, tornet.WName, names[0], names[1], tornet.ZName)
	if err != nil {
		return err
	}
	cl := overlay.Client
	d, err := meanOf(reps, func() (time.Duration, error) {
		start := time.Now()
		circ, err := cl.BuildCircuit(full)
		took := time.Since(start)
		if err != nil {
			return 0, err
		}
		return took, circ.Close()
	})
	if err != nil {
		return err
	}
	layers["client.build4_us"] = value{d / 1e3, reps}

	d, err = meanOf(reps, func() (time.Duration, error) {
		circ, err := cl.BuildCircuit(full[:2])
		if err != nil {
			return 0, err
		}
		defer circ.Close()
		start := time.Now()
		err = circ.Extend(full[2])
		return time.Since(start), err
	})
	if err != nil {
		return err
	}
	layers["client.extend_us"] = value{d / 1e3, reps}

	circ, err := cl.BuildCircuit(full)
	if err != nil {
		return err
	}
	defer circ.Close()
	d, err = meanOf(reps, func() (time.Duration, error) {
		start := time.Now()
		st, err := circ.OpenStream(tornet.EchoTarget)
		took := time.Since(start)
		if err != nil {
			return 0, err
		}
		return took, st.Close()
	})
	if err != nil {
		return err
	}
	layers["client.open_stream_us"] = value{d / 1e3, reps}

	st, err := circ.OpenStream(tornet.EchoTarget)
	if err != nil {
		return err
	}
	defer st.Close()
	ec := echo.NewClient(st)
	d, alloc, n, err := perOp(cfg.probeBudget(), func() error {
		_, err := ec.Probe()
		return err
	})
	if err != nil {
		return err
	}
	layers["relay.probe_rtt_us"] = value{d / 1e3, n}
	layers["relay.probe_alloc_b"] = value{alloc, n}
	return nil
}

// pairBreakdown is the "parts sum to the whole" check: it drives pairs by
// hand through the exported calls MeasurePair makes over a reusing
// StackProber — build (w,x), stream, 50 probes, extend to (w,x,y,z),
// stream, probes, rebuild as (w,y), stream, probes — each under a span,
// and compares the sum of the parts with MeasurePair's own elapsed time on
// the same pairs. Medians over alternating repetitions.
func pairBreakdown(ctx context.Context, cfg config, layers map[string]value, overlay *tornet.Net, names []string, newProber func() *ting.StackProber) error {
	reps := cfg.reps(30)
	const samples = 50
	prober := newProber()
	defer prober.Close()
	// No half-circuit cache: the hand-driven pair samples all three
	// circuits, so the measured one must too.
	meas, err := ting.NewMeasurer(ting.Config{Prober: prober, W: tornet.WName, Z: tornet.ZName, Samples: samples})
	if err != nil {
		return err
	}
	tr := newTracer()
	rec := tr.recorder()
	var prev *client.Circuit
	defer func() {
		if prev != nil {
			prev.Close()
		}
	}()

	series := func(root int32, circ *client.Circuit) error {
		start := time.Now()
		st, err := circ.OpenStream(tornet.EchoTarget)
		if err != nil {
			return err
		}
		opened := time.Now()
		rec.add(0, root, kindOpenStream, start, opened)
		ec := echo.NewClient(st)
		for left := samples; left > 0; left -= 8 {
			if _, err := ec.ProbeN(min(left, 8)); err != nil {
				return err
			}
		}
		probed := time.Now()
		rec.add(0, root, kindProbes, opened, probed)
		err = st.Close()
		rec.add(0, root, kindClose, probed, time.Now())
		return err
	}
	build := func(root int32, path ...string) (*client.Circuit, error) {
		descs, err := descriptors(overlay.Registry, path...)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if prev != nil {
			// A reusing prober drops its cached circuit when the next
			// path does not extend it.
			prev.Close()
			prev = nil
			rec.add(0, root, kindClose, start, time.Now())
			start = time.Now()
		}
		circ, err := overlay.Client.BuildCircuit(descs)
		if err != nil {
			return nil, err
		}
		rec.add(0, root, kindBuild, start, time.Now())
		prev = circ
		return circ, nil
	}
	byHand := func(x, y string) (parts, whole time.Duration, err error) {
		root := tr.reserve()
		first := len(rec.spans)
		start := time.Now()
		circ, err := build(root, tornet.WName, x)
		if err != nil {
			return 0, 0, err
		}
		if err := series(root, circ); err != nil {
			return 0, 0, err
		}
		for _, hop := range []string{y, tornet.ZName} {
			descs, err := descriptors(overlay.Registry, hop)
			if err != nil {
				return 0, 0, err
			}
			t := time.Now()
			if err := circ.Extend(descs[0]); err != nil {
				return 0, 0, err
			}
			rec.add(0, root, kindExtend, t, time.Now())
		}
		if err := series(root, circ); err != nil {
			return 0, 0, err
		}
		if circ, err = build(root, tornet.WName, y); err != nil {
			return 0, 0, err
		}
		if err := series(root, circ); err != nil {
			return 0, 0, err
		}
		end := time.Now()
		for _, s := range rec.spans[first:] {
			parts += time.Duration(s.end - s.start)
		}
		rec.add(root, 0, kindBreakdown, start, end)
		return parts, end.Sub(start), nil
	}

	var hand, measured []time.Duration
	for i := 0; i < reps; i++ {
		x, y := names[(2*i)%len(names)], names[(2*i+1)%len(names)]
		parts, _, err := byHand(x, y)
		if err != nil {
			return fmt.Errorf("breakdown by hand: %w", err)
		}
		hand = append(hand, parts)
		m, err := meas.MeasurePair(ctx, x, y)
		if err != nil {
			return fmt.Errorf("breakdown MeasurePair: %w", err)
		}
		measured = append(measured, m.Elapsed)
	}
	sortDurations(hand)
	sortDurations(measured)
	parts, whole := percentile(hand, 0.5), percentile(measured, 0.5)
	residual := math.Abs(float64(parts-whole)) / float64(whole)
	layers["ting.pair_breakdown_residual_share"] = value{residual, reps}
	fmt.Printf("  -- one stack pair by hand: parts %v, MeasurePair %v, residual %.3f --\n", parts, whole, residual)
	self := selfTimes(tr.spans())
	for _, k := range []kind{kindBuild, kindExtend, kindOpenStream, kindProbes, kindClose, kindBreakdown} {
		kt := self[k]
		fmt.Printf("  %-16s %-12s count=%-5d per pair=%v\n", kindNames[k].layer, kindNames[k].name, kt.count/reps, kt.self/time.Duration(reps))
	}
	return nil
}

func modelLayers(ctx context.Context, cfg config, layers map[string]value, world *experiments.World) error {
	probeBudget, seed := cfg.probeBudget(), cfg.seed
	names := world.Names
	meas, err := world.Measurer(8, seed+200)
	if err != nil {
		return err
	}
	i := 0
	d, _, n, err := perOp(probeBudget, func() error {
		i++
		_, err := meas.MeasurePair(ctx, names[i%len(names)], names[(i+1)%len(names)])
		return err
	})
	if err != nil {
		return err
	}
	layers["ting.measure_pair_ns.model"] = value{d, n}

	hc := ting.NewHalfCache(0)
	path := []string{world.W, names[0]}
	fn := func(context.Context) (float64, error) { return 1, nil }
	d, _, n, err = perOp(probeBudget, func() error {
		_, err := hc.Do(ctx, path, 8, nil, fn)
		return err
	})
	if err != nil {
		return err
	}
	layers["ting.halfcache_hit_ns"] = value{d, n}

	m, err := ting.NewMatrix(names)
	if err != nil {
		return err
	}
	d, _, n, err = perOp(probeBudget, func() error {
		i++
		return m.Set(names[i%len(names)], names[(i*7+1)%len(names)], 1)
	})
	if err != nil {
		return err
	}
	layers["ting.matrix_set_ns"] = value{d, n}
	var sum float64
	d, _, n, _ = perOp(probeBudget, func() error {
		i++
		sum += m.At(i%len(names), (i*7+1)%len(names))
		return nil
	})
	sink += byte(sum)
	layers["ting.matrix_at_ns"] = value{d, n}

	// Monitor.Sweep is a second worker pool beside Scanner; this is the
	// number it must hold when it becomes an adaptor over the scan engine.
	sweepNames := names[:min(300, len(names))]
	mon, err := ting.NewMonitor(ting.MonitorConfig{
		Names:   sweepNames,
		Workers: scanWorkers,
		NewMeasurer: func(worker int) (*ting.Measurer, error) {
			return world.Measurer(8, seed+300+int64(worker))
		},
	})
	if err != nil {
		return err
	}
	start := time.Now()
	swept, err := mon.Sweep(ctx)
	if err != nil {
		return err
	}
	layers["ting.monitor_sweep_pairs_per_s"] = value{float64(swept) / time.Since(start).Seconds(), swept}
	return nil
}

// checkpointLayers times FileCheckpoint.Append with the default fsync
// batching and with fsync pushed past the record count.
func checkpointLayers(cfg config, layers map[string]value) error {
	probeBudget, dir := cfg.probeBudget(), cfg.tmp
	for _, c := range []struct {
		metric    string
		syncEvery int
	}{
		{"ting.checkpoint_append_us", 0},
		{"ting.checkpoint_append_nosync_us", math.MaxInt},
	} {
		cp, err := ting.OpenFileCheckpoint(filepath.Join(dir, c.metric))
		if err != nil {
			return err
		}
		cp.SyncEvery = c.syncEvery
		rec := ting.CheckpointRecord{Kind: ting.RecordPair, X: "relay0001", Y: "relay0002", RTT: 12.5}
		d, _, n, err := perOp(probeBudget, func() error { return cp.Append(rec) })
		if cerr := cp.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		layers[c.metric] = value{d / 1e3, n}
	}
	return nil
}
