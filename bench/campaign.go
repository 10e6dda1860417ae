package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ting/internal/campaign"
	"ting/internal/directory"
	"ting/internal/experiments"
	"ting/internal/ting"
)

const (
	campaignWorkers = 2
	campaignShards  = 256
	campaignSamples = 2
	campaignTTL     = 5 * time.Second
)

// campaignBench is a leased campaign that can be repeated over one world:
// a journaled coordinator behind the CAMP verb on loopback, and workers
// that lease, measure, checkpoint and submit shards.
type campaignBench struct {
	world  *experiments.World
	shards []campaign.Shard
	pairs  int64
	// wantSeries is the series count one campaign must take: every lease
	// scans with a half-circuit cache of its own, so each shard costs its
	// pairs plus the distinct relays those pairs touch.
	wantSeries int64
	reference  []byte // Encode of a single-process scan of the same world
	results    map[string][]campaign.PairResult
	tmp        string
	seq        int
	// What the timed campaigns so far showed, for the per-layer table.
	merged, recover []time.Duration
	journalBytes    int64
	regrants        int
}

// timedCheckpoint records one span per Append in a traced campaign.
type timedCheckpoint struct {
	ting.Checkpoint
	mu     sync.Mutex // Appends may come from the worker and its scanner
	rec    *recorder
	parent int32
}

func (c *timedCheckpoint) Append(r ting.CheckpointRecord) error {
	start := time.Now()
	err := c.Checkpoint.Append(r)
	end := time.Now()
	c.mu.Lock()
	c.rec.add(0, c.parent, kindCheckpoint, start, end)
	c.mu.Unlock()
	return err
}

func newCampaignBench(ctx context.Context, cfg config) (*campaignBench, error) {
	world, err := experiments.NewWorld(cfg.size(400), cfg.seed)
	if err != nil {
		return nil, err
	}
	n := len(world.Names)
	b := &campaignBench{
		world:   world,
		shards:  campaign.Partition(n, campaignShards),
		pairs:   int64(n * (n - 1) / 2),
		results: map[string][]campaign.PairResult{},
		tmp:     cfg.tmp,
	}
	ref := &ting.Scanner{
		Workers:     scanWorkers,
		NewMeasurer: func(int) (*ting.Measurer, error) { return world.ExactMeasurer(campaignSamples) },
	}
	m, failures, err := ref.Scan(ctx, world.Names)
	if err != nil {
		return nil, fmt.Errorf("reference scan: %w", err)
	}
	if len(failures) != 0 {
		return nil, fmt.Errorf("reference scan: %d pairs failed", len(failures))
	}
	var enc bytes.Buffer
	if err := m.Encode(&enc); err != nil {
		return nil, err
	}
	b.reference = enc.Bytes()
	for _, sh := range b.shards {
		pairs, err := sh.Pairs(world.Names)
		if err != nil {
			return nil, err
		}
		touched := map[string]bool{}
		res := make([]campaign.PairResult, len(pairs))
		for i, p := range pairs {
			touched[p[0]], touched[p[1]] = true, true
			rtt, err := m.RTT(p[0], p[1])
			if err != nil {
				return nil, err
			}
			res[i] = campaign.PairResult{X: p[0], Y: p[1], RTT: rtt}
		}
		b.results[sh.ID] = res
		b.wantSeries += int64(len(pairs) + len(touched))
	}
	return b, nil
}

// serveCoordinator puts coord behind the CAMP verb on a loopback listener.
func serveCoordinator(coord *campaign.Coordinator) (addr string, stop func(), err error) {
	ds := directory.NewServer(directory.NewRegistry())
	campaign.NewServer(coord).Register(ds)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		ds.Serve(ln) // returns when stop closes the listener
	}()
	return ln.Addr().String(), func() { ds.Close(); <-served }, nil
}

// once runs one campaign — fresh journal, fresh checkpoints — and adds it
// to t. Timed from the first worker's start to Merged returning.
func (b *campaignBench) once(ctx context.Context, tr *tracer, t *totals) error {
	b.seq++
	dir := filepath.Join(b.tmp, fmt.Sprintf("campaign-%d", b.seq))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	journal := filepath.Join(dir, "journal.jsonl")
	coord, err := campaign.NewJournaledCoordinator(b.world.Names, b.shards, campaignTTL, journal, nil)
	if err != nil {
		return err
	}
	defer coord.Journal().Close()
	addr, stop, err := serveCoordinator(coord)
	if err != nil {
		return err
	}
	defer stop()

	var campID int32
	if tr != nil {
		campID = tr.reserve()
	}
	var series atomic.Int64
	workers := make([]*campaign.Worker, campaignWorkers)
	for i := range workers {
		file, err := ting.OpenFileCheckpoint(filepath.Join(dir, fmt.Sprintf("worker-%d.ckpt", i)))
		if err != nil {
			return err
		}
		defer file.Close()
		var cp ting.Checkpoint = file
		var wt *workerTrace
		if tr != nil {
			cp = &timedCheckpoint{Checkpoint: file, rec: tr.recorder(), parent: campID}
			wt = newWorkerTrace(tr, campID, kindSeriesModel)
		}
		workers[i] = &campaign.Worker{
			Name:       fmt.Sprintf("bench-worker-%d", i),
			Addr:       addr,
			Checkpoint: cp,
			Scanner: &ting.Scanner{
				Workers:    1,
				Checkpoint: cp,
				NewMeasurer: func(int) (*ting.Measurer, error) {
					p := b.world.Prober(0)
					p.Exact = true
					cfg := ting.Config{W: b.world.W, Z: b.world.Z, Samples: campaignSamples}
					if wt != nil {
						cfg.Observer = wt.observer()
					}
					cfg.Prober = wrapProber(p, &series, wt)
					return ting.NewMeasurer(cfg)
				},
			},
		}
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	exited := make(chan struct{})
	meter := startMeter()
	for i, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.Run(runCtx)
		}()
	}
	go func() { wg.Wait(); close(exited) }()
	select {
	case <-coord.Done():
	case <-exited: // every worker gave up before the campaign finished
	}
	mergeStart := time.Now()
	merged, err := coord.Merged()
	end := time.Now()
	if err != nil {
		cancel()
		<-exited
		return errors.Join(append(errs, err)...)
	}
	<-exited
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("campaign worker: %w", err)
	}
	if tr != nil {
		rec := tr.recorder()
		rec.add(0, campID, kindMerged, mergeStart, end)
		rec.add(campID, 0, kindCampaign, meter.start, end)
	}

	t.add(meter, end, b.pairs, series.Load())
	b.merged = append(b.merged, end.Sub(mergeStart))
	st := coord.Snapshot()
	t.failed += int64(st.LostPairs)
	b.regrants += st.Reassigned
	if st.Done != st.Total {
		t.problemf("%d of %d shards done", st.Done, st.Total)
	}
	n := len(b.world.Names)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if merged.At(i, j) == 0 {
				t.failed++
			}
		}
	}
	if got := series.Load(); got != b.wantSeries {
		t.problemf("%d series, want %d (pairs plus relays touched, per shard)", got, b.wantSeries)
	}
	var enc bytes.Buffer
	if err := merged.Encode(&enc); err != nil {
		return err
	}
	if !bytes.Equal(enc.Bytes(), b.reference) {
		t.problemf("merged matrix differs from a single-process scan (%d vs %d bytes)", enc.Len(), len(b.reference))
	}

	// The finished journal must rebuild the whole ledger.
	if err := coord.Journal().Close(); err != nil {
		return err
	}
	if fi, err := os.Stat(journal); err == nil {
		b.journalBytes = fi.Size()
	}
	recStart := time.Now()
	recovered, err := campaign.RecoverCoordinator(journal, nil)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	b.recover = append(b.recover, time.Since(recStart))
	if rs := recovered.Snapshot(); rs.Done != rs.Total || rs.Total != len(b.shards) {
		t.problemf("recovered journal reports %d of %d shards done", rs.Done, rs.Total)
	}
	return recovered.Journal().Close()
}

func runCampaign(ctx context.Context, cfg config) (*result, error) {
	res := newResult(campaignW)
	fs := fsType(cfg.tmp)
	fmt.Printf("  temp dir %s is on %s\n", cfg.tmp, fs)
	if fs == "tmpfs" {
		fmt.Println("  WARNING: tmpfs makes fsync free; campaign's figures will not compare with a disk's")
	}
	// The warm-up campaigns are fsync-bound like the timed ones, and the
	// host disk's fsync latency moves by a factor of two within minutes:
	// here alone the warm-up stays out of setup_s.
	var b *campaignBench
	_, err := medianSetup(res, func() (func(), error) {
		var err error
		b, err = newCampaignBench(ctx, cfg)
		return func() {}, err
	})
	if err != nil {
		return nil, err
	}
	var warmup value
	w := timed{
		unit: "campaign", workers: campaignWorkers, once: b.once, series: kindSeriesModel,
		layers: func(layers map[string]value) error {
			layers["campaign.warmup_s"] = warmup
			layers["campaign.pairs_per_s"] = res.endToEnd["pairs_per_s"]
			layers["campaign.merged_ms"] = value{millis(median(b.merged)), len(b.merged)}
			layers["campaign.recover_ms"] = value{millis(median(b.recover)), len(b.recover)}
			layers["campaign.journal_kb"] = value{float64(b.journalBytes) / 1024, 1}
			layers["campaign.shards"] = value{float64(len(b.shards)), 1}
			layers["campaign.regrants"] = value{float64(b.regrants), len(b.merged)}
			if err := checkpointLayers(cfg, layers); err != nil {
				return err
			}
			return b.coordinatorLayers(cfg, layers)
		},
	}
	warmStart := time.Now()
	if err := w.warmUp(ctx, 2); err != nil {
		return nil, err
	}
	warmup = value{time.Since(warmStart).Seconds(), 2}
	b.merged, b.recover, b.regrants = nil, nil, 0 // count the timed campaigns only
	if err := w.run(ctx, cfg, res); err != nil {
		return nil, err
	}
	res.finish()
	return res, nil
}

// coordinatorLayers times the coordinator's two durable calls on real
// shards: in process with and without a journal (the difference is the
// fsync-before-ack), and over the loopback CAMP verb against the journaled
// one (the difference from in process is wire plus codec).
func (b *campaignBench) coordinatorLayers(cfg config, layers map[string]value) error {
	start := time.Now()
	partitions := cfg.reps(20)
	for i := 0; i < partitions; i++ {
		campaign.Partition(len(b.world.Names), campaignShards)
	}
	layers["campaign.partition_us"] = value{micros(time.Since(start) / time.Duration(partitions)), partitions}

	reps := min(cfg.reps(64), len(b.shards))
	type calls struct {
		acquire  func() (campaign.Lease, error)
		complete func(campaign.Lease) error
	}
	measure := func(suffix string, journaled bool, over func(*campaign.Coordinator) (calls, func(), error)) error {
		var coord *campaign.Coordinator
		var err error
		if journaled {
			path := filepath.Join(b.tmp, "probe-journal"+suffix)
			defer os.Remove(path)
			coord, err = campaign.NewJournaledCoordinator(b.world.Names, b.shards, campaignTTL, path, nil)
			if err == nil {
				defer coord.Journal().Close()
			}
		} else {
			coord, err = campaign.NewCoordinator(b.world.Names, b.shards, campaignTTL, nil)
		}
		if err != nil {
			return err
		}
		c, stop, err := over(coord)
		if err != nil {
			return err
		}
		defer stop()
		var acquire, complete time.Duration
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			lease, err := c.acquire()
			t1 := time.Now()
			if err != nil {
				return err
			}
			if err := c.complete(lease); err != nil {
				return err
			}
			acquire += t1.Sub(t0)
			complete += time.Since(t1)
		}
		name := func(op string) string {
			if suffix == ".rpc" {
				return "campaign.rpc_" + op + "_us"
			}
			return "campaign." + op + "_us" + suffix
		}
		layers[name("acquire")] = value{micros(acquire / time.Duration(reps)), reps}
		layers[name("complete")] = value{micros(complete / time.Duration(reps)), reps}
		return nil
	}
	const worker = "bench-probe"
	granted := func(l campaign.Lease, r campaign.AcquireResult, err error) (campaign.Lease, error) {
		if err == nil && r != campaign.AcquireGranted {
			err = fmt.Errorf("acquire: no shard granted (%d)", r)
		}
		return l, err
	}
	inProcess := func(coord *campaign.Coordinator) (calls, func(), error) {
		return calls{
			acquire: func() (campaign.Lease, error) { return granted(coord.Acquire(worker)) },
			complete: func(l campaign.Lease) error {
				return coord.Complete(worker, l.Shard.ID, l.Epoch, b.results[l.Shard.ID])
			},
		}, func() {}, nil
	}
	overLoopback := func(coord *campaign.Coordinator) (calls, func(), error) {
		addr, stop, err := serveCoordinator(coord)
		return calls{
			acquire: func() (campaign.Lease, error) { return granted(campaign.Acquire(addr, worker)) },
			complete: func(l campaign.Lease) error {
				return campaign.Complete(addr, worker, l, b.results[l.Shard.ID])
			},
		}, stop, err
	}
	if err := measure(".mem", false, inProcess); err != nil {
		return err
	}
	if err := measure(".journaled", true, inProcess); err != nil {
		return err
	}
	return measure(".rpc", true, overLoopback)
}
