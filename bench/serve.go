package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"ting/internal/inet"
	"ting/internal/serve"
	"ting/internal/ting"
)

const (
	serveBatch     = 512 // index pairs per RTTBatchEx
	serveBatchPool = 64  // pre-generated batches the batch client cycles through
	serveNamePool  = 4096
	publishEvery   = 250 * time.Millisecond
)

// serveBench is the lookup plane under writes: a publisher swapping epochs
// while two closed-loop clients read.
type serveBench struct {
	source *ting.Matrix // never published itself; every epoch is a Clone
	names  []string
	// swapI, swapJ is the one cell each epoch overwrites with its own
	// number, so a reply proves which snapshot answered it.
	swapI, swapJ int
	batches      [][]uint32  // flat (i0, j0, i1, j1, …)
	singles      [][2]string // relay-name pairs
	singleIdx    [][2]int
}

func newServeBench(cfg config) (*serveBench, error) {
	n := cfg.size(1000)
	topo, err := inet.Generate(inet.Config{N: n, Seed: cfg.seed})
	if err != nil {
		return nil, err
	}
	b := &serveBench{names: make([]string, n)}
	for i := range b.names {
		b.names[i] = topo.Node(inet.NodeID(i)).Name
	}
	if b.source, err = ting.NewMatrix(b.names); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			x, y := b.names[i], b.names[j]
			if err := b.source.Set(x, y, topo.RTT(inet.NodeID(i), inet.NodeID(j))); err != nil {
				return nil, err
			}
			if err := b.source.SetProv(x, y, ting.ProvFresh); err != nil {
				return nil, err
			}
		}
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	pair := func() (int, int) {
		i, j := rng.Intn(n), rng.Intn(n-1)
		if j >= i {
			j++
		}
		return i, j
	}
	for k := 0; k < serveBatchPool; k++ {
		batch := make([]uint32, 0, 2*serveBatch)
		for c := 0; c < serveBatch; c++ {
			i, j := pair()
			batch = append(batch, uint32(i), uint32(j))
		}
		b.batches = append(b.batches, batch)
	}
	for k := 0; k < serveNamePool; k++ {
		i, j := pair()
		b.singles = append(b.singles, [2]string{b.names[i], b.names[j]})
		b.singleIdx = append(b.singleIdx, [2]int{i, j})
	}
	// Both clients look the swap cell up, so both verify it.
	b.swapI, b.swapJ = int(b.batches[0][0]), int(b.batches[0][1])
	b.singles[0] = [2]string{b.names[b.swapI], b.names[b.swapJ]}
	b.singleIdx[0] = [2]int{b.swapI, b.swapJ}
	return b, nil
}

// publish clones the source, stamps the swap cell with the epoch the clone
// is about to become, and swaps it in.
func (b *serveBench) publish(pub *serve.Publisher, epoch uint64) (clone, total time.Duration, err error) {
	start := time.Now()
	m := b.source.Clone()
	cloned := time.Now()
	if err := m.Set(b.names[b.swapI], b.names[b.swapJ], float64(epoch)); err != nil {
		return 0, 0, err
	}
	snap, err := pub.Publish(m)
	if err != nil {
		return 0, 0, err
	}
	if snap.Epoch() != epoch {
		return 0, 0, fmt.Errorf("published epoch %d, expected %d", snap.Epoch(), epoch)
	}
	return cloned.Sub(start), time.Since(start), nil
}

// want is the value epoch must report for cell (i, j).
func (b *serveBench) want(epoch uint64, i, j int) float64 {
	if (i == b.swapI && j == b.swapJ) || (i == b.swapJ && j == b.swapI) {
		return float64(epoch)
	}
	return b.source.At(i, j)
}

// kept is one reply retained for checking after the timed loop: the first
// a connection saw from each epoch.
type kept struct {
	epoch uint64
	req   int // index into the client's request pool
	cells []serve.BatchCellEx
}

// clientStats is one connection's tally.
type clientStats struct {
	name      string
	requests  int64
	lookups   int64
	failed    int64
	latencies []time.Duration // timed part only
	windows   []float64       // lookups/s of each publishEvery-long window
	wall      time.Duration
	epochs    []kept
	problems  []string
}

// loadClient is a closed loop: the next request leaves when the previous
// reply has been read. do sends request k and returns the reply's epoch and
// cells.
func loadClient(name string, warmUntil, until time.Time, rec *recorder, reqKind kind,
	do func(k int, out []serve.BatchCellEx) (uint64, []serve.BatchCellEx, error)) *clientStats {
	st := &clientStats{name: name}
	connStart := time.Now()
	var connID int32
	if rec != nil {
		connID = rec.t.reserve()
	}
	var out []serve.BatchCellEx
	var last uint64
	var timedStart time.Time
	var window meter
	var windowLookups int64
	t0 := time.Now()
	for k := 0; t0.Before(until); k++ {
		epoch, cells, err := do(k, out)
		t1 := time.Now()
		out = cells
		timed := !t0.Before(warmUntil)
		if timed {
			if timedStart.IsZero() {
				timedStart = t0
				window = meter{t0, stolenTime()}
			}
			st.requests++
			st.latencies = append(st.latencies, t1.Sub(t0))
			st.wall = t1.Sub(timedStart)
			if rec != nil {
				rec.add(0, connID, reqKind, t0, t1)
			}
		}
		switch {
		case err != nil:
			if timed {
				st.failed++
			}
			if len(st.problems) < 3 {
				st.problems = append(st.problems, fmt.Sprintf("%s request %d: %v", name, k, err))
			}
		case epoch < last:
			st.problems = append(st.problems, fmt.Sprintf("%s: epoch went back from %d to %d", name, last, epoch))
		default:
			if timed {
				st.lookups += int64(len(cells))
				windowLookups += int64(len(cells))
				if t1.Sub(window.start) >= publishEvery {
					st.windows = append(st.windows, float64(windowLookups)/window.ran(t1).Seconds())
					windowLookups, window = 0, meter{t1, stolenTime()}
				}
				if epoch != last || len(st.epochs) == 0 {
					st.epochs = append(st.epochs, kept{epoch, k, append([]serve.BatchCellEx(nil), cells...)})
				}
			}
			last = epoch
		}
		t0 = t1
	}
	if rec != nil {
		rec.add(connID, 0, kindConn, connStart, time.Now())
	}
	return st
}

// serveTotals is one phase of the serve workload.
type serveTotals struct {
	batch, single   *clientStats
	publish, clone  []time.Duration
	publishProblems []string
	timedSeconds    float64
}

// phase runs the publisher and both clients for warm + dur.
func (b *serveBench) phase(ctx context.Context, warm, dur time.Duration, tr *tracer) (*serveTotals, error) {
	pub := serve.NewPublisher(nil)
	epoch := uint64(1)
	if _, _, err := b.publish(pub, epoch); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srvCtx, stopServer := context.WithCancel(ctx)
	served := make(chan error, 1)
	go func() { served <- serve.NewBinaryServer(pub, nil).Serve(srvCtx, ln) }()
	defer func() { stopServer(); <-served }()

	batchConn, err := serve.DialBinary(ln.Addr().String())
	if err != nil {
		return nil, err
	}
	defer batchConn.Close()
	singleConn, err := serve.DialBinary(ln.Addr().String())
	if err != nil {
		return nil, err
	}
	defer singleConn.Close()

	t := &serveTotals{timedSeconds: dur.Seconds()}
	start := time.Now()
	warmUntil, until := start.Add(warm), start.Add(warm+dur)

	var wg sync.WaitGroup
	stopPublisher := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		var rec *recorder
		if tr != nil {
			rec = tr.recorder()
		}
		tick := time.NewTicker(publishEvery)
		defer tick.Stop()
		for {
			select {
			case <-stopPublisher:
				return
			case <-tick.C:
			}
			epoch++
			begin := time.Now()
			clone, total, err := b.publish(pub, epoch)
			if err != nil {
				t.publishProblems = append(t.publishProblems, err.Error())
				return
			}
			t.clone = append(t.clone, clone)
			t.publish = append(t.publish, total-clone)
			if rec != nil {
				id := rec.add(0, 0, kindPublish, begin, begin.Add(total))
				rec.add(0, id, kindClone, begin, begin.Add(clone))
			}
		}
	}()

	var batchRec, singleRec *recorder
	if tr != nil {
		batchRec, singleRec = tr.recorder(), tr.recorder()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		t.batch = loadClient("batch", warmUntil, until, batchRec, kindBatch,
			func(k int, out []serve.BatchCellEx) (uint64, []serve.BatchCellEx, error) {
				return batchConn.RTTBatchEx(b.batches[k%len(b.batches)], out)
			})
	}()
	go func() {
		defer wg.Done()
		t.single = loadClient("single", warmUntil, until, singleRec, kindSingle,
			func(k int, out []serve.BatchCellEx) (uint64, []serve.BatchCellEx, error) {
				p := b.singles[k%len(b.singles)]
				epoch, rtt, prov, conf, err := singleConn.RTTEx(p[0], p[1])
				if err != nil {
					return 0, out[:0], err
				}
				return epoch, append(out[:0], serve.BatchCellEx{RTTms: rtt, Prov: prov, Conf: conf}), nil
			})
	}()
	// The publisher outlives the readers by design: stop it once they are
	// done, so every read ran beside live swaps.
	go func() {
		time.Sleep(time.Until(until))
		close(stopPublisher)
	}()
	wg.Wait()
	return t, ctx.Err()
}

// verify checks every kept reply cell by cell against the source matrix.
func (b *serveBench) verify(t *serveTotals, res *result) {
	res.problems = append(res.problems, t.publishProblems...)
	for _, c := range []*clientStats{t.batch, t.single} {
		res.attempted += c.requests
		res.failed += c.failed
		res.problems = append(res.problems, c.problems...)
		// Four swaps a second; the first and last quarter-second may each
		// miss one.
		if want := int(t.timedSeconds*4) - 2; len(c.epochs) < want {
			res.failf("%s saw %d distinct epochs, want at least %d", c.name, len(c.epochs), want)
		}
		bad := 0
		for _, k := range c.epochs {
			for n, cell := range k.cells {
				var i, j int
				if c == t.batch {
					req := b.batches[k.req%len(b.batches)]
					i, j = int(req[2*n]), int(req[2*n+1])
				} else {
					p := b.singleIdx[k.req%len(b.singleIdx)]
					i, j = p[0], p[1]
				}
				if cell.RTTms != b.want(k.epoch, i, j) || cell.Prov != ting.ProvFresh || cell.Conf != 1 {
					bad++
				}
			}
		}
		if bad != 0 {
			res.failf("%s: %d cells of %d kept replies differ from the source matrix", c.name, bad, len(c.epochs))
		}
	}
}

func (c *clientStats) lookupsPerSec() float64 { return steadyRate(c.windows) }

func runServe(ctx context.Context, cfg config) (*result, error) {
	res := newResult(serveW)
	var b *serveBench
	_, err := medianSetup(res, func() (func(), error) {
		var err error
		b, err = newServeBench(cfg)
		return func() {}, err
	})
	if err != nil {
		return nil, err
	}
	dur := cfg.timed()
	warm := dur / 10
	if cfg.trace != "" {
		dur /= 2
	}
	// The warm-up is a fixed wait; it is set-up all the same.
	res.endToEnd["setup_s"] = value{res.endToEnd["setup_s"].v + warm.Seconds(), setupReps}
	plain, err := b.phase(ctx, warm, dur, nil)
	if err != nil {
		return nil, err
	}
	for _, c := range []*clientStats{plain.batch, plain.single} {
		if len(c.windows) == 0 {
			return nil, errors.New("serve: " + c.name + " completed no timed window")
		}
		sortDurations(c.latencies)
		w := append([]float64(nil), c.windows...)
		sort.Float64s(w)
		fmt.Printf("  %s lookups/s over %d windows: min %.0f, quartiles %.0f %.0f %.0f, max %.0f; lookups ÷ wall %.0f\n",
			c.name, len(w), w[0], percentile(w, 0.25), percentile(w, 0.5), percentile(w, 0.75), w[len(w)-1],
			float64(c.lookups)/c.wall.Seconds())
		res.endToEnd[c.name+"_lookups_per_s"] = value{c.lookupsPerSec(), int(c.requests)}
		res.endToEnd[c.name+"_p50_us"] = value{micros(percentile(c.latencies, 0.5)), len(c.latencies)}
	}
	b.verify(plain, res)
	fmt.Printf("  epochs seen: batch %d, single %d over %.1f s\n", len(plain.batch.epochs), len(plain.single.epochs), plain.timedSeconds)

	if cfg.trace != "" {
		tr := newTracer()
		since := readUsage()
		traced, err := b.phase(ctx, warm, dur, tr)
		if err != nil {
			return nil, err
		}
		res.layers = map[string]value{}
		procMetrics(res.layers, since)
		b.verify(traced, res)
		res.layers["trace.overhead_share"] = value{1 - traced.batch.lookupsPerSec()/plain.batch.lookupsPerSec(), int(traced.batch.requests)}
		for _, c := range []*clientStats{traced.batch, traced.single} {
			sortDurations(c.latencies)
			n := len(c.latencies)
			if n == 0 {
				continue
			}
			res.layers[c.name+"_p50_us"] = value{micros(percentile(c.latencies, 0.5)), n}
			if v, ok := p99(c.latencies); ok {
				res.layers["serve."+c.name+"_p99_us"] = value{micros(v), n}
			}
			if i, _, ok := tailRank(n); ok {
				res.layers["serve."+c.name+"_pmax_us"] = value{micros(c.latencies[i]), n}
			}
		}
		if len(traced.publish) > 0 {
			res.layers["serve.publish_ms"] = value{millis(median(traced.publish)), len(traced.publish)}
			res.layers["ting.matrix_clone_ms"] = value{millis(median(traced.clone)), len(traced.clone)}
		}
		if err := b.inProcessLayer(ctx, cfg, res.layers); err != nil {
			return nil, err
		}
		if err := finishTrace(cfg, res, tr.spans()); err != nil {
			return nil, err
		}
	}
	res.finish()
	return res, nil
}

// pipeListener hands BinaryServer.Serve in-memory connections, so a lookup
// costs frame decode, handle and encode without the kernel.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.closed) }); return nil }
func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "bench-pipe", Net: "pipe"} }

func (b *serveBench) inProcessLayer(ctx context.Context, cfg config, layers map[string]value) error {
	pub := serve.NewPublisher(nil)
	if _, _, err := b.publish(pub, 1); err != nil {
		return err
	}
	ln := &pipeListener{conns: make(chan net.Conn), closed: make(chan struct{})}
	srvCtx, stop := context.WithCancel(ctx)
	served := make(chan error, 1)
	go func() { served <- serve.NewBinaryServer(pub, nil).Serve(srvCtx, ln) }()
	defer func() { stop(); <-served }()
	near, far := net.Pipe()
	select {
	case ln.conns <- far:
	case <-ctx.Done():
		return ctx.Err()
	}
	cl := serve.NewBinClient(near)
	defer cl.Close()
	var out []serve.BatchCellEx
	k := 0
	d, _, n, err := perOp(2*cfg.probeBudget(), func() error {
		k++
		var err error
		_, out, err = cl.RTTBatchEx(b.batches[k%len(b.batches)], out)
		return err
	})
	if err != nil {
		return err
	}
	layers["serve.inproc_ns_per_lookup"] = value{d / serveBatch, n * serveBatch}
	return nil
}
