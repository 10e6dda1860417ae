// Command tingload is the load-proof harness for tingd: it hammers a
// running daemon's query surfaces and reports sustained lookups/sec, the
// epochs it saw churn underneath, and answer latency percentiles. Its exit
// code gates CI: -min-rate and -min-epochs turn the report into an
// assertion that the serving plane holds its throughput target *while* the
// sweeper swaps epochs.
//
// Usage:
//
//	tingload -bin 127.0.0.1:7071 -duration 5s -conns 4 -batch 512 -min-rate 100000 -min-epochs 2
//	tingload -http 127.0.0.1:7070 -duration 5s            (JSON API mode; far slower by design)
//	tingload -addr-file tingd.addr -duration 5s           (read the target from tingd's -addr-file)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"ting/internal/cliflags"
	"ting/internal/serve"
)

var (
	binAddr   = flag.String("bin", "", "binary protocol address of a running tingd")
	httpAddr  = flag.String("http", "", "HTTP API address of a running tingd (mutually exclusive with -bin)")
	addrFile  = flag.String("addr-file", "", "read the target addresses from this tingd -addr-file (binary preferred)")
	duration  = flag.Duration("duration", 5*time.Second, "how long to sustain load")
	conns     = flag.Int("conns", 4, "concurrent connections, one goroutine each")
	batchSize = flag.Int("batch", 512, "binary mode: pair lookups per batch request")
	seedFlag  = flag.Int64("seed", 1, "which pairs get looked up")
	minRate   = flag.Float64("min-rate", 0, "fail unless sustained lookups/sec reaches this")
	minEpochs = flag.Int("min-epochs", 0, "fail unless this many distinct epochs were observed (proves lookups ran through live swaps)")
)

// workerStats is one connection's tally, merged after the run.
type workerStats struct {
	lookups   int64
	requests  int64
	errors    int64
	status5xx int64
	epochs    map[uint64]bool
	latencies []time.Duration // per-request round-trip times
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("tingload: ")
	flag.Parse()

	if *addrFile != "" {
		resolveAddrFile()
	}
	if (*binAddr == "") == (*httpAddr == "") {
		log.Fatal("need exactly one of -bin or -http (or -addr-file)")
	}
	if *batchSize < 1 || *batchSize > serve.MaxBatch {
		log.Fatalf("-batch %d outside [1,%d]", *batchSize, serve.MaxBatch)
	}

	var run func(id int, deadline time.Time) (*workerStats, error)
	mode := "binary"
	if *binAddr != "" {
		// The relay count comes from one scouting request; every worker then
		// draws its own random index pairs.
		probe, err := serve.DialBinary(*binAddr)
		if err != nil {
			log.Fatal(err)
		}
		info, err := probe.Epoch()
		probe.Close()
		if err != nil {
			log.Fatalf("probing %s: %v", *binAddr, err)
		}
		if info.Relays < 2 {
			log.Fatalf("server has %d relays", info.Relays)
		}
		fmt.Printf("target %s: %d relays, epoch %d\n", *binAddr, info.Relays, info.Epoch)
		run = func(id int, deadline time.Time) (*workerStats, error) {
			return runBinary(id, deadline, info.Relays)
		}
	} else {
		mode = "http"
		names := fetchNames(*httpAddr)
		fmt.Printf("target %s: %d relays\n", *httpAddr, len(names))
		run = func(id int, deadline time.Time) (*workerStats, error) {
			return runHTTP(id, deadline, names)
		}
	}

	start := time.Now()
	deadline := start.Add(*duration)
	results := make([]*workerStats, *conns)
	errs := make([]error, *conns)
	var wg sync.WaitGroup
	for i := 0; i < *conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = run(i, deadline)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	total := workerStats{epochs: map[uint64]bool{}}
	var all []time.Duration
	for i, ws := range results {
		if errs[i] != nil {
			log.Fatalf("conn %d: %v", i, errs[i])
		}
		total.lookups += ws.lookups
		total.requests += ws.requests
		total.errors += ws.errors
		total.status5xx += ws.status5xx
		for e := range ws.epochs {
			total.epochs[e] = true
		}
		all = append(all, ws.latencies...)
	}
	rate := float64(total.lookups) / elapsed.Seconds()

	fmt.Printf("%s: %d lookups in %v over %d conns → %.0f lookups/sec\n",
		mode, total.lookups, elapsed.Round(time.Millisecond), *conns, rate)
	fmt.Printf("  %d requests, %d errors, %d 5xx, %d distinct epochs observed\n",
		total.requests, total.errors, total.status5xx, len(total.epochs))
	if len(all) > 0 {
		sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
		q := func(p float64) time.Duration { return all[int(p*float64(len(all)-1))] }
		fmt.Printf("  request latency p50=%v p90=%v p99=%v max=%v\n",
			q(0.50).Round(time.Microsecond), q(0.90).Round(time.Microsecond),
			q(0.99).Round(time.Microsecond), all[len(all)-1].Round(time.Microsecond))
	}

	failed := false
	if total.errors > 0 || total.status5xx > 0 {
		fmt.Printf("FAIL: %d errors, %d 5xx\n", total.errors, total.status5xx)
		failed = true
	}
	if *minRate > 0 && rate < *minRate {
		fmt.Printf("FAIL: %.0f lookups/sec under the -min-rate %.0f floor\n", rate, *minRate)
		failed = true
	}
	if *minEpochs > 0 && len(total.epochs) < *minEpochs {
		fmt.Printf("FAIL: saw %d epochs, -min-epochs wants %d (is the sweeper running?)\n",
			len(total.epochs), *minEpochs)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// runBinary is one connection's load loop: random index pairs, batched
// lookups, until the deadline. The reused request/latency buffers keep the
// loop allocation-free, so the harness measures the server, not itself.
func runBinary(id int, deadline time.Time, relays int) (*workerStats, error) {
	c, err := serve.DialBinary(*binAddr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(*seedFlag + int64(id)))
	pairs := make([]uint32, 2**batchSize)
	var cells []serve.BatchCellEx
	ws := &workerStats{epochs: map[uint64]bool{}}
	for time.Now().Before(deadline) {
		for i := range pairs {
			pairs[i] = uint32(rng.Intn(relays))
		}
		t0 := time.Now()
		epoch, out, err := c.RTTBatchEx(pairs, cells)
		if err != nil {
			ws.errors++
			return ws, err
		}
		ws.latencies = append(ws.latencies, time.Since(t0))
		cells = out
		ws.requests++
		ws.lookups += int64(len(out))
		ws.epochs[epoch] = true
	}
	return ws, nil
}

// runHTTP is the JSON-mode loop: single-pair GETs on a keep-alive client.
// It exists to cross-check the API under load, not to hit the binary
// protocol's rate — JSON encode/decode per lookup is the point of contrast.
func runHTTP(id int, deadline time.Time, names []string) (*workerStats, error) {
	client := &http.Client{}
	rng := rand.New(rand.NewSource(*seedFlag + int64(id)))
	ws := &workerStats{epochs: map[uint64]bool{}}
	for time.Now().Before(deadline) {
		x := names[rng.Intn(len(names))]
		y := names[rng.Intn(len(names))]
		t0 := time.Now()
		resp, err := client.Get(fmt.Sprintf("http://%s/v1/rtt?x=%s&y=%s", *httpAddr, x, y))
		if err != nil {
			ws.errors++
			return ws, err
		}
		var body struct {
			Epoch uint64 `json:"epoch"`
		}
		err = decodeJSON(resp, &body)
		ws.latencies = append(ws.latencies, time.Since(t0))
		ws.requests++
		if resp.StatusCode >= 500 {
			ws.status5xx++
			continue
		}
		if err != nil {
			ws.errors++
			return ws, err
		}
		if resp.StatusCode == http.StatusOK {
			ws.lookups++
			ws.epochs[body.Epoch] = true
		}
	}
	return ws, nil
}

func fetchNames(addr string) []string {
	resp, err := http.Get(fmt.Sprintf("http://%s/v1/names", addr))
	if err != nil {
		log.Fatal(err)
	}
	var body struct {
		Names []string `json:"names"`
	}
	if err := decodeJSON(resp, &body); err != nil {
		log.Fatalf("fetching names: %v", err)
	}
	if len(body.Names) < 2 {
		log.Fatalf("server lists %d relays", len(body.Names))
	}
	return body.Names
}

func decodeJSON(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// resolveAddrFile fills -bin / -http from a tingd -addr-file, preferring
// the binary surface. Explicit -bin/-http flags win over the file.
func resolveAddrFile() {
	if *binAddr != "" || *httpAddr != "" {
		return
	}
	addrs, err := cliflags.ReadAddrFile(*addrFile)
	if err != nil {
		log.Fatal(err)
	}
	switch {
	case addrs["bin"] != "":
		*binAddr = addrs["bin"]
	case addrs["http"] != "":
		*httpAddr = addrs["http"]
	default:
		log.Fatalf("%s lists no http= or bin= surface", *addrFile)
	}
}
