package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ting/internal/netutil"
)

// TestNilRegistryIsNoOp pins the disabled mode: a nil registry hands out
// nil metrics whose methods do nothing, and snapshots read empty.
func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(10)
	if c.Value() != 0 {
		t.Error("nil counter accumulated")
	}
	g := r.Gauge("x")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 0 {
		t.Error("nil gauge accumulated")
	}
	h := r.Histogram("x")
	h.Observe(3.5)
	if h.Quantile(0.5) != 0 {
		t.Error("nil histogram accumulated")
	}
	r.Trace().Record("kind", "detail", 1)
	if r.Trace().Events() != nil {
		t.Error("nil trace accumulated")
	}
	s := r.Snapshot()
	if s.Counters == nil || s.Gauges == nil || s.Histograms == nil {
		t.Error("nil-registry snapshot has nil maps")
	}
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Errorf("nil-registry snapshot not empty: %+v", s)
	}
}

// TestRegistryReturnsSameMetric pins once-per-name registration: lookups
// by the same name share one underlying metric.
func TestRegistryReturnsSameMetric(t *testing.T) {
	r := New()
	r.Counter("a").Inc()
	r.Counter("a").Inc()
	if got := r.Counter("a").Value(); got != 2 {
		t.Errorf("counter a = %d, want 2", got)
	}
	r.Gauge("g").Set(5)
	if got := r.Gauge("g").Value(); got != 5 {
		t.Errorf("gauge g = %d, want 5", got)
	}
	r.Histogram("h").Observe(1)
	if got := r.Histogram("h").snapshot().Count; got != 1 {
		t.Errorf("histogram h count = %d, want 1", got)
	}
	// Bounds are fixed at creation; a second lookup with different bounds
	// must not reset the histogram.
	if h := r.HistogramBuckets("h", []float64{1000}); h.snapshot().Count != 1 {
		t.Error("HistogramBuckets with new bounds replaced an existing histogram")
	}
}

// TestRegistryConcurrent is the -race test: metric creation, updates, and
// snapshots all race against each other and must stay consistent.
func TestRegistryConcurrent(t *testing.T) {
	r := New()
	const goroutines = 8
	const perG = 500
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				r.Counter("shared").Inc()
				r.Gauge("busy").Add(1)
				r.Histogram("rtt").Observe(float64(j % 50))
				r.Trace().Record("ev", "x-y", float64(j))
				r.Gauge("busy").Add(-1)
			}
		}()
	}
	// Snapshot continuously while writers run.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			s := r.Snapshot()
			var buf bytes.Buffer
			if err := s.WriteJSON(&buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done

	want := int64(goroutines * perG)
	if got := r.Counter("shared").Value(); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if got := r.Gauge("busy").Value(); got != 0 {
		t.Errorf("gauge did not return to 0: %d", got)
	}
	if got := r.Histogram("rtt").snapshot().Count; got != want {
		t.Errorf("histogram count = %d, want %d", got, want)
	}
	if got := len(r.Trace().Events()); got != DefaultTraceCap {
		t.Errorf("trace holds %d events after %d records, want its capacity %d", got, want, DefaultTraceCap)
	}
}

// TestHistogramQuantiles checks the interpolation math on a distribution
// engineered to land exactly on bucket edges: values 1..100 against decade
// bounds put ten observations in each bucket.
func TestHistogramQuantiles(t *testing.T) {
	bounds := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	h := NewHistogram(bounds)
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v))
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 50},
		{0.9, 90},
		{0.25, 25},
		{1, 100},
		{0, 0}, // rank 0 interpolates to the first bucket's floor
	} {
		if got := h.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if n := h.snapshot().Count; n != 100 {
		t.Errorf("count = %d", n)
	}
	if sum := h.snapshot().Sum; sum != 5050 {
		t.Errorf("sum = %v, want 5050", sum)
	}
}

// TestHistogramOverflowClampsToMax: observations beyond the last bound go
// in the overflow bucket, and high quantiles clamp to the observed max
// rather than inventing an infinite bound.
func TestHistogramOverflowClampsToMax(t *testing.T) {
	h := NewHistogram([]float64{10})
	h.Observe(5)
	h.Observe(1e6)
	if got := h.Quantile(1); got != 1e6 {
		t.Errorf("Quantile(1) = %v, want observed max 1e6", got)
	}
	s := h.snapshot()
	if s.Min != 5 || s.Max != 1e6 || s.Count != 2 {
		t.Errorf("snapshot = %+v", s)
	}
}

func TestHistogramEmptyAndNaN(t *testing.T) {
	h := NewHistogram(nil)
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile != 0")
	}
	h.Observe(nan())
	if h.snapshot().Count != 0 {
		t.Error("NaN observation counted")
	}
	s := h.snapshot()
	if s != (HistogramSnapshot{}) {
		t.Errorf("empty snapshot = %+v, want zero value", s)
	}
}

func nan() float64 { z := 0.0; return z / z }

// TestSnapshotGolden pins the exposition schema byte-for-byte. If this
// test breaks, every dashboard and script parsing /metrics.json breaks
// with it — change the golden string only for a deliberate schema change.
func TestSnapshotGolden(t *testing.T) {
	r := New()
	r.Counter("ting.pairs_measured").Add(3)
	r.Counter("ting.retries").Add(1)
	r.Gauge("ting.scanner_active_workers").Set(2)
	h := r.HistogramBuckets("ting.pair_rtt_ms", []float64{50, 100})
	h.Observe(25)
	h.Observe(75)

	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := `{
  "schema": 1,
  "counters": {
    "ting.pairs_measured": 3,
    "ting.retries": 1
  },
  "gauges": {
    "ting.scanner_active_workers": 2
  },
  "histograms": {
    "ting.pair_rtt_ms": {
      "count": 2,
      "sum": 100,
      "min": 25,
      "max": 75,
      "p50": 50,
      "p90": 90,
      "p99": 99
    }
  }
}
`
	if got := buf.String(); got != golden {
		t.Errorf("snapshot JSON drifted from golden:\ngot:\n%s\nwant:\n%s", got, golden)
	}
}

// TestTraceRing checks ordering and wrapping, and that the events' stamps
// never run backwards.
func TestTraceRing(t *testing.T) {
	tr := NewTrace(3)
	for _, k := range []string{"a", "b", "c", "d", "e"} {
		tr.Record(k, "", 0)
	}
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("%d events retained, want 3", len(evs))
	}
	for i, want := range []string{"c", "d", "e"} {
		if evs[i].Kind != want {
			t.Errorf("event %d = %q, want %q (oldest first)", i, evs[i].Kind, want)
		}
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].At.Before(evs[i-1].At) {
			t.Errorf("event %d stamped %v, before event %d's %v", i, evs[i].At, i-1, evs[i-1].At)
		}
	}
}

func TestTraceCapacityFloor(t *testing.T) {
	tr := NewTrace(0)
	tr.Record("only", "", 0)
	if len(tr.Events()) != 1 {
		t.Error("zero-capacity trace did not clamp to 1")
	}
}

// TestHandlerEndpoints drives the debug HTTP surface through httptest and
// checks each route serves what it promises.
func TestHandlerEndpoints(t *testing.T) {
	r := New()
	r.Counter("ting.pairs_measured").Add(4)
	r.Trace().Record("pair", "x-y", 73) // one event for /trace.json
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	// The index lists exactly the routes served, and each one answers.
	code, body := get("/")
	routes := strings.Split(strings.TrimSpace(strings.TrimPrefix(body, "ting telemetry\n\n")), "\n")
	if want := []string{"/metrics", "/metrics.json", "/trace.json", "/debug/pprof/"}; code != 200 || !slices.Equal(routes, want) {
		t.Errorf("index: code %d, routes %q, want %q", code, routes, want)
	}
	for _, route := range routes {
		if code, _ := get(route); code != 200 {
			t.Errorf("index lists %s, which answers %d", route, code)
		}
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	const openMetrics = "application/openmetrics-text; version=1.0.0; charset=utf-8"
	if ct := resp.Header.Get("Content-Type"); ct != openMetrics {
		t.Errorf("/metrics content type = %q, want %q", ct, openMetrics)
	}
	if !strings.HasSuffix(string(prom), "# EOF\n") {
		t.Errorf("/metrics does not end in # EOF: %q", prom)
	}
	if code, _ := get("/metrics.prom"); code != 404 {
		t.Errorf("/metrics.prom: code %d, want 404", code)
	}
	code, body = get("/metrics.json")
	if code != 200 {
		t.Fatalf("/metrics.json: code %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics.json not parseable: %v", err)
	}
	if snap.Counters["ting.pairs_measured"] != 4 {
		t.Errorf("snapshot over HTTP = %+v", snap)
	}
	code, body = get("/trace.json")
	if code != 200 {
		t.Fatalf("/trace.json: code %d", code)
	}
	var evs []Event
	if err := json.Unmarshal([]byte(body), &evs); err != nil {
		t.Fatalf("/trace.json not parseable: %v", err)
	}
	if len(evs) != 1 || evs[0].Kind != "pair" || evs[0].Ms != 73 {
		t.Errorf("trace over HTTP = %+v", evs)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Errorf("pprof not wired: code %d", code)
	}
	if code, _ := get("/no-such-page"); code != 404 {
		t.Errorf("unknown path served: code %d", code)
	}
}

// TestServe binds :0, hits the live server, and shuts it down.
func TestServe(t *testing.T) {
	r := New()
	r.Counter("up").Inc()
	addr, shutdown, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "\nup_total 1\n") {
		t.Errorf("served metrics = %q", body)
	}
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("server still answering after shutdown")
	}
}

// TestServeConnectionLimit: the debug listener is bounded like every other
// socket server. With netutil.MaxConns keep-alive connections held idle,
// one more connection's request gets no reply; once a held connection
// closes, it is answered.
func TestServeConnectionLimit(t *testing.T) {
	addr, shutdown, err := Serve("127.0.0.1:0", New())
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	const req = "GET /no-such-page HTTP/1.1\r\nHost: debug\r\n\r\n"
	ask := func() (net.Conn, *bufio.Reader) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		if _, err := conn.Write([]byte(req)); err != nil {
			t.Fatal(err)
		}
		return conn, bufio.NewReader(conn)
	}
	status := func(conn net.Conn, br *bufio.Reader, wait time.Duration) (string, error) {
		conn.SetReadDeadline(time.Now().Add(wait))
		line, err := br.ReadString('\n')
		return strings.TrimSpace(line), err
	}
	const answered = "HTTP/1.1 404 Not Found"
	held := make([]net.Conn, 0, netutil.MaxConns)
	for i := 0; i < netutil.MaxConns; i++ {
		conn, br := ask()
		if line, err := status(conn, br, 5*time.Second); err != nil || line != answered {
			t.Fatalf("held connection %d: %q, %v", i, line, err)
		}
		held = append(held, conn) // keep-alive: its slot stays taken
	}
	extra, br := ask()
	if line, err := status(extra, br, 200*time.Millisecond); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection %d answered with every slot held: %q, %v", netutil.MaxConns+1, line, err)
	}
	held[0].Close()
	if line, err := status(extra, br, 5*time.Second); err != nil || line != answered {
		t.Fatalf("connection %d after a slot freed: %q, %v", netutil.MaxConns+1, line, err)
	}
}

// TestTraceJSONEmptyIsArray: an empty trace must encode as [] not null, so
// parsers on the other end never see a null where a list is promised.
func TestTraceJSONEmptyIsArray(t *testing.T) {
	srv := httptest.NewServer(New().Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/trace.json")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.TrimSpace(string(body)) != "[]" {
		t.Errorf("empty trace = %q, want []", body)
	}
}
