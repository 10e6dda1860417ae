package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"

	"ting/internal/netutil"
)

// HistogramSnapshot is the exposition form of one histogram.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// SchemaVersion is the version of the JSON exposition format, carried as
// the top-level "schema" field so consumers can detect incompatible
// changes. Bump it when a field is renamed, retyped, or removed — not for
// additions, which versioned consumers must tolerate. The OpenMetrics
// exposition at /metrics follows its own spec and is not versioned here.
const SchemaVersion = 1

// Snapshot is a point-in-time view of a registry. Encoding to JSON is
// deterministic (map keys sort), so tests can pin the schema.
type Snapshot struct {
	Schema     int                          `json:"schema"`
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every metric. Counters, gauges, and histograms are
// each read atomically; the snapshot as a whole is not a single atomic cut
// across metrics, which exposition does not need. A nil registry yields an
// empty (but non-nil-map) snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Schema:     SchemaVersion,
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	for k, c := range counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		s.Gauges[k] = g.Value()
	}
	for k, h := range hists {
		s.Histograms[k] = h.snapshot()
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Handler returns the debug surface for the registry:
//
//	/               index
//	/metrics        OpenMetrics text exposition (Prometheus's default path)
//	/metrics.json   JSON snapshot, with histogram min and max
//	/trace.json     the event trace, oldest first
//	/debug/pprof/   the standard pprof handlers
//
// Works on a nil registry (all metrics read empty).
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		io.WriteString(w, "ting telemetry\n\n/metrics\n/metrics.json\n/trace.json\n/debug/pprof/\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		r.Snapshot().WriteOpenMetrics(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		r.Snapshot().WriteJSON(w)
	})
	mux.HandleFunc("/trace.json", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		events := r.Trace().Events()
		if events == nil {
			events = []Event{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(events)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts the debug HTTP server on addr in the background and returns
// the bound address (useful with ":0") and a shutdown function. It accepts
// through netutil.LimitListener, so it holds at most netutil.MaxConns
// connections open.
func Serve(addr string, r *Registry) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: r.Handler()}
	go srv.Serve(netutil.LimitListener(ln, netutil.MaxConns))
	return ln.Addr().String(), srv.Close, nil
}
