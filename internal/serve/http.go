package serve

import (
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"time"

	"ting/internal/pathsel"
	"ting/internal/telemetry"
)

// The HTTP query API, versioned under /v1 (the version lives in the path,
// so a breaking redesign ships as /v2 next to a still-working /v1):
//
//	GET /v1/epoch                  epoch metadata (seq, etag, age, coverage)
//	GET /v1/names                  the relay name table, index-aligned
//	GET /v1/rtt?x=A&y=B            one pair's RTT + provenance + epoch
//	GET /v1/paths?length=&budget_ms=&k=   k lowest-RTT circuits within budget
//	GET /v1/tiv?top=N              TIV summary + the N biggest detour wins (N ≤ maxTIVTop)
//
// Every 200 carries the epoch's ETag; a request presenting it back via
// If-None-Match is answered 304 with no body — the epoch-based client
// caching that makes polling the matrix between sweeps free.

// pathAttempts bounds the rejection sampler behind /v1/paths.
const pathAttempts = 2000

// maxTIVTop caps /v1/tiv's top: a larger one is served as this many, so a
// request's work stays bounded however many TIVs an epoch has.
const maxTIVTop = 1000

// Server serves the /v1 query API over one Publisher.
type Server struct {
	pub *Publisher

	lookups  *telemetry.Counter
	requests *telemetry.Counter
	notMod   *telemetry.Counter
	errs5xx  *telemetry.Counter
	httpMs   *telemetry.Histogram
}

// NewServer creates the HTTP query server reporting into reg (nil = no-op
// metrics).
func NewServer(pub *Publisher, reg *telemetry.Registry) *Server {
	return &Server{
		pub:      pub,
		lookups:  reg.Counter("serve.lookups"),
		requests: reg.Counter("serve.http.requests"),
		notMod:   reg.Counter("serve.http.not_modified"),
		errs5xx:  reg.Counter("serve.http.5xx"),
		httpMs:   reg.Histogram("serve.http_ms"),
	}
}

// statusWriter records the status code a handler wrote, so the
// instrumentation wrapper can count 5xx and 304 responses.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Handler returns the /v1 API handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/epoch", s.withSnapshot(s.handleEpoch))
	mux.HandleFunc("/v1/names", s.withSnapshot(s.handleNames))
	mux.HandleFunc("/v1/rtt", s.withSnapshot(s.handleRTT))
	mux.HandleFunc("/v1/paths", s.withSnapshot(s.handlePaths))
	mux.HandleFunc("/v1/tiv", s.withSnapshot(s.handleTIV))
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeErr(w, http.StatusNotFound, "unknown endpoint; the API is versioned under /v1 (epoch, names, rtt, paths, tiv)")
	})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		mux.ServeHTTP(sw, r)
		s.requests.Inc()
		if sw.status >= 500 {
			s.errs5xx.Inc()
		}
		s.httpMs.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	})
}

// withSnapshot captures the current epoch once per request — the atomic
// load that replaces any locking against the sweeper — and handles the
// no-epoch-yet and If-None-Match cases uniformly. The handler then answers
// entirely from its snapshot: a swap mid-request cannot tear an answer
// across epochs.
func (s *Server) withSnapshot(h func(w http.ResponseWriter, r *http.Request, snap *Snapshot)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeErr(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		snap := s.pub.Current()
		if snap == nil {
			// 503, not 404: the relays exist, the first sweep just has not
			// published yet. Retry-After tells pollers this is transient.
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusServiceUnavailable, "no epoch published yet")
			return
		}
		w.Header().Set("ETag", snap.ETag())
		if r.Header.Get("If-None-Match") == snap.ETag() {
			s.notMod.Inc()
			w.WriteHeader(http.StatusNotModified)
			return
		}
		h(w, r, snap)
	}
}

type epochReply struct {
	Epoch     uint64    `json:"epoch"`
	ETag      string    `json:"etag"`
	Published time.Time `json:"published"`
	Relays    int       `json:"relays"`
	Pairs     provReply `json:"pairs"`
}

type provReply struct {
	Fresh     int `json:"fresh"`
	Resumed   int `json:"resumed"`
	Removed   int `json:"removed"`
	Predicted int `json:"predicted"`
	Missing   int `json:"missing"`
}

func (s *Server) handleEpoch(w http.ResponseWriter, r *http.Request, snap *Snapshot) {
	pc := snap.ProvCounts()
	writeJSON(w, epochReply{
		Epoch:     snap.Epoch(),
		ETag:      snap.ETag(),
		Published: snap.PublishedAt(),
		Relays:    snap.View().N(),
		Pairs: provReply{
			Fresh: pc.Fresh, Resumed: pc.Resumed, Removed: pc.Removed,
			Predicted: pc.Predicted, Missing: pc.Missing,
		},
	})
}

type namesReply struct {
	Epoch uint64   `json:"epoch"`
	Names []string `json:"names"`
}

func (s *Server) handleNames(w http.ResponseWriter, r *http.Request, snap *Snapshot) {
	writeJSON(w, namesReply{Epoch: snap.Epoch(), Names: snap.View().Names()})
}

type rttReply struct {
	Epoch      uint64  `json:"epoch"`
	X          string  `json:"x"`
	Y          string  `json:"y"`
	RTTMs      float64 `json:"rtt_ms"`
	Provenance string  `json:"provenance"`
	// Confidence is 1 for measured cells, the embedding's per-cell score
	// for predicted ones, 0 for missing.
	Confidence float64 `json:"confidence"`
}

func (s *Server) handleRTT(w http.ResponseWriter, r *http.Request, snap *Snapshot) {
	x, y := r.URL.Query().Get("x"), r.URL.Query().Get("y")
	if x == "" || y == "" {
		writeErr(w, http.StatusBadRequest, "need x and y relay names")
		return
	}
	view := snap.View()
	rtt, err := view.RTT(x, y)
	if err != nil {
		writeErr(w, http.StatusNotFound, err.Error())
		return
	}
	s.lookups.Inc()
	xi, _ := view.Index(x)
	yi, _ := view.Index(y)
	writeJSON(w, rttReply{
		Epoch:      snap.Epoch(),
		X:          x,
		Y:          y,
		RTTMs:      rtt,
		Provenance: view.Prov(x, y).String(),
		Confidence: view.ConfAt(xi, yi),
	})
}

type pathsReply struct {
	Epoch    uint64      `json:"epoch"`
	BudgetMs float64     `json:"budget_ms"`
	Length   int         `json:"length"`
	Paths    []pathReply `json:"paths"`
}

type pathReply struct {
	Hops  []string `json:"hops"`
	RTTMs float64  `json:"rtt_ms"`
}

// handlePaths recommends the k lowest-latency circuits of the requested
// length within a latency budget, feeding pathsel's rejection sampler and
// keeping the k best of its unbiased sample. The sampler seed defaults to
// the epoch, so within one epoch the same query returns the same answer —
// which is what makes the ETag an honest validator for this endpoint too.
func (s *Server) handlePaths(w http.ResponseWriter, r *http.Request, snap *Snapshot) {
	q := r.URL.Query()
	length, err := intParam(q.Get("length"), 3)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad length: "+err.Error())
		return
	}
	k, err := intParam(q.Get("k"), 3)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad k: "+err.Error())
		return
	}
	budget, err := floatParam(q.Get("budget_ms"), 0)
	if err != nil || budget <= 0 {
		writeErr(w, http.StatusBadRequest, "need a positive budget_ms")
		return
	}
	seed, err := intParam(q.Get("seed"), int(snap.Epoch()))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad seed: "+err.Error())
		return
	}
	view := snap.View()
	rng := rand.New(rand.NewSource(int64(seed)))
	// Oversample so "k lowest" is a recommendation, not just "first k that
	// fit": the sampler returns a uniform draw of qualifying circuits and we
	// keep the best tail of it.
	want := k * 8
	if want < 64 {
		want = 64
	}
	circs, err := pathsel.SelectLowLatency(view, length, budget, want, pathAttempts, rng)
	if err != nil {
		// No qualifying circuit is an empty recommendation, not a server
		// error.
		writeJSON(w, pathsReply{Epoch: snap.Epoch(), BudgetMs: budget, Length: length, Paths: []pathReply{}})
		return
	}
	sort.Slice(circs, func(a, b int) bool { return circs[a].RTTms < circs[b].RTTms })
	if len(circs) > k {
		circs = circs[:k]
	}
	names := view.Names()
	out := make([]pathReply, len(circs))
	for i, c := range circs {
		hops := make([]string, len(c.Hops))
		for j, h := range c.Hops {
			hops[j] = names[h]
		}
		out[i] = pathReply{Hops: hops, RTTMs: c.RTTms}
	}
	writeJSON(w, pathsReply{Epoch: snap.Epoch(), BudgetMs: budget, Length: length, Paths: out})
}

type tivReply struct {
	Epoch    uint64     `json:"epoch"`
	Pairs    int        `json:"pairs"`
	WithTIV  int        `json:"with_tiv"`
	Fraction float64    `json:"fraction"`
	Top      []tivEntry `json:"top"`
}

type tivEntry struct {
	X        string  `json:"x"`
	Y        string  `json:"y"`
	Via      string  `json:"via"`
	DirectMs float64 `json:"direct_ms"`
	DetourMs float64 `json:"detour_ms"`
	Savings  float64 `json:"savings"`
	// Predicted flags a violation whose direct leg is a model-completed
	// cell rather than a measurement — a candidate, not evidence.
	// Violations whose witness (detour) legs are predicted are dropped
	// from the scan entirely.
	Predicted bool `json:"predicted,omitempty"`
}

func (s *Server) handleTIV(w http.ResponseWriter, r *http.Request, snap *Snapshot) {
	top, err := intParam(r.URL.Query().Get("top"), 5)
	if err != nil || top < 0 {
		writeErr(w, http.StatusBadRequest, "bad top")
		return
	}
	tivs, err := snap.TIVs()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	view := snap.View()
	n := view.N()
	reply := tivReply{
		Epoch:   snap.Epoch(),
		Pairs:   n * (n - 1) / 2,
		WithTIV: len(tivs),
		Top:     []tivEntry{},
	}
	if reply.Pairs > 0 {
		reply.Fraction = float64(reply.WithTIV) / float64(reply.Pairs)
	}
	// The snapshot keeps its TIVs sorted by savings: the top is the front.
	names := view.Names()
	for _, t := range tivs[:min(top, maxTIVTop, len(tivs))] {
		reply.Top = append(reply.Top, tivEntry{
			X: names[t.S], Y: names[t.D], Via: names[t.R],
			DirectMs: t.DirectMs, DetourMs: t.DetourMs,
			Savings: t.SavingsFraction(), Predicted: t.Predicted,
		})
	}
	writeJSON(w, reply)
}

type errReply struct {
	Error string `json:"error"`
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errReply{Error: msg})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func intParam(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	return strconv.Atoi(s)
}

func floatParam(s string, def float64) (float64, error) {
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if v != v {
		return 0, errors.New("NaN")
	}
	return v, nil
}
