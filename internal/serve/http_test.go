package serve

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"ting/internal/telemetry"
	"ting/internal/ting"
)

func get(t *testing.T, h http.Handler, url string, hdr map[string]string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var body map[string]any
	if rec.Code != http.StatusNotModified && rec.Body.Len() > 0 {
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", url, rec.Body.String(), err)
		}
	}
	return rec, body
}

func TestHTTPNoEpochIs503(t *testing.T) {
	h := NewServer(NewPublisher(nil), nil).Handler()
	rec, body := get(t, h, "/v1/epoch", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("no Retry-After on 503")
	}
	if body["error"] == "" {
		t.Error("no error message")
	}
}

func TestHTTPEpochNamesRTT(t *testing.T) {
	reg := telemetry.New()
	pub := NewPublisher(reg)
	m := testMatrix(t, 4)
	snap, err := pub.Publish(m.Clone())
	if err != nil {
		t.Fatal(err)
	}
	h := NewServer(pub, reg).Handler()

	rec, body := get(t, h, "/v1/epoch", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("epoch status %d: %v", rec.Code, body)
	}
	if rec.Header().Get("ETag") != snap.ETag() {
		t.Errorf("ETag header %q", rec.Header().Get("ETag"))
	}
	if body["epoch"] != float64(1) || body["relays"] != float64(4) {
		t.Errorf("epoch body %v", body)
	}
	pairs := body["pairs"].(map[string]any)
	if pairs["fresh"] != float64(5) || pairs["resumed"] != float64(1) {
		t.Errorf("pairs %v", pairs)
	}

	_, body = get(t, h, "/v1/names", nil)
	names := body["names"].([]any)
	if len(names) != 4 || names[0] != "relay00" {
		t.Errorf("names %v", names)
	}

	rec, body = get(t, h, "/v1/rtt?x=relay00&y=relay02", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("rtt status %d: %v", rec.Code, body)
	}
	if body["rtt_ms"] != m.At(0, 2) {
		t.Errorf("rtt_ms %v, want %v", body["rtt_ms"], m.At(0, 2))
	}
	if body["provenance"] != "fresh" || body["epoch"] != float64(1) {
		t.Errorf("rtt body %v", body)
	}
	_, body = get(t, h, "/v1/rtt?x=relay00&y=relay01", nil)
	if body["provenance"] != "resumed" {
		t.Errorf("resumed pair reported %v", body["provenance"])
	}

	if got := reg.Counter("serve.lookups").Value(); got != 2 {
		t.Errorf("serve.lookups = %d", got)
	}
}

func TestHTTPErrors(t *testing.T) {
	pub := NewPublisher(nil)
	if _, err := pub.Publish(testMatrix(t, 4)); err != nil {
		t.Fatal(err)
	}
	h := NewServer(pub, nil).Handler()

	cases := []struct {
		url  string
		want int
	}{
		{"/v1/rtt", http.StatusBadRequest},
		{"/v1/rtt?x=relay00", http.StatusBadRequest},
		{"/v1/rtt?x=relay00&y=nope", http.StatusNotFound},
		{"/v1/paths?length=3&k=2", http.StatusBadRequest}, // no budget
		{"/v1/paths?length=zz&budget_ms=500", http.StatusBadRequest},
		{"/v1/tiv?top=-1", http.StatusBadRequest},
		{"/nope", http.StatusNotFound},
		{"/v2/epoch", http.StatusNotFound},
	}
	for _, c := range cases {
		rec, body := get(t, h, c.url, nil)
		if rec.Code != c.want {
			t.Errorf("GET %s = %d, want %d (%v)", c.url, rec.Code, c.want, body)
		}
		if body["error"] == "" {
			t.Errorf("GET %s: no error message", c.url)
		}
	}

	req := httptest.NewRequest(http.MethodPost, "/v1/epoch", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST = %d", rec.Code)
	}
}

func TestHTTPETagCaching(t *testing.T) {
	reg := telemetry.New()
	pub := NewPublisher(reg)
	m := testMatrix(t, 4)
	snap, err := pub.Publish(m.Clone())
	if err != nil {
		t.Fatal(err)
	}
	h := NewServer(pub, reg).Handler()

	rec, _ := get(t, h, "/v1/rtt?x=relay00&y=relay02", map[string]string{"If-None-Match": snap.ETag()})
	if rec.Code != http.StatusNotModified {
		t.Fatalf("same-epoch conditional GET = %d", rec.Code)
	}
	if rec.Body.Len() != 0 {
		t.Errorf("304 carried a body: %q", rec.Body.String())
	}
	if got := reg.Counter("serve.http.not_modified").Value(); got != 1 {
		t.Errorf("not_modified counter = %d", got)
	}

	// A new epoch invalidates the old validator: the same conditional GET now
	// returns fresh data under the new ETag.
	if err := m.Set("relay00", "relay02", 4242); err != nil {
		t.Fatal(err)
	}
	snap2, err := pub.Publish(m.Clone())
	if err != nil {
		t.Fatal(err)
	}
	rec, body := get(t, h, "/v1/rtt?x=relay00&y=relay02", map[string]string{"If-None-Match": snap.ETag()})
	if rec.Code != http.StatusOK {
		t.Fatalf("stale conditional GET = %d", rec.Code)
	}
	if rec.Header().Get("ETag") != snap2.ETag() {
		t.Errorf("new ETag %q", rec.Header().Get("ETag"))
	}
	if body["rtt_ms"] != float64(4242) || body["epoch"] != float64(2) {
		t.Errorf("post-swap body %v", body)
	}
}

func TestHTTPPaths(t *testing.T) {
	pub := NewPublisher(nil)
	if _, err := pub.Publish(testMatrix(t, 8)); err != nil {
		t.Fatal(err)
	}
	h := NewServer(pub, nil).Handler()

	rec, body := get(t, h, "/v1/paths?length=3&budget_ms=100000&k=3", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("paths status %d: %v", rec.Code, body)
	}
	paths := body["paths"].([]any)
	if len(paths) == 0 || len(paths) > 3 {
		t.Fatalf("got %d paths", len(paths))
	}
	last := -1.0
	for _, p := range paths {
		pm := p.(map[string]any)
		hops := pm["hops"].([]any)
		if len(hops) != 3 {
			t.Errorf("path length %d", len(hops))
		}
		rtt := pm["rtt_ms"].(float64)
		if rtt < last {
			t.Errorf("paths not sorted ascending: %v after %v", rtt, last)
		}
		last = rtt
	}

	// Same epoch + same query → identical answer (seed defaults to epoch).
	_, again := get(t, h, "/v1/paths?length=3&budget_ms=100000&k=3", nil)
	a, _ := json.Marshal(body)
	b, _ := json.Marshal(again)
	if string(a) != string(b) {
		t.Errorf("paths nondeterministic within an epoch:\n%s\n%s", a, b)
	}

	// An unsatisfiable budget is an empty recommendation, not an error.
	rec, body = get(t, h, "/v1/paths?length=3&budget_ms=0.001&k=3", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("tiny-budget status %d", rec.Code)
	}
	if got := body["paths"].([]any); len(got) != 0 {
		t.Errorf("tiny budget returned %d paths", len(got))
	}
}

func TestHTTPTIV(t *testing.T) {
	pub := NewPublisher(nil)
	m := testMatrix(t, 6)
	// Force a detour win: relay00→relay05 direct is huge, via relay02 tiny.
	if err := m.Set("relay00", "relay05", 900); err != nil {
		t.Fatal(err)
	}
	if err := m.Set("relay00", "relay02", 5); err != nil {
		t.Fatal(err)
	}
	if err := m.Set("relay02", "relay05", 5); err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Publish(m); err != nil {
		t.Fatal(err)
	}
	h := NewServer(pub, nil).Handler()

	rec, body := get(t, h, "/v1/tiv?top=2", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("tiv status %d: %v", rec.Code, body)
	}
	if body["with_tiv"].(float64) < 1 {
		t.Fatalf("tiv body %v", body)
	}
	top := body["top"].([]any)
	if len(top) == 0 || len(top) > 2 {
		t.Fatalf("top %v", top)
	}
	best := top[0].(map[string]any)
	if best["x"] != "relay00" || best["y"] != "relay05" || best["via"] != "relay02" {
		t.Errorf("best detour %v", best)
	}
	if best["savings"].(float64) < 0.9 {
		t.Errorf("savings %v", best["savings"])
	}
}

// TestTIVRequestAllocs: once an epoch's TIVs are found, a /v1/tiv request
// costs its top, not the epoch's TIVs. On a warm 500-relay snapshot with
// tens of thousands of TIVs, a top=5 request allocates a few KiB, where a
// per-request copy of the TIVs alone is over a megabyte; top=50 costs
// little more; a top past maxTIVTop is served as maxTIVTop; and the top is
// the sorted front: savings never rise, and equal savings keep (S, D, R)
// order.
func TestTIVRequestAllocs(t *testing.T) {
	const n = 500
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("relay%03d", i)
	}
	m, err := ting.NewMatrix(names)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.SetAt(i, j, float64(10+rng.Intn(290)))
		}
	}
	pub := NewPublisher(nil)
	snap, err := pub.Publish(m)
	if err != nil {
		t.Fatal(err)
	}
	h := NewServer(pub, nil).Handler()
	if rec, _ := get(t, h, "/v1/tiv?top=5", nil); rec.Code != http.StatusOK {
		t.Fatalf("tiv status %d", rec.Code)
	}
	tivs, err := snap.TIVs()
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k < len(tivs); k++ {
		a, b := tivs[k-1], tivs[k]
		sa, sb := a.SavingsFraction(), b.SavingsFraction()
		if sa < sb || sa == sb && slices.Compare([]int{a.S, a.D, a.R}, []int{b.S, b.D, b.R}) > 0 {
			t.Fatalf("TIVs %d and %d out of order: %+v, %+v", k-1, k, a, b)
		}
	}
	perRequest := func(top int) float64 {
		req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/tiv?top=%d", top), nil)
		const reqs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range reqs {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("tiv status %d", rec.Code)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / reqs
	}
	copyBytes := len(tivs) * int(unsafe.Sizeof(tivs[0]))
	top5, top50 := perRequest(5), perRequest(50)
	t.Logf("%d TIVs (%d B a copy): top=5 %.0f B a request, top=50 %.0f B", len(tivs), copyBytes, top5, top50)
	if copyBytes < 1<<20 {
		t.Fatalf("only %d TIVs: too few to tell O(top) from O(TIVs)", len(tivs))
	}
	if top5 > 16<<10 || top50 > 64<<10 {
		t.Errorf("a request allocates %.0f B at top=5 and %.0f B at top=50, want at most 16 KiB and 64 KiB", top5, top50)
	}
	// A top past the cap is served as the cap.
	if _, body := get(t, h, "/v1/tiv?top=1000000", nil); len(body["top"].([]any)) != maxTIVTop {
		t.Errorf("top=1000000 served %d entries, want %d", len(body["top"].([]any)), maxTIVTop)
	}
}
