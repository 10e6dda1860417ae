package telemetry

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestOpenMetricsGolden pins the OpenMetrics exposition byte-for-byte:
// sanitized names, bare counter families with _total samples, summary
// quantile lines, and the # EOF terminator. Change the golden only for a
// deliberate format change.
func TestOpenMetricsGolden(t *testing.T) {
	r := New()
	r.Counter("ting.pairs_measured").Add(3)
	r.Gauge("ting.scanner_active_workers").Set(2)
	h := r.HistogramBuckets("ting.pair_rtt_ms", []float64{50, 100})
	h.Observe(25)
	h.Observe(75)

	var buf bytes.Buffer
	if err := r.Snapshot().WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	golden := "# HELP ting_pairs_measured Cumulative counter ting.pairs_measured.\n" +
		"# TYPE ting_pairs_measured counter\n" +
		"ting_pairs_measured_total 3\n" +
		"# HELP ting_scanner_active_workers Gauge ting.scanner_active_workers.\n" +
		"# TYPE ting_scanner_active_workers gauge\n" +
		"ting_scanner_active_workers 2\n" +
		"# HELP ting_pair_rtt_ms Summary ting.pair_rtt_ms.\n" +
		"# TYPE ting_pair_rtt_ms summary\n" +
		"ting_pair_rtt_ms{quantile=\"0.5\"} 50\n" +
		"ting_pair_rtt_ms{quantile=\"0.9\"} 90\n" +
		"ting_pair_rtt_ms{quantile=\"0.99\"} 99\n" +
		"ting_pair_rtt_ms_sum 100\n" +
		"ting_pair_rtt_ms_count 2\n" +
		"# EOF\n"
	if got := buf.String(); got != golden {
		t.Errorf("OpenMetrics exposition drifted:\ngot:\n%s\nwant:\n%s", got, golden)
	}
}

// TestPromName covers the sanitizer's edge cases: the namespace dot, runes
// outside the charset, leading digits, and the empty string.
func TestPromName(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"ting.pairs_measured", "ting_pairs_measured"},
		{"serve.bin_ms", "serve_bin_ms"},
		{"already_fine:name", "already_fine:name"},
		{"weird-chars räté", "weird_chars_r_t_"},
		{"9starts_with_digit", "_9starts_with_digit"},
		{"", "_"},
	} {
		if got := promName(tc.in); got != tc.want {
			t.Errorf("promName(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestPromLabelEscape pins backslash, quote, and newline escaping.
func TestPromLabelEscape(t *testing.T) {
	if got := promLabelEscape(`a\b"c` + "\nd"); got != `a\\b\"c\nd` {
		t.Errorf("promLabelEscape = %q", got)
	}
	if got := promLabelEscape("plain"); got != "plain" {
		t.Errorf("promLabelEscape(plain) = %q", got)
	}
}

// TestMetricsPromEndpoint checks that /metrics, Prometheus's default scrape
// path, serves the OpenMetrics document with a conforming counter family.
func TestMetricsPromEndpoint(t *testing.T) {
	r := New()
	r.Counter("ting.pairs_measured").Add(4)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics: code %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "openmetrics-text") {
		t.Errorf("/metrics content type = %q", ct)
	}
	s := string(body)
	if !strings.Contains(s, "# TYPE ting_pairs_measured counter\n") ||
		!strings.Contains(s, "ting_pairs_measured_total 4\n") ||
		!strings.HasSuffix(s, "# EOF\n") {
		t.Errorf("/metrics body = %q", s)
	}
}
