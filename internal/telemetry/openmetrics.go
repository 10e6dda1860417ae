package telemetry

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// OpenMetrics text exposition (the scrape format every
// Prometheus-compatible collector speaks), served at /metrics beside the
// schema-versioned /metrics.json. Mapping:
//
//   - counters  → `# TYPE <name> counter` + one `<name>_total` sample:
//     in OpenMetrics the family is bare and only the sample carries the
//     `_total` suffix.
//   - gauges    → `# TYPE <name> gauge` + one sample.
//   - histograms → `# TYPE <name> summary`: three quantile samples
//     (0.5/0.9/0.99, as `{quantile="0.5"}` labels) plus `_sum` and
//     `_count`. A summary, not a histogram: a Snapshot carries the p50,
//     p90 and p99 that Histogram interpolates from its bucket counts, not
//     the buckets themselves.
//
// Metric names are sanitized to the [a-zA-Z_:][a-zA-Z0-9_:]* charset
// (dots — this repo's namespace separator — become underscores), and label
// values escape `\`, `"`, and newlines per the spec. The document ends
// with `# EOF`, the OpenMetrics terminator.

// WriteOpenMetrics writes the snapshot in OpenMetrics text format. Output
// is deterministic: families are emitted counters-gauges-histograms, each
// sorted by name.
func (s Snapshot) WriteOpenMetrics(w io.Writer) error {
	for _, k := range sortedKeys(s.Counters) {
		name := promName(k)
		if _, err := fmt.Fprintf(w, "# HELP %s Cumulative counter %s.\n# TYPE %s counter\n%s_total %d\n",
			name, promLabelEscape(k), name, name, s.Counters[k]); err != nil {
			return err
		}
	}
	for _, k := range sortedKeys(s.Gauges) {
		name := promName(k)
		if _, err := fmt.Fprintf(w, "# HELP %s Gauge %s.\n# TYPE %s gauge\n%s %d\n",
			name, promLabelEscape(k), name, name, s.Gauges[k]); err != nil {
			return err
		}
	}
	for _, k := range sortedKeys(s.Histograms) {
		h := s.Histograms[k]
		name := promName(k)
		if _, err := fmt.Fprintf(w, "# HELP %s Summary %s.\n# TYPE %s summary\n",
			name, promLabelEscape(k), name); err != nil {
			return err
		}
		for _, q := range [...]struct {
			label string
			v     float64
		}{{"0.5", h.P50}, {"0.9", h.P90}, {"0.99", h.P99}} {
			if _, err := fmt.Fprintf(w, "%s{quantile=\"%s\"} %s\n", name, q.label, ftoa(q.v)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", name, ftoa(h.Sum), name, h.Count); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "# EOF\n")
	return err
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// promName sanitizes a registry metric name into the Prometheus name
// charset [a-zA-Z_:][a-zA-Z0-9_:]*. Dots (this repo's namespace separator)
// and any other invalid rune become underscores; a leading digit gains an
// underscore prefix.
func promName(name string) string {
	if name == "" {
		return "_"
	}
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i, r := range name {
		valid := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if r >= '0' && r <= '9' && i == 0 {
			b.WriteByte('_')
			b.WriteRune(r)
			continue
		}
		if valid {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabelEscape escapes a string for use inside a double-quoted label
// value or HELP text: backslash, double quote, and newline, per the
// exposition-format spec.
func promLabelEscape(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 4)
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}
