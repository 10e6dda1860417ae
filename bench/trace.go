package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// kind names one (layer, span name) pair. Spans carry the index, not the
// strings, so a model-scan's millions of spans stay at 32 bytes each.
type kind uint8

const (
	kindScan kind = iota
	kindPair
	kindSeriesStack
	kindSeriesModel
	kindCampaign
	kindMerged
	kindCheckpoint
	kindConn
	kindBatch
	kindSingle
	kindPublish
	kindClone
	kindBreakdown // root of one hand-driven stack pair
	kindBuild
	kindExtend
	kindOpenStream
	kindProbes
	kindClose
)

var kindNames = [...]struct{ layer, name string }{
	kindScan:        {"ting.sched", "scan"},
	kindPair:        {"ting.measure", "pair"},
	kindSeriesStack: {"stack", "series"},
	kindSeriesModel: {"model", "series"},
	kindCampaign:    {"campaign", "campaign"},
	kindMerged:      {"campaign", "merged"},
	kindCheckpoint:  {"ting.checkpoint", "append"},
	kindConn:        {"serve.client", "conn"},
	kindBatch:       {"serve", "batch"},
	kindSingle:      {"serve", "single"},
	kindPublish:     {"serve.publish", "publish"},
	kindClone:       {"ting.matrix", "clone"},
	kindBreakdown:   {"breakdown", "pair"},
	kindBuild:       {"client", "build"},
	kindExtend:      {"client", "extend"},
	kindOpenStream:  {"client", "open_stream"},
	kindProbes:      {"relay", "probes"},
	kindClose:       {"client", "close"},
}

// span is one timed interval at a layer boundary. IDs are unique within a
// run; parent 0 means a root. Times are nanoseconds since the tracer began.
type span struct {
	id, parent int32
	kind       kind
	start, end int64
}

// maxSpans stops a traced phase from starting more work once this many
// spans exist: model-scan makes two per pair, a million per scan.
const maxSpans = 2 << 20

// maxTraceLines bounds the JSONL file; spans beyond it are still counted in
// every metric and reported in a final {"truncated_spans": n} line.
const maxTraceLines = 200_000

// tracer owns the spans of one traced run. Each goroutine records into its
// own recorder, so recording takes no lock; merge happens once, at the end.
type tracer struct {
	t0    time.Time
	next  atomic.Int32
	count atomic.Int64

	mu   sync.Mutex
	recs []*recorder
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// reserve hands out a span ID before the span's end is known, so children
// can name their parent while it is still open.
func (t *tracer) reserve() int32 { return t.next.Add(1) }

func (t *tracer) full() bool { return t.count.Load() >= maxSpans }

// recorder returns a new single-goroutine span buffer.
func (t *tracer) recorder() *recorder {
	r := &recorder{t: t}
	t.mu.Lock()
	t.recs = append(t.recs, r)
	t.mu.Unlock()
	return r
}

// spans merges every recorder's buffer. Call only after the recording
// goroutines have finished.
func (t *tracer) spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var all []span
	for _, r := range t.recs {
		all = append(all, r.spans...)
	}
	return all
}

type recorder struct {
	t     *tracer
	spans []span
}

// add records a finished span under a reserved id (0 = allocate one) and
// returns the id.
func (r *recorder) add(id, parent int32, k kind, start, end time.Time) int32 {
	if id == 0 {
		id = r.t.reserve()
	}
	r.spans = append(r.spans, span{
		id: id, parent: parent, kind: k,
		start: int64(start.Sub(r.t.t0)), end: int64(end.Sub(r.t.t0)),
	})
	r.t.count.Add(1)
	return id
}

// kindTotal is one row of the self-time report.
type kindTotal struct {
	count int
	total time.Duration // sum of span durations
	self  time.Duration // total minus the part child spans cover
}

// selfTimes attributes every span's duration to its own kind, minus the
// part of that interval its direct children cover (children that overlap
// each other are counted once).
func selfTimes(spans []span) map[kind]kindTotal {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[kind]kindTotal)
	for _, s := range spans {
		kt := out[s.kind]
		kt.count++
		dur := s.end - s.start
		kt.total += time.Duration(dur)
		kt.self += time.Duration(dur - covered(s, children[s.id]))
		out[s.kind] = kt
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(a, b int) bool { return kids[a].start < kids[b].start })
	var sum int64
	reach := parent.start
	for _, k := range kids {
		lo, hi := k.start, k.end
		if lo < reach {
			lo = reach
		}
		if hi > parent.end {
			hi = parent.end
		}
		if hi > lo {
			sum += hi - lo
			reach = hi
		}
	}
	return sum
}

// durations returns the sorted lengths of the spans of one kind.
func durations(spans []span, k kind) []time.Duration {
	var d []time.Duration
	for _, s := range spans {
		if s.kind == k {
			d = append(d, time.Duration(s.end-s.start))
		}
	}
	sortDurations(d)
	return d
}

// writeJSONL appends the spans to path, one JSON object per line.
func writeJSONL(path, workload string, spans []span) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for i, s := range spans {
		if i == maxTraceLines {
			fmt.Fprintf(w, "{\"workload\":%q,\"truncated_spans\":%d}\n", workload, len(spans)-i)
			break
		}
		kn := kindNames[s.kind]
		line = append(line[:0], `{"id":`...)
		line = strconv.AppendInt(line, int64(s.id), 10)
		line = append(line, `,"parent":`...)
		line = strconv.AppendInt(line, int64(s.parent), 10)
		line = append(line, `,"workload":"`...)
		line = append(line, workload...)
		line = append(line, `","layer":"`...)
		line = append(line, kn.layer...)
		line = append(line, `","name":"`...)
		line = append(line, kn.name...)
		line = append(line, `","start_ns":`...)
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, "}\n"...)
		w.Write(line)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
