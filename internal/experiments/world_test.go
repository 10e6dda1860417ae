package experiments

import (
	"runtime"
	"testing"
	"time"
)

// BenchmarkWorldAtPaperScale builds the paper's network once: a
// 7000-relay world with its measurement host and colocated w and z. It
// reports build_s and live_mb, the heap after a collection with the world
// still held, and fails above 256 MB live: the ground truth is one
// triangle of 24.5 million RTTs, 196 MB.
func BenchmarkWorldAtPaperScale(b *testing.B) {
	b.ReportAllocs()
	var build time.Duration
	var w *World
	for b.Loop() {
		start := time.Now()
		var err error
		if w, err = NewWorld(7000, 1); err != nil {
			b.Fatal(err)
		}
		build += time.Since(start)
	}
	b.StopTimer()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	live := float64(ms.HeapAlloc) / 1e6
	runtime.KeepAlive(w)
	b.ReportMetric(build.Seconds()/float64(b.N), "build_s")
	b.ReportMetric(live, "live_mb")
	if live > 256 {
		b.Fatalf("%.0f MB live holding a 7000-relay world, want ≤ 256", live)
	}
}
