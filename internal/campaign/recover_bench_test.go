package campaign

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// BenchmarkRecoverCoordinator times crash recovery at the scale of a
// 2000-relay campaign (1 999 000 pairs): a journaled coordinator completes
// every shard by index, as the CAMP server does — finite full-precision
// RTTs, every 10 007th pair failed — its journal is closed, and each iteration recovers
// a coordinator from that file. It fails unless the recovered Merged
// encodes to the live coordinator's bytes and LostPairs matches, and
// reports recover_ms, journal_mb and the bytes recovery allocates per
// pair. The whole run takes about 2 s and peaks under 200 MB resident on a
// 2-vCPU guest; run it with
//
//	go test -run '^$' -bench '^BenchmarkRecoverCoordinator$' -benchtime 1x ./internal/campaign
func BenchmarkRecoverCoordinator(b *testing.B) {
	const n = 2000
	names := fakeNames(n)
	path := filepath.Join(b.TempDir(), "campaign.journal")
	c, err := NewJournaledCoordinator(names, Partition(n, 512), time.Hour, path, nil)
	if err != nil {
		b.Fatal(err)
	}
	var rtts []float64
	var failed []int
	pairs := 0
	for {
		lease, res, err := c.Acquire("w1")
		if err != nil {
			b.Fatal(err)
		}
		if res == AcquireDone {
			break
		}
		rtts, failed = rtts[:0], failed[:0]
		for range lease.Shard.PairCount() {
			rtt := 1 + 300*math.Mod(float64(pairs)*0.6180339887498949, 1)
			if pairs%10007 == 0 {
				rtt, failed = 0, append(failed, len(rtts))
			}
			rtts = append(rtts, rtt)
			pairs++
		}
		if err := c.completeValues("w1", lease.Shard.ID, lease.Epoch, rtts, failed); err != nil {
			b.Fatal(err)
		}
	}
	live, err := c.Merged()
	if err != nil {
		b.Fatal(err)
	}
	var want bytes.Buffer
	if err := live.Encode(&want); err != nil {
		b.Fatal(err)
	}
	lost := c.Snapshot().LostPairs
	if err := c.Journal().Close(); err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}

	var recovered *Coordinator
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if recovered, err = RecoverCoordinator(path, nil); err != nil {
			b.Fatal(err)
		}
		if err := recovered.Journal().Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)

	merged, err := recovered.Merged()
	if err != nil {
		b.Fatal(err)
	}
	var got bytes.Buffer
	if err := merged.Encode(&got); err != nil {
		b.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		b.Fatalf("recovered matrix differs from the live one (%d vs %d bytes)", got.Len(), want.Len())
	}
	if rl := recovered.Snapshot().LostPairs; rl != lost {
		b.Fatalf("recovered %d lost pairs, the live coordinator %d", rl, lost)
	}
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "recover_ms")
	b.ReportMetric(float64(fi.Size())/1e6, "journal_mb")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/float64(pairs), "B/pair")
}
