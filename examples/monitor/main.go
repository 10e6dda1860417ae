// Monitor: the long-running deployment of Ting — keep an all-pairs RTT
// matrix fresh over time with load-spread sweeps, the workflow §4.6
// justifies ("taking measurements with Ting infrequently and caching them
// is sufficient"), then consume the living dataset the way §5 does.
//
//	go run ./examples/monitor
package main

import (
	"context"
	"fmt"
	"log"

	"ting/internal/experiments"
	"ting/internal/pathsel"
	"ting/internal/stats"
	"ting/internal/ting"
)

func main() {
	log.SetFlags(0)

	world, err := experiments.NewWorld(20, 99)
	if err != nil {
		log.Fatal(err)
	}

	mon, err := ting.NewMonitor(ting.MonitorConfig{
		NewMeasurer: func(worker int) (*ting.Measurer, error) {
			return world.Measurer(100, 100+int64(worker))
		},
		Names:         world.Names,
		PairsPerSweep: 60, // spread the 190 pairs over ~4 sweeps
		Workers:       4,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("monitoring %d relays (%d pairs), 60 pairs per sweep:\n",
		len(world.Names), len(world.Names)*(len(world.Names)-1)/2)
	for sweep := 1; ; sweep++ {
		n, err := mon.Sweep(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		st := mon.Stats()
		fmt.Printf("  sweep %d: refreshed %d pairs (total measured %d, left fresh %d)\n",
			sweep, n, st.Measured, st.Skipped)
		if n == 0 {
			break
		}
	}

	// The living matrix drives the Section 5 analyses at any time.
	m := mon.Matrix()
	med, _ := stats.Median(m.PairValues())
	sum, err := pathsel.SummarizeTIVs(m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmatrix ready: median inter-relay RTT %.1f ms; %.0f%% of pairs have a TIV detour\n",
		med, 100*sum.FractionWithTIV())
	fmt.Println("re-running Sweep() on a ticker keeps it fresh (Monitor.Run, as cmd/tingd does).")
}
