package ting

import (
	"fmt"
	"strings"
	"time"

	"ting/internal/telemetry"
)

// Observer receives measurement-lifecycle callbacks from the Measurer,
// Scanner, and Monitor. It is a struct of optional funcs rather than an
// interface so new hooks can be added without breaking implementors; a nil
// Observer — or any nil field — is a no-op. All callbacks may be invoked
// concurrently from scanner workers and must be safe for that.
type Observer struct {
	// CircuitDone fires after each circuit's sampling attempt, successful
	// or not. samples is the number of RTTs actually collected.
	CircuitDone func(path []string, samples int, elapsed time.Duration, err error)
	// Samples fires with the raw RTT series of one successful circuit.
	Samples func(path []string, rtts []float64)
	// PairDone fires once per MeasurePair: m is nil exactly when err is
	// non-nil.
	PairDone func(x, y string, m *Measurement, err error)
	// Retry fires when the scanner schedules another attempt for a pair.
	Retry func(x, y string, attempt int, delay time.Duration, err error)
	// WorkerActive fires when a scanner worker starts (+1) or finishes
	// (−1) a measurement attempt — worker occupancy.
	WorkerActive func(delta int)
	// SweepDone fires after each monitor sweep with cumulative stats.
	SweepDone func(stats MonitorStats)
	// HalfCircuit fires on every half-circuit cache consultation with the
	// outcome: served from cache, measured fresh, or waited on another
	// worker's in-flight measurement.
	HalfCircuit func(path []string, ev HalfCircuitEvent)
	// CheckpointAppend fires after each record reaches the campaign log.
	CheckpointAppend func(rec *CheckpointRecord)
	// CheckpointReplay fires once per Resume with how many completed
	// pairs and memoized half-circuit series were rehydrated.
	CheckpointReplay func(pairs, halves int)
	// BreakerChange fires when a relay's circuit breaker transitions.
	BreakerChange func(relay string, from, to BreakerState)
	// Quarantine fires when the scanner defers a pair blocked by relay's
	// open breaker (final=false) and again if the pair is given up as
	// ErrQuarantined at the end of the scan (final=true).
	Quarantine func(x, y, relay string, final bool)
	// Churn fires once per consensus delta the scanner reconciled
	// mid-scan: a relay joined, left, or rotated its key.
	Churn func(ev ChurnEvent)
	// DeadlineSet fires when the adaptive deadline estimator bounds a
	// pair's attempt at d instead of the fixed PairTimeout.
	DeadlineSet func(x, y string, d time.Duration)
	// BudgetComplete fires once at the end of a ScanBudget campaign with
	// how many pairs were actually measured out of the full pair space —
	// the budgeted mode's savings summary.
	BudgetComplete func(measured, allPairs int)
}

// HalfCircuitEvent classifies one HalfCache consultation.
type HalfCircuitEvent int

const (
	// HalfCircuitHit: the half circuit was served from the cache.
	HalfCircuitHit HalfCircuitEvent = iota
	// HalfCircuitMiss: this caller measured the half circuit itself.
	HalfCircuitMiss
	// HalfCircuitWait: another worker was already measuring it; this
	// caller blocked on that flight instead of duplicating the series.
	HalfCircuitWait
)

// Nil-safe invocation helpers: call sites never branch on the observer.

func (o *Observer) samples(path []string, rtts []float64) {
	if o != nil && o.Samples != nil {
		o.Samples(path, rtts)
	}
}

func (o *Observer) pairDone(x, y string, m *Measurement, err error) {
	if o != nil && o.PairDone != nil {
		o.PairDone(x, y, m, err)
	}
}

func (o *Observer) retry(x, y string, attempt int, delay time.Duration, err error) {
	if o != nil && o.Retry != nil {
		o.Retry(x, y, attempt, delay, err)
	}
}

func (o *Observer) workerActive(delta int) {
	if o != nil && o.WorkerActive != nil {
		o.WorkerActive(delta)
	}
}

func (o *Observer) sweepDone(stats MonitorStats) {
	if o != nil && o.SweepDone != nil {
		o.SweepDone(stats)
	}
}

func (o *Observer) halfCircuit(path []string, ev HalfCircuitEvent) {
	if o != nil && o.HalfCircuit != nil {
		o.HalfCircuit(path, ev)
	}
}

func (o *Observer) checkpointAppend(rec *CheckpointRecord) {
	if o != nil && o.CheckpointAppend != nil {
		o.CheckpointAppend(rec)
	}
}

func (o *Observer) checkpointReplay(pairs, halves int) {
	if o != nil && o.CheckpointReplay != nil {
		o.CheckpointReplay(pairs, halves)
	}
}

func (o *Observer) breakerChange(relay string, from, to BreakerState) {
	if o != nil && o.BreakerChange != nil {
		o.BreakerChange(relay, from, to)
	}
}

func (o *Observer) quarantine(x, y, relay string, final bool) {
	if o != nil && o.Quarantine != nil {
		o.Quarantine(x, y, relay, final)
	}
}

func (o *Observer) churn(ev ChurnEvent) {
	if o != nil && o.Churn != nil {
		o.Churn(ev)
	}
}

func (o *Observer) deadlineSet(x, y string, d time.Duration) {
	if o != nil && o.DeadlineSet != nil {
		o.DeadlineSet(x, y, d)
	}
}

func (o *Observer) budgetComplete(measured, allPairs int) {
	if o != nil && o.BudgetComplete != nil {
		o.BudgetComplete(measured, allPairs)
	}
}

// NewTelemetryObserver wires an Observer into a telemetry.Registry. All
// metrics are resolved once here, so the per-event cost is an atomic add
// (plus a trace record for lifecycle events). Metric names:
//
//	ting.circuits_sampled / ting.circuit_failures   counters
//	ting.circuit_ms                                 histogram
//	ting.samples                                    counter
//	ting.sample_rtt_ms                              histogram
//	ting.pairs_measured / ting.pair_failures        counters
//	ting.pair_rtt_ms                                histogram
//	ting.retries                                    counter
//	ting.halfcircuit.hit / ting.halfcircuit.miss    counters
//	ting.halfcircuit.inflight_wait                  counter
//	ting.scanner_active_workers                     gauge
//	ting.sweeps                                     counter
//	ting.checkpoint.appended                        counter
//	ting.checkpoint.replayed                        counter
//	ting.health.breaker_open                        gauge (breakers currently open)
//	ting.quarantined_pairs                          counter
//	ting.churn.joined / ting.churn.removed          counters
//	ting.churn.rotated                              counter
//	ting.churn.tombstoned_pairs                     counter
//	ting.deadline.adaptive_ms                       histogram
//	ting.budget.measured_pairs                      counter
//	ting.budget.predicted_pairs                     counter
//
// A nil registry yields a valid Observer whose callbacks are no-ops.
func NewTelemetryObserver(reg *telemetry.Registry) *Observer {
	var (
		circuits     = reg.Counter("ting.circuits_sampled")
		circuitFails = reg.Counter("ting.circuit_failures")
		circuitMs    = reg.Histogram("ting.circuit_ms")
		samples      = reg.Counter("ting.samples")
		sampleRTT    = reg.Histogram("ting.sample_rtt_ms")
		pairs        = reg.Counter("ting.pairs_measured")
		pairFails    = reg.Counter("ting.pair_failures")
		pairRTT      = reg.Histogram("ting.pair_rtt_ms")
		retries      = reg.Counter("ting.retries")
		halfHits     = reg.Counter("ting.halfcircuit.hit")
		halfMisses   = reg.Counter("ting.halfcircuit.miss")
		halfWaits    = reg.Counter("ting.halfcircuit.inflight_wait")
		active       = reg.Gauge("ting.scanner_active_workers")
		sweeps       = reg.Counter("ting.sweeps")
		cpAppended   = reg.Counter("ting.checkpoint.appended")
		cpReplayed   = reg.Counter("ting.checkpoint.replayed")
		breakersOpen = reg.Gauge("ting.health.breaker_open")
		quarantined  = reg.Counter("ting.quarantined_pairs")
		churnJoined  = reg.Counter("ting.churn.joined")
		churnRemoved = reg.Counter("ting.churn.removed")
		churnRotated = reg.Counter("ting.churn.rotated")
		tombstoned   = reg.Counter("ting.churn.tombstoned_pairs")
		adaptiveMs   = reg.Histogram("ting.deadline.adaptive_ms")
		budgetMeas   = reg.Counter("ting.budget.measured_pairs")
		budgetPred   = reg.Counter("ting.budget.predicted_pairs")
		trace        = reg.Trace()
	)
	return &Observer{
		CircuitDone: func(path []string, n int, elapsed time.Duration, err error) {
			ms := float64(elapsed) / float64(time.Millisecond)
			if err != nil {
				circuitFails.Inc()
				trace.Record("circuit", strings.Join(path, ",")+": "+err.Error(), ms)
				return
			}
			circuits.Inc()
			circuitMs.Observe(ms)
			trace.Record("circuit", strings.Join(path, ","), ms)
		},
		Samples: func(path []string, rtts []float64) {
			samples.Add(int64(len(rtts)))
			for _, v := range rtts {
				sampleRTT.Observe(v)
			}
		},
		PairDone: func(x, y string, m *Measurement, err error) {
			if err != nil {
				pairFails.Inc()
				trace.Record("pair", x+"-"+y+": "+err.Error(), 0)
				return
			}
			pairs.Inc()
			pairRTT.Observe(m.RTT)
			trace.Record("pair", x+"-"+y, m.RTT)
		},
		Retry: func(x, y string, attempt int, delay time.Duration, err error) {
			retries.Inc()
			detail := fmt.Sprintf("%s-%s attempt %d", x, y, attempt)
			if err != nil {
				detail += ": " + err.Error()
			}
			trace.Record("retry", detail, float64(delay)/float64(time.Millisecond))
		},
		HalfCircuit: func(path []string, ev HalfCircuitEvent) {
			switch ev {
			case HalfCircuitHit:
				halfHits.Inc()
				trace.Record("halfcircuit", "hit "+strings.Join(path, ","), 0)
			case HalfCircuitMiss:
				halfMisses.Inc()
			case HalfCircuitWait:
				halfWaits.Inc()
			}
		},
		WorkerActive: func(delta int) {
			active.Add(int64(delta))
		},
		CheckpointAppend: func(rec *CheckpointRecord) {
			cpAppended.Inc()
		},
		CheckpointReplay: func(pairs, halves int) {
			cpReplayed.Add(int64(pairs + halves))
			trace.Record("checkpoint", fmt.Sprintf("replayed %d pairs, %d half circuits", pairs, halves), 0)
		},
		BreakerChange: func(relay string, from, to BreakerState) {
			if to == BreakerOpen {
				breakersOpen.Add(1)
			}
			if from == BreakerOpen {
				breakersOpen.Add(-1)
			}
			trace.Record("breaker", relay+": "+from.String()+" -> "+to.String(), 0)
		},
		Quarantine: func(x, y, relay string, final bool) {
			if final {
				quarantined.Inc()
				trace.Record("quarantine", x+"-"+y+" blocked by "+relay, 0)
			}
		},
		Churn: func(ev ChurnEvent) {
			switch ev.Kind {
			case ChurnJoined:
				churnJoined.Inc()
			case ChurnRemoved:
				churnRemoved.Inc()
			case ChurnRotated:
				churnRotated.Inc()
			}
			tombstoned.Add(int64(ev.Tombstoned))
			trace.Record("churn", fmt.Sprintf("%s %s at epoch %d (%d pairs tombstoned)",
				ev.Relay, ev.Kind, ev.Epoch, ev.Tombstoned), 0)
		},
		DeadlineSet: func(x, y string, d time.Duration) {
			adaptiveMs.Observe(float64(d) / float64(time.Millisecond))
		},
		BudgetComplete: func(measured, allPairs int) {
			budgetMeas.Add(int64(measured))
			budgetPred.Add(int64(allPairs - measured))
			trace.Record("budget", fmt.Sprintf("measured %d of %d pairs, predicted %d",
				measured, allPairs, allPairs-measured), 0)
		},
		SweepDone: func(stats MonitorStats) {
			sweeps.Inc()
			trace.Record("sweep", fmt.Sprintf("measured=%d skipped=%d failed=%d",
				stats.Measured, stats.Skipped, stats.Failed), 0)
		},
	}
}
