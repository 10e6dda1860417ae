package ting

import (
	"context"
	"errors"
	"math/rand"

	"ting/internal/coords"
)

// budgetRounds is how many active-learning batches follow the bootstrap.
// More rounds mean fresher uncertainty estimates per selected pair but more
// refit/scheduling overhead; four keeps the selection adaptive without the
// batches degenerating into single pairs.
const budgetRounds = 4

// budgetFitPasses is how many relaxation passes each refit runs over the
// cumulative observation set. The embedding is incremental (coordinates
// persist between fits), so a modest count per batch converges.
const budgetFitPasses = 12

// ScanBudget measures at most budget unordered pairs among names and
// completes the rest of the matrix from a Vivaldi-style coordinate
// embedding (internal/coords) — the sub-quadratic campaign mode. The
// schedule is active: a bootstrap of k random peers per node (about half
// the budget) seeds the embedding, then each remaining batch measures the
// pairs whose endpoints the model is least certain about, refitting
// between batches. Unmeasured cells are filled with predicted RTTs under
// provenance ProvPredicted, carrying the model's per-cell confidence
// (Matrix.ConfAt); failed pairs degrade to predictions the same way, so
// the returned matrix is always complete.
//
// A budget of at least all pairs falls through to a plain Scan. The
// scanner's Checkpoint and Directory are not used by the batch scans (a
// budgeted campaign is cheap to re-run; churn reconciliation assumes an
// all-pairs schedule); each batch is one restricted pass of the scan
// engine (Scanner.run), so everything else — workers, retries, deadlines,
// breaker, observer — applies per batch, and one half-circuit cache spans
// all batches so bootstrap circuits keep paying off in the active rounds.
// Progress, if set, is called with done/total across the whole campaign's
// scheduled pairs.
func (s *Scanner) ScanBudget(ctx context.Context, names []string, budget int) (*Matrix, []PairError, error) {
	if budget <= 0 {
		return nil, nil, errors.New("ting: ScanBudget needs a positive budget")
	}
	n := len(names)
	allPairs := n * (n - 1) / 2
	if budget >= allPairs {
		return s.Scan(ctx, names)
	}
	if ctx == nil {
		ctx = context.Background()
	}

	master, err := NewMatrix(names)
	if err != nil {
		return nil, nil, err
	}

	seed := s.Shuffle
	if seed == 0 {
		seed = 1
	}
	model, err := coords.New(n, coords.Config{Seed: seed})
	if err != nil {
		return nil, nil, err
	}

	// Batch scans share one half-circuit cache across the campaign (unless
	// the caller opted out): a node's C_x series from the bootstrap answers
	// its active-round pairs too.
	sub := *s
	sub.Checkpoint = nil
	sub.Directory = nil
	if sub.halfCircuits == nil && !sub.DisableHalfCache {
		sub.halfCircuits = NewHalfCache(0)
	}
	// Progress across batches: each batch reports into its own slice of the
	// campaign's running totals.
	progress := s.Progress
	sub.Progress = nil

	measured := make(map[[2]string]bool, budget)
	measuredFn := func(i, j int) bool { return measured[pairKey(names[i], names[j])] }

	var (
		failures []PairError
		obs      []coords.Observation
		doneOff  int
	)
	runBatch := func(batch [][2]string) error {
		if len(batch) == 0 {
			return nil
		}
		for _, p := range batch {
			measured[pairKey(p[0], p[1])] = true
		}
		if progress != nil {
			off := doneOff
			total := doneOff + len(batch)
			sub.Progress = func(done, _ int) { progress(off+done, total) }
		}
		bm, fails, err := sub.runFresh(ctx, names, nil, batch)
		doneOff += len(batch)
		failures = append(failures, fails...)
		if bm != nil {
			for _, p := range batch {
				if bm.Prov(p[0], p[1]) != ProvFresh {
					continue
				}
				rtt, rerr := bm.RTT(p[0], p[1])
				if rerr != nil {
					continue
				}
				_ = master.Set(p[0], p[1], rtt)
				i, _ := master.Index(p[0])
				j, _ := master.Index(p[1])
				obs = append(obs, coords.Observation{I: i, J: j, RTTMs: rtt})
			}
		}
		return err
	}

	// Bootstrap: k random peers per node, about half the budget. Every
	// node appears in at least k pairs, so no coordinate starts blind.
	rng := rand.New(rand.NewSource(seed))
	k := budget / n
	if k < 2 {
		k = 2
	}
	boot := make([][2]string, 0, n*k/2+n)
	bootSeen := make(map[[2]string]bool, n*k/2+n)
	for i := 0; i < n; i++ {
		for picked, tries := 0, 0; picked < k && tries < 4*k; tries++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			key := pairKey(names[i], names[j])
			if bootSeen[key] {
				continue
			}
			bootSeen[key] = true
			boot = append(boot, [2]string{names[i], names[j]})
			picked++
			if len(boot) >= budget {
				break
			}
		}
		if len(boot) >= budget {
			break
		}
	}
	if err := runBatch(boot); err != nil {
		s.completePredicted(master, model)
		return master, failures, err
	}
	model.Fit(obs, budgetFitPasses)

	// Active rounds: spend what's left on the pairs the embedding is least
	// sure about, refitting after each batch so later rounds chase the
	// model's current confusion, not its starting state.
	for round := 0; round < budgetRounds; round++ {
		remaining := budget - len(measured)
		if remaining <= 0 {
			break
		}
		size := remaining / (budgetRounds - round)
		if size < 1 {
			size = remaining
		}
		pairs := model.SelectUncertain(size, measuredFn, seed+int64(round)+1)
		if len(pairs) == 0 {
			break
		}
		batch := make([][2]string, len(pairs))
		for bi, p := range pairs {
			batch[bi] = [2]string{names[p.I], names[p.J]}
		}
		if err := runBatch(batch); err != nil {
			s.completePredicted(master, model)
			return master, failures, err
		}
		model.Fit(obs, budgetFitPasses)
	}

	s.completePredicted(master, model)
	s.Observer.budgetComplete(len(measured), allPairs)
	return master, failures, nil
}

// completePredicted fills every cell the campaign did not measure (or
// measured and lost) with the embedding's prediction and confidence.
func (s *Scanner) completePredicted(m *Matrix, model *coords.Model) {
	names := m.Names()
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if m.Prov(names[i], names[j]) == ProvFresh {
				continue
			}
			rtt, conf := model.PredictWithConfidence(i, j)
			_ = m.SetPredicted(names[i], names[j], rtt, conf)
		}
	}
}
