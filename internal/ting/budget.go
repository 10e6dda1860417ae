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
// A budget of at least all pairs falls through to a plain Scan. Below
// that the batch scans write no checkpoint (a budgeted campaign is cheap
// to re-run), so a scanner with a Checkpoint is refused rather than left
// with a log nothing can resume from; nor do they use the Directory (the
// relay set, and with it the coordinate model's, is fixed at names, so no
// relay may join mid-batch);
// each batch is one ScanPairs pass of the scan engine
// into the returned matrix, so everything else — workers, retries,
// deadlines, breaker, observer — applies per batch, and one half-circuit
// cache spans all batches so bootstrap circuits keep paying off in the
// active rounds. Progress, if set, is called with done/total across the
// whole campaign's scheduled pairs.
func (s *Scanner) ScanBudget(ctx context.Context, names []string, budget int) (*Matrix, []PairError, error) {
	if budget <= 0 {
		return nil, nil, errors.New("ting: ScanBudget needs a positive budget")
	}
	n := len(names)
	allPairs := n * (n - 1) / 2
	if budget >= allPairs {
		return s.Scan(ctx, names)
	}
	if s.Checkpoint != nil {
		return nil, nil, errors.New("ting: a budgeted scan writes no checkpoint; clear Checkpoint")
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
	sub.Directory = nil
	if sub.halfCircuits == nil && !sub.DisableHalfCache {
		sub.halfCircuits = NewHalfCache(0)
	}
	// Progress across batches: each batch reports into its own slice of the
	// campaign's running totals.
	progress := s.Progress
	sub.Progress = nil

	// Every pair scheduled so far, smaller index first: the bootstrap's
	// dedup, the active rounds' exclusion and the spent budget.
	scheduled := make(map[[2]int]bool, budget)
	key := func(i, j int) [2]int { return [2]int{min(i, j), max(i, j)} }

	var (
		failures []PairError
		obs      []coords.Observation
		doneOff  int
	)
	runBatch := func(batch [][2]int) error {
		if len(batch) == 0 {
			return nil
		}
		if progress != nil {
			off := doneOff
			total := doneOff + len(batch)
			sub.Progress = func(done, _ int) { progress(off+done, total) }
		}
		fails, err := sub.ScanPairs(ctx, master, batch)
		doneOff += len(batch)
		failures = append(failures, fails...)
		// A batch pair was never scheduled before, so a fresh cell is this
		// batch's measurement.
		for _, p := range batch {
			if master.provAt(p[0], p[1]) == ProvFresh {
				obs = append(obs, coords.Observation{I: p[0], J: p[1], RTTMs: master.at(p[0], p[1])})
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
	boot := make([][2]int, 0, n*k/2+n)
	for i := 0; i < n; i++ {
		for picked, tries := 0, 0; picked < k && tries < 4*k; tries++ {
			j := rng.Intn(n)
			if j == i || scheduled[key(i, j)] {
				continue
			}
			scheduled[key(i, j)] = true
			boot = append(boot, [2]int{i, j})
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
		remaining := budget - len(scheduled)
		if remaining <= 0 {
			break
		}
		size := remaining / (budgetRounds - round)
		if size < 1 {
			size = remaining
		}
		pairs := model.SelectUncertain(size, func(i, j int) bool { return scheduled[key(i, j)] }, seed+int64(round)+1)
		if len(pairs) == 0 {
			break
		}
		batch := make([][2]int, len(pairs))
		for bi, p := range pairs {
			scheduled[key(p.I, p.J)] = true
			batch[bi] = [2]int{p.I, p.J}
		}
		if err := runBatch(batch); err != nil {
			s.completePredicted(master, model)
			return master, failures, err
		}
		model.Fit(obs, budgetFitPasses)
	}

	s.completePredicted(master, model)
	s.Observer.budgetComplete(len(scheduled), allPairs)
	return master, failures, nil
}

// completePredicted fills every cell the campaign did not measure (or
// measured and lost) with the embedding's prediction and confidence.
func (s *Scanner) completePredicted(m *Matrix, model *coords.Model) {
	names := m.Names()
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if m.provAt(i, j) == ProvFresh {
				continue
			}
			rtt, conf := model.PredictWithConfidence(i, j)
			_ = m.SetPredicted(names[i], names[j], rtt, conf)
		}
	}
}
