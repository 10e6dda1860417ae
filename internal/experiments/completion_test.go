package experiments

import (
	"testing"
)

// completionSmokeMaxErrFraction is the committed accuracy floor for the CI
// embed-accuracy smoke (256-node world, 25% budget): median absolute
// prediction error as a fraction of median RTT. The run lands near 0.097
// (the multi-worker scan moves it by about 0.001); 0.12 leaves room for
// benign drift while still catching a broken embedding (an unfitted model
// predicts with several times this error).
const completionSmokeMaxErrFraction = 0.12

// TestCompletionBudget512 is the tentpole acceptance criterion: on a
// ≥512-node model world, a budgeted scan measuring ≤25% of pairs must
// complete the matrix with median absolute prediction error within 10% of
// the median RTT.
func TestCompletionBudget512(t *testing.T) {
	cfg := CompletionConfig{Nodes: 512, Seed: 3, BudgetFraction: 0.25}
	r, err := Completion(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := len(r.World.Names)
	allPairs := n * (n - 1) / 2
	if r.Budget > allPairs/4 {
		t.Fatalf("budget %d exceeds 25%% of %d pairs", r.Budget, allPairs)
	}
	if r.Measured > r.Budget {
		t.Errorf("measured %d pairs over the %d budget", r.Measured, r.Budget)
	}
	if r.Measured+r.Predicted != allPairs {
		t.Errorf("matrix incomplete: measured %d + predicted %d != %d pairs",
			r.Measured, r.Predicted, allPairs)
	}
	pc := r.Matrix.ProvCounts()
	if pc.Missing != 0 {
		t.Errorf("completed matrix has %d missing cells", pc.Missing)
	}
	if pc.Predicted != r.Predicted {
		t.Errorf("ProvCounts.Predicted = %d, result counted %d", pc.Predicted, r.Predicted)
	}
	limit := 0.10 * r.MedianRTTMs
	if r.MedianAbsErrMs > limit {
		t.Errorf("median abs prediction error %.2fms exceeds 10%% of median RTT (%.2fms)",
			r.MedianAbsErrMs, limit)
	}
	if r.MeanConfidence <= 0 || r.MeanConfidence > 1 {
		t.Errorf("mean confidence %v outside (0,1]", r.MeanConfidence)
	}
	t.Logf("512 nodes, %d/%d measured: median err %.2fms (%.1f%% of median RTT %.1fms), p90 %.2fms, conf %.2f",
		r.Measured, allPairs, r.MedianAbsErrMs, 100*r.MedianAbsErrMs/r.MedianRTTMs,
		r.MedianRTTMs, r.P90AbsErrMs, r.MeanConfidence)
}

// TestCompletionSmoke256 is the CI embed-accuracy smoke: small enough to
// run on every push, failing if the 256-node median prediction error
// exceeds the committed floor.
func TestCompletionSmoke256(t *testing.T) {
	r, err := Completion(CompletionConfig{Nodes: 256, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	frac := r.MedianAbsErrMs / r.MedianRTTMs
	if frac > completionSmokeMaxErrFraction {
		t.Errorf("median prediction error %.2fms is %.1f%% of median RTT, floor is %.0f%%",
			r.MedianAbsErrMs, 100*frac, 100*completionSmokeMaxErrFraction)
	}
	t.Logf("256-node smoke: %.2fms median err (%.1f%% of median RTT)", r.MedianAbsErrMs, 100*frac)
}

// TestCompletionTradeoff pins the budget-vs-accuracy curve's shape: more
// measurement must not cost accuracy, and every point stays a complete
// matrix.
func TestCompletionTradeoff(t *testing.T) {
	rows, err := CompletionTradeoff(
		CompletionConfig{Nodes: 128, Seed: 5},
		[]float64{0.1, 0.25, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	for i, row := range rows {
		t.Logf("fraction %.2f: measured %d, median err %.2fms", row.Fraction, row.Measured, row.MedianAbsErrMs)
		if row.MedianAbsErrMs <= 0 {
			t.Errorf("row %d: no error measured", i)
		}
		if i > 0 && row.Measured <= rows[i-1].Measured {
			t.Errorf("measured count did not grow with budget: %d then %d",
				rows[i-1].Measured, row.Measured)
		}
	}
	// The curve need not be strictly monotone (different budgets schedule
	// different pairs), but doubling the budget twice must not make things
	// worse overall.
	if rows[2].MedianAbsErrMs > rows[0].MedianAbsErrMs*1.15 {
		t.Errorf("5x budget degraded accuracy: %.2fms at 10%% vs %.2fms at 50%%",
			rows[0].MedianAbsErrMs, rows[2].MedianAbsErrMs)
	}
}

// TestCompletionBySize sweeps world sizes at a fixed fraction: the error
// CDF study's backbone. Accuracy relative to median RTT must hold as N
// grows — the whole point of the sub-quadratic mode.
func TestCompletionBySize(t *testing.T) {
	rows, err := CompletionBySize(CompletionConfig{Seed: 7}, []int{64, 128, 256})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		frac := row.MedianAbsErrMs / row.MedianRTTMs
		t.Logf("n=%d: median err %.2fms (%.1f%% of median RTT)", row.Nodes, row.MedianAbsErrMs, 100*frac)
		if frac > 0.15 {
			t.Errorf("n=%d: relative error %.1f%% above 15%%", row.Nodes, 100*frac)
		}
	}
}

// TestCompletionErrCDF exercises the CDF accessor over predicted-cell
// errors.
func TestCompletionErrCDF(t *testing.T) {
	r, err := Completion(CompletionConfig{Nodes: 64, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cdf, err := r.ErrCDF()
	if err != nil {
		t.Fatal(err)
	}
	// The point at P = 1/2: rank conventions may differ from the result's
	// median by one on even counts; allow only tiny divergence.
	xs, _ := cdf.Points()
	got := xs[(len(xs)-1)/2]
	if lo, hi := r.MedianAbsErrMs*0.9, r.MedianAbsErrMs*1.1; got < lo || got > hi {
		t.Errorf("CDF median %.3f vs result median %.3f", got, r.MedianAbsErrMs)
	}
}

// TestCompletionRejectsBadFraction pins the config validation.
func TestCompletionRejectsBadFraction(t *testing.T) {
	if _, err := Completion(CompletionConfig{Nodes: 16, BudgetFraction: 1.5}); err == nil {
		t.Error("BudgetFraction 1.5 accepted")
	}
	if _, err := Completion(CompletionConfig{Nodes: 16, BudgetFraction: -0.1}); err == nil {
		t.Error("negative BudgetFraction accepted")
	}
}
