package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"prsim/internal/powermethod"
)

// TestAdaptiveDeterminismMatrix is the adaptive-mode determinism contract: a
// fixed seed stops at the same round and yields bit-identical scores at
// parallelism 1, 2, and 8.
func TestAdaptiveDeterminismMatrix(t *testing.T) {
	idx := parallelTestIndex(t)
	ctx := context.Background()
	for _, u := range []int{0, 7, 533, 1499} {
		var base Result
		if err := idx.QueryIntoOpts(ctx, u, &base, QueryOptions{Adaptive: true, Parallelism: 1}); err != nil {
			t.Fatalf("serial adaptive query(%d): %v", u, err)
		}
		if base.Stats.RoundsExecuted == 0 || base.Stats.RoundsBudget == 0 {
			t.Fatalf("query(%d): rounds stats not populated: %+v", u, base.Stats)
		}
		for _, p := range []int{2, 8} {
			var res Result
			if err := idx.QueryIntoOpts(ctx, u, &res, QueryOptions{Adaptive: true, Parallelism: p}); err != nil {
				t.Fatalf("adaptive parallel(%d) query(%d): %v", p, u, err)
			}
			identicalScores(t, &base, &res, fmt.Sprintf("adaptive source %d parallelism %d", u, p))
			if res.Stats.RoundsExecuted != base.Stats.RoundsExecuted {
				t.Fatalf("source %d parallelism %d: stopped at round %d, serial stopped at %d — stop decisions must not depend on workers",
					u, p, res.Stats.RoundsExecuted, base.Stats.RoundsExecuted)
			}
			if res.Stats.Chunks != base.Stats.Chunks {
				t.Fatalf("source %d parallelism %d: %d chunks != %d", u, p, res.Stats.Chunks, base.Stats.Chunks)
			}
		}
	}
}

// TestAdaptiveOffBitParity pins Adaptive=false to the historical fixed-budget
// path: the zero QueryOptions and an explicit Adaptive=false produce
// bit-identical scores and identical work stats.
func TestAdaptiveOffBitParity(t *testing.T) {
	idx := parallelTestIndex(t)
	ctx := context.Background()
	for _, u := range []int{0, 533} {
		var fixed, off Result
		if err := idx.QueryIntoOpts(ctx, u, &fixed, QueryOptions{}); err != nil {
			t.Fatalf("fixed query(%d): %v", u, err)
		}
		if err := idx.QueryIntoOpts(ctx, u, &off, QueryOptions{Adaptive: false, Parallelism: 2}); err != nil {
			t.Fatalf("off query(%d): %v", u, err)
		}
		identicalScores(t, &fixed, &off, fmt.Sprintf("adaptive-off source %d", u))
		if off.Stats.EarlyStopped {
			t.Fatalf("source %d: Adaptive=false reported EarlyStopped", u)
		}
		if off.Stats.RoundsExecuted != off.Stats.RoundsBudget {
			t.Fatalf("source %d: fixed path executed %d of %d rounds", u, off.Stats.RoundsExecuted, off.Stats.RoundsBudget)
		}
	}
}

// TestAdaptiveFullBudgetMatchesFixed forces an adaptive query to its full
// budget (MinRounds = budget) and requires bit-identity with the fixed path:
// the progressive execution and per-round merge must reproduce the exact
// canonical fold of the one-shot path.
func TestAdaptiveFullBudgetMatchesFixed(t *testing.T) {
	idx := parallelTestIndex(t)
	ctx := context.Background()
	for _, u := range []int{0, 7, 1499} {
		var fixed Result
		if err := idx.QueryIntoOpts(ctx, u, &fixed, QueryOptions{}); err != nil {
			t.Fatalf("fixed query(%d): %v", u, err)
		}
		for _, p := range []int{1, 4} {
			var full Result
			q := QueryOptions{Adaptive: true, MinRounds: 1 << 20, Parallelism: p}
			if err := idx.QueryIntoOpts(ctx, u, &full, q); err != nil {
				t.Fatalf("adaptive full-budget query(%d): %v", u, err)
			}
			identicalScores(t, &fixed, &full, fmt.Sprintf("full-budget source %d parallelism %d", u, p))
			if full.Stats.EarlyStopped {
				t.Fatalf("source %d: MinRounds at budget still stopped early", u)
			}
			if full.Stats.RoundsExecuted != fixed.Stats.RoundsExecuted {
				t.Fatalf("source %d: adaptive-at-budget ran %d rounds, fixed ran %d",
					u, full.Stats.RoundsExecuted, fixed.Stats.RoundsExecuted)
			}
		}
	}
}

// TestAdaptiveStopsEarly checks the point of the feature: on a well-behaved
// graph at least some sources stop short of the worst-case budget and the
// merged work shrinks accordingly.
func TestAdaptiveStopsEarly(t *testing.T) {
	idx := parallelTestIndex(t)
	ctx := context.Background()
	stopped := 0
	for u := 0; u < 40; u++ {
		var res Result
		if err := idx.QueryIntoOpts(ctx, u, &res, QueryOptions{Adaptive: true}); err != nil {
			t.Fatalf("adaptive query(%d): %v", u, err)
		}
		st := res.Stats
		if st.RoundsExecuted < 2 || st.RoundsExecuted > st.RoundsBudget {
			t.Fatalf("source %d: rounds %d outside [2, %d]", u, st.RoundsExecuted, st.RoundsBudget)
		}
		if st.EarlyStopped != (st.RoundsExecuted < st.RoundsBudget) {
			t.Fatalf("source %d: EarlyStopped=%v with %d/%d rounds", u, st.EarlyStopped, st.RoundsExecuted, st.RoundsBudget)
		}
		if st.EarlyStopped {
			stopped++
			per := st.Chunks / st.RoundsExecuted
			if st.Chunks != st.RoundsExecuted*per {
				t.Fatalf("source %d: %d chunks not a whole number of %d-round chunks", u, st.Chunks, st.RoundsExecuted)
			}
		}
	}
	if stopped == 0 {
		t.Fatalf("no source of 40 stopped early — adaptive termination never fires")
	}
	t.Logf("adaptive: %d/40 sources stopped early", stopped)
}

// TestAdaptiveAccuracy pins the accuracy contract early stopping must not
// break: adaptive single-source estimates stay within the effective epsilon
// of exact SimRank (power method) for every node.
func TestAdaptiveAccuracy(t *testing.T) {
	g := largerTestGraph(300, 5, 11)
	exact, err := powermethod.Compute(g, powermethod.Options{C: 0.6})
	if err != nil {
		t.Fatalf("powermethod: %v", err)
	}
	idx, err := BuildIndex(g, Options{C: 0.6, Epsilon: 0.1, Delta: 0.01, NumHubs: 20, Seed: 5})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	ctx := context.Background()
	stopped := 0
	for _, u := range []int{0, 3, 77, 150, 299} {
		var res Result
		if err := idx.QueryIntoOpts(ctx, u, &res, QueryOptions{Adaptive: true}); err != nil {
			t.Fatalf("adaptive query(%d): %v", u, err)
		}
		if res.Stats.EarlyStopped {
			stopped++
		}
		maxErr := 0.0
		for v := 0; v < g.N(); v++ {
			if d := math.Abs(res.Score(v) - exact.At(u, v)); d > maxErr {
				maxErr = d
			}
		}
		if maxErr > 0.1 {
			t.Errorf("source %d: adaptive max error %v exceeds epsilon 0.1 (rounds %d/%d)",
				u, maxErr, res.Stats.RoundsExecuted, res.Stats.RoundsBudget)
		}
	}
	t.Logf("adaptive accuracy: %d/5 sources stopped early", stopped)
}

// TestQueryBatchEachHeterogeneous runs a batch whose entries carry different
// epsilons and adaptive policies and requires every entry to be bit-identical
// to a solo query with the same options — the per-entry generalization of the
// fused-batch parity contract.
func TestQueryBatchEachHeterogeneous(t *testing.T) {
	idx := parallelTestIndex(t)
	ctx := context.Background()
	sources := []int{3, 900, 3, 41, 1200, 77}
	qs := []QueryOptions{
		{},
		{Epsilon: 0.5},
		{Adaptive: true},
		{Epsilon: 0.3, Adaptive: true},
		{Adaptive: true, MinRounds: 5},
		{Epsilon: 0.9},
	}
	results := make([]*Result, len(sources))
	for i := range results {
		results[i] = &Result{}
	}
	if _, err := idx.QueryBatchEachIntoOpts(ctx, sources, results, qs); err != nil {
		t.Fatalf("QueryBatchEachIntoOpts: %v", err)
	}
	for i, u := range sources {
		var solo Result
		if err := idx.QueryIntoOpts(ctx, u, &solo, qs[i]); err != nil {
			t.Fatalf("solo query(%d): %v", u, err)
		}
		identicalScores(t, &solo, results[i], fmt.Sprintf("entry %d source %d", i, u))
		if results[i].Stats.RoundsExecuted != solo.Stats.RoundsExecuted {
			t.Fatalf("entry %d: batch ran %d rounds, solo ran %d", i, results[i].Stats.RoundsExecuted, solo.Stats.RoundsExecuted)
		}
		if results[i].Stats.Epsilon != solo.Stats.Epsilon {
			t.Fatalf("entry %d: batch epsilon %v, solo %v", i, results[i].Stats.Epsilon, solo.Stats.Epsilon)
		}
	}
	// Length mismatch must fail fast.
	if _, err := idx.QueryBatchEachIntoOpts(ctx, sources, results, qs[:2]); err == nil {
		t.Fatalf("mismatched option count accepted")
	}
}
