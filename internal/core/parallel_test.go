package core

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
)

// parallelTestIndex builds a small index whose query budget spans many walk
// chunks (several rounds, multi-chunk rounds) so the parallel machinery is
// actually exercised.
func parallelTestIndex(t testing.TB) *Index {
	t.Helper()
	g := randomGraph(11, 1500, 6000)
	idx, err := BuildIndex(g, Options{Epsilon: 0.2, NumHubs: 60, Seed: 42, SampleScale: 0.5})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	return idx
}

// identicalScores asserts two results carry bit-identical score sets.
func identicalScores(t *testing.T, want, got *Result, label string) {
	t.Helper()
	if len(want.Scores) != len(got.Scores) {
		t.Fatalf("%s: support %d != %d", label, len(got.Scores), len(want.Scores))
	}
	for v, s := range want.Scores {
		gs, ok := got.Scores[v]
		if !ok {
			t.Fatalf("%s: node %d missing", label, v)
		}
		if math.Float64bits(gs) != math.Float64bits(s) {
			t.Fatalf("%s: node %d score %v != %v (bits differ)", label, v, gs, s)
		}
	}
}

// TestQueryParallelDeterminismMatrix is the cross-parallelism determinism
// contract: a fixed seed yields bit-identical results at parallelism 1, 2,
// and 8.
func TestQueryParallelDeterminismMatrix(t *testing.T) {
	idx := parallelTestIndex(t)
	ctx := context.Background()
	for _, u := range []int{0, 7, 533, 1499} {
		var base Result
		if err := idx.QueryIntoOpts(ctx, u, &base, QueryOptions{Parallelism: 1}); err != nil {
			t.Fatalf("serial query(%d): %v", u, err)
		}
		if base.Stats.Chunks < 2 {
			t.Fatalf("query(%d) split into %d chunks; the matrix needs several", u, base.Stats.Chunks)
		}
		for _, p := range []int{2, 8} {
			var res Result
			if err := idx.QueryIntoOpts(ctx, u, &res, QueryOptions{Parallelism: p}); err != nil {
				t.Fatalf("parallel(%d) query(%d): %v", p, u, err)
			}
			identicalScores(t, &base, &res, fmt.Sprintf("source %d parallelism %d", u, p))
			if res.Stats.Chunks != base.Stats.Chunks {
				t.Fatalf("source %d parallelism %d: %d chunks != %d — decomposition must not depend on workers",
					u, p, res.Stats.Chunks, base.Stats.Chunks)
			}
		}
	}
}

// TestQueryParallelWithEpsilonTiers checks the contract holds for per-request
// accuracy overrides too (different budgets, different chunk counts).
func TestQueryParallelWithEpsilonTiers(t *testing.T) {
	idx := parallelTestIndex(t)
	ctx := context.Background()
	for _, eps := range []float64{0.25, 0.5} {
		var base, par Result
		if err := idx.QueryIntoOpts(ctx, 3, &base, QueryOptions{Epsilon: eps}); err != nil {
			t.Fatalf("serial: %v", err)
		}
		if err := idx.QueryIntoOpts(ctx, 3, &par, QueryOptions{Epsilon: eps, Parallelism: 4}); err != nil {
			t.Fatalf("parallel: %v", err)
		}
		identicalScores(t, &base, &par, fmt.Sprintf("epsilon %v", eps))
	}
}

// TestQueryChunksMatchesStats pins QueryChunks (the engine's fan-out cap) to
// what the query actually executes.
func TestQueryChunksMatchesStats(t *testing.T) {
	idx := parallelTestIndex(t)
	for _, q := range []QueryOptions{{}, {Epsilon: 0.3}, {Epsilon: 0.9}} {
		var res Result
		if err := idx.QueryIntoOpts(context.Background(), 1, &res, q); err != nil {
			t.Fatalf("query: %v", err)
		}
		if got, want := idx.QueryChunks(q), res.Stats.Chunks; got != want {
			t.Fatalf("QueryChunks(%+v) = %d, query executed %d", q, got, want)
		}
	}
	var res Result
	if err := idx.QueryIntoOpts(context.Background(), 1, &res, QueryOptions{Parallelism: 1 << 20}); err != nil {
		t.Fatalf("query: %v", err)
	}
	if res.Stats.Parallelism > res.Stats.Chunks {
		t.Fatalf("parallelism %d exceeds chunk count %d", res.Stats.Parallelism, res.Stats.Chunks)
	}
}

// TestQueryBatchFusedMatchesSolo is the fusion half of the determinism
// contract: the fused multi-source pass returns bit-identical results to solo
// queries, for every source, at several parallelism levels, with duplicate
// sources included.
func TestQueryBatchFusedMatchesSolo(t *testing.T) {
	idx := parallelTestIndex(t)
	ctx := context.Background()
	sources := []int{5, 99, 5, 1200, 42}
	for _, p := range []int{1, 2, 8} {
		results := make([]*Result, len(sources))
		for i := range results {
			results[i] = &Result{}
		}
		if err := idx.QueryBatchIntoOpts(ctx, sources, results, QueryOptions{Parallelism: p}); err != nil {
			t.Fatalf("batch(p=%d): %v", p, err)
		}
		for i, u := range sources {
			var solo Result
			if err := idx.QueryIntoOpts(ctx, u, &solo, QueryOptions{}); err != nil {
				t.Fatalf("solo(%d): %v", u, err)
			}
			identicalScores(t, &solo, results[i], fmt.Sprintf("batch p=%d source %d", p, u))
			if results[i].Stats.IndexEntriesRead != solo.Stats.IndexEntriesRead {
				t.Fatalf("batch p=%d source %d: IndexEntriesRead %d != solo %d",
					p, u, results[i].Stats.IndexEntriesRead, solo.Stats.IndexEntriesRead)
			}
		}
	}
}

// TestQueryBatchWavesMatchSolo pins the wave-bounded fused path: a batch
// longer than the wave width (so states are reused across waves) still
// returns bit-identical results to solo queries at several parallelism
// levels, and never holds more than max(p, fusedWaveSize) states live.
func TestQueryBatchWavesMatchSolo(t *testing.T) {
	idx := parallelTestIndex(t)
	ctx := context.Background()
	sources := make([]int, 3*fusedWaveSize+2)
	for i := range sources {
		sources[i] = (i * 61) % 1500
	}
	solos := make(map[int]*Result, len(sources))
	for _, u := range sources {
		if solos[u] != nil {
			continue
		}
		solo := &Result{}
		if err := idx.QueryIntoOpts(ctx, u, solo, QueryOptions{}); err != nil {
			t.Fatalf("solo(%d): %v", u, err)
		}
		solos[u] = solo
	}
	for _, p := range []int{1, 3} {
		results := make([]*Result, len(sources))
		for i := range results {
			results[i] = &Result{}
		}
		if err := idx.QueryBatchIntoOpts(ctx, sources, results, QueryOptions{Parallelism: p}); err != nil {
			t.Fatalf("batch(p=%d): %v", p, err)
		}
		for i, u := range sources {
			identicalScores(t, solos[u], results[i], fmt.Sprintf("wave batch p=%d source %d", p, u))
			if got := results[i].Stats.Parallelism; got < 1 || got > p {
				t.Fatalf("batch p=%d source %d: reported parallelism %d outside [1, %d]",
					p, u, got, p)
			}
		}
	}
}

// countdownCtx is a context whose Err flips to context.Canceled after a fixed
// number of Err calls — a deterministic mid-phase cancellation. The counter
// is atomic because parallel chunk workers call Err concurrently.
type countdownCtx struct {
	context.Context
	calls atomic.Int64
	limit int64
}

func (c *countdownCtx) Err() error {
	if c.calls.Add(1) > c.limit {
		return context.Canceled
	}
	return nil
}

// TestWalkChunkCounters pins the lost-work signal QueryBatchEachIntoOpts
// reports per call: the chunks it ran — including chunks a cancelled query
// discarded before the merge — against the chunks merged into its results
// (their Stats.Chunks), so cancellation opens a gap. The adaptive input is
// cancelled after its first round has run, which must not count as merged
// either.
func TestWalkChunkCounters(t *testing.T) {
	for _, tc := range []struct {
		name string
		q    QueryOptions
	}{
		{"fixed", QueryOptions{}},
		{"adaptive", QueryOptions{Adaptive: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			idx := parallelTestIndex(t)
			var res Result
			ex, err := idx.QueryBatchEachIntoOpts(context.Background(), []int{4}, []*Result{&res}, []QueryOptions{tc.q})
			if err != nil {
				t.Fatalf("query: %v", err)
			}
			if me := res.Stats.Chunks; ex != me || me == 0 {
				t.Fatalf("after solo query executed = %d, merged = %d, want equal and positive", ex, me)
			}

			// A serial query checks ctx before every chunk. Cancel on the
			// check after one round plus one chunk: exactly those chunks
			// count as executed, none as merged.
			ran := idx.QueryChunks(QueryOptions{Adaptive: true}) + 1
			ctx := &countdownCtx{Context: context.Background(), limit: int64(ran)}
			var dropped Result
			ex2, err := idx.QueryBatchEachIntoOpts(ctx, []int{4}, []*Result{&dropped}, []QueryOptions{tc.q})
			if err != context.Canceled {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if ex2 != ran {
				t.Fatalf("cancelled query executed %d chunks, want %d", ex2, ran)
			}
			if dropped.Stats.Chunks != 0 {
				t.Fatalf("cancelled query merged %d chunks", dropped.Stats.Chunks)
			}

			// A fused batch runs each source's chunks once.
			results := []*Result{{}, {}, {}}
			ex3, err := idx.QueryBatchEachIntoOpts(context.Background(), []int{1, 4, 7}, results, []QueryOptions{tc.q, tc.q, tc.q})
			if err != nil {
				t.Fatalf("batch: %v", err)
			}
			if me := results[0].Stats.Chunks + results[1].Stats.Chunks + results[2].Stats.Chunks; ex3 != me {
				t.Fatalf("fused batch executed %d chunks, merged %d", ex3, me)
			}
		})
	}
}

// TestQueryBatchFusedValidation covers the batch-specific error paths.
func TestQueryBatchFusedValidation(t *testing.T) {
	idx := parallelTestIndex(t)
	ctx := context.Background()
	if err := idx.QueryBatchIntoOpts(ctx, []int{1, 2}, []*Result{{}}, QueryOptions{}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if err := idx.QueryBatchIntoOpts(ctx, []int{1}, []*Result{nil}, QueryOptions{}); err == nil {
		t.Fatal("nil result accepted")
	}
	if err := idx.QueryBatchIntoOpts(ctx, []int{-1}, []*Result{{}}, QueryOptions{}); err == nil {
		t.Fatal("bad source accepted")
	}
	if err := idx.QueryBatchIntoOpts(ctx, nil, nil, QueryOptions{}); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestQueryParallelCancellation checks a cancelled query reports the context
// error, touches nothing, and leaves every state it used reusable.
func TestQueryParallelCancellation(t *testing.T) {
	t.Run("before start", func(t *testing.T) {
		idx := parallelTestIndex(t)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res := Result{Scores: map[int]float64{7: 0.5}}
		if err := idx.QueryIntoOpts(ctx, 0, &res, QueryOptions{Parallelism: 4}); err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if res.Scores[7] != 0.5 {
			t.Fatal("cancelled query mutated the caller's result")
		}
		// The free list must hand back clean states: a follow-up query
		// still matches the serial baseline.
		var a, b Result
		if err := idx.QueryIntoOpts(context.Background(), 0, &a, QueryOptions{}); err != nil {
			t.Fatalf("follow-up: %v", err)
		}
		if err := idx.QueryIntoOpts(context.Background(), 0, &b, QueryOptions{Parallelism: 4}); err != nil {
			t.Fatalf("follow-up parallel: %v", err)
		}
		identicalScores(t, &a, &b, "post-cancel")
	})

	// An adaptive query cancelled after its first window (MinRounds = 2
	// rounds) merged and one chunk of the second ran: its states hold merged
	// rounds and used chunk slots, and the next query on them must still be
	// bit-identical to the same query on a fresh index.
	fresh := parallelTestIndex(t)
	for _, p := range []int{1, 4} {
		t.Run(fmt.Sprintf("adaptive mid-phase p=%d", p), func(t *testing.T) {
			idx := parallelTestIndex(t)
			q := QueryOptions{Adaptive: true, Parallelism: p}
			// A window checks ctx before every chunk, and a parallel window
			// once more after its workers join.
			ran := 2*idx.QueryChunks(q) + 1
			limit := int64(ran)
			if p > 1 {
				limit++
			}
			ctx := &countdownCtx{Context: context.Background(), limit: limit}
			res := Result{Scores: map[int]float64{7: 0.5}}
			ex, err := idx.QueryBatchEachIntoOpts(ctx, []int{7}, []*Result{&res}, []QueryOptions{q})
			if err != context.Canceled {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if res.Scores[7] != 0.5 {
				t.Fatal("cancelled query mutated the caller's result")
			}
			if ex != ran || res.Stats.Chunks != 0 {
				t.Fatalf("cancelled query counters = (%d, %d), want (%d, 0)", ex, res.Stats.Chunks, ran)
			}
			var got, want Result
			if err := idx.QueryIntoOpts(context.Background(), 7, &got, q); err != nil {
				t.Fatalf("follow-up: %v", err)
			}
			if err := fresh.QueryIntoOpts(context.Background(), 7, &want, q); err != nil {
				t.Fatalf("fresh index: %v", err)
			}
			identicalScores(t, &want, &got, "post-cancel adaptive")
			if got.Stats.RoundsExecuted != want.Stats.RoundsExecuted {
				t.Fatalf("follow-up ran %d rounds, fresh index ran %d", got.Stats.RoundsExecuted, want.Stats.RoundsExecuted)
			}
		})
	}
}
