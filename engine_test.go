package prsim

import (
	"context"
	"sync"
	"testing"
)

func testEngineIndex(t *testing.T) *Index {
	t.Helper()
	g, err := GeneratePowerLawGraph(200, 6, 2.5, true, 9)
	if err != nil {
		t.Fatalf("GeneratePowerLawGraph: %v", err)
	}
	idx, err := BuildIndex(g, Options{Epsilon: 0.25, Seed: 4, SampleScale: 0.05})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	return idx
}

// TestServedDoBatchMatchesIndexDo pins the fused batch behind a Registry
// mount to single requests answered straight off the index, bit for bit,
// duplicates included.
func TestServedDoBatchMatchesIndexDo(t *testing.T) {
	idx := testEngineIndex(t)
	sources := []int{0, 9, 42, 9, 199}
	batch, err := mountIndex(t, idx, EngineOptions{}).DoBatch(context.Background(), Request{}, sources)
	if err != nil {
		t.Fatalf("DoBatch: %v", err)
	}
	for i, u := range sources {
		want, err := query(idx, u)
		if err != nil {
			t.Fatalf("Do(%d): %v", u, err)
		}
		got := batch.Responses[i].Result
		if got.Source() != u {
			t.Fatalf("batch[%d].Source = %d, want %d", i, got.Source(), u)
		}
		ws, gs := want.Scores(), got.Scores()
		if len(ws) != len(gs) {
			t.Fatalf("source %d: support %d vs %d", u, len(ws), len(gs))
		}
		for v, s := range ws {
			if gs[v] != s {
				t.Fatalf("source %d node %d: %v vs %v", u, v, s, gs[v])
			}
		}
	}
}

func TestEngineEndToEnd(t *testing.T) {
	idx := testEngineIndex(t)
	eng := mountIndex(t, idx, EngineOptions{Workers: 4, CacheSize: 8})
	ctx := context.Background()

	resp, err := eng.Do(ctx, Request{Source: 3})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if resp.Result.Score(3) != 1 {
		t.Errorf("self-similarity = %v, want 1", resp.Result.Score(3))
	}
	resp, err = eng.Do(ctx, Request{Source: 3, K: 10})
	if err != nil {
		t.Fatalf("Do top-k: %v", err)
	}
	top := resp.Top
	for i := 1; i < len(top); i++ {
		if top[i].Score > top[i-1].Score {
			t.Errorf("Top not sorted: %+v", top)
		}
	}
	if s, err := eng.Pair(ctx, 5, 5); err != nil || s != 1 {
		t.Errorf("Pair(5,5) = %v, %v; want 1, nil", s, err)
	}

	// Concurrent mixed load under -race: batches, cached queries, topk.
	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for i := 0; i < 4; i++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			if _, err := eng.DoBatch(ctx, Request{}, []int{1, 2, 3, 4, 5}); err != nil {
				errs <- err
			}
		}()
		go func(u int) {
			defer wg.Done()
			if _, err := eng.Do(ctx, Request{Source: u}); err != nil {
				errs <- err
			}
		}(i)
		go func(u int) {
			defer wg.Done()
			if _, err := eng.Do(ctx, Request{Source: u, K: 5}); err != nil {
				errs <- err
			}
		}(i + 10)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent engine call failed: %v", err)
	}

	st := eng.StatsAggregate()
	if st.Workers != 4 {
		t.Errorf("Workers = %d, want 4", st.Workers)
	}
	if st.Queries == 0 {
		t.Error("Queries counter never advanced")
	}
	if st.CacheHits == 0 {
		t.Error("expected cache hits from repeated sources")
	}
	if st.PairQueries != 1 {
		t.Errorf("PairQueries = %d, want 1", st.PairQueries)
	}
}

func TestMaxLevelsOption(t *testing.T) {
	g := paperGraph(t)
	// MaxLevels must survive the public->core translation: a cap of 1 prunes
	// every walk deeper than one level, which shows up as fewer non-zero
	// scores than the default on this cyclic fixture.
	shallow, err := BuildIndex(g, Options{Epsilon: 0.3, Seed: 2, MaxLevels: 1})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	deep, err := BuildIndex(g, Options{Epsilon: 0.3, Seed: 2})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	rs, err := query(shallow, 0)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	rd, err := query(deep, 0)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(rs.Scores()) > len(rd.Scores()) {
		t.Errorf("MaxLevels=1 support %d exceeds default support %d",
			len(rs.Scores()), len(rd.Scores()))
	}
	if shallow.idx.Options().MaxLevels != 1 {
		t.Errorf("core MaxLevels = %d, want 1 (option dropped in toCore?)",
			shallow.idx.Options().MaxLevels)
	}
	if deep.idx.Options().MaxLevels != 64 {
		t.Errorf("default core MaxLevels = %d, want 64", deep.idx.Options().MaxLevels)
	}
}

func TestMountIndexNilIndex(t *testing.T) {
	if _, err := NewRegistry().MountIndex(DefaultGraph, nil, GraphConfig{}); err == nil {
		t.Fatal("MountIndex(nil) should fail")
	}
}

// TestTopKNegativeKPublicAPI exercises negative k through the public surface
// directly — Result.TopK and a Request's K — rather than through the HTTP
// handlers that happen to pre-validate k. Before the clamp this panicked in
// core's nodes[:k] slice.
func TestTopKNegativeKPublicAPI(t *testing.T) {
	g := paperGraph(t)
	idx, err := BuildIndex(g, Options{Epsilon: 0.3, Seed: 2})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	res, err := query(idx, 0)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	for _, k := range []int{-1, -99, 0} {
		if got := res.TopK(k); len(got) != 0 {
			t.Errorf("Result.TopK(%d) returned %d nodes, want 0", k, len(got))
		}
	}
	eng := mountIndex(t, idx, EngineOptions{Workers: 2})
	for _, k := range []int{-1, -99, 0} {
		for name, do := range map[string]func(context.Context, Request) (*Response, error){
			"Index.Do": idx.Do, "Served.Do": eng.Do,
		} {
			resp, err := do(context.Background(), Request{Source: 0, K: k})
			if err != nil {
				t.Fatalf("%s(K=%d): %v", name, k, err)
			}
			if len(resp.Top) != 0 {
				t.Errorf("%s(K=%d) returned %d nodes, want 0", name, k, len(resp.Top))
			}
		}
	}
}

// TestEngineSwapPublicAPI drives the public hot-swap surface: Served.Update
// moves every shard engine onto a new index, Current and the engines' swap
// generation track the change, and queries keep answering.
func TestEngineSwapPublicAPI(t *testing.T) {
	g := paperGraph(t)
	idxA, err := BuildIndex(g, Options{Epsilon: 0.3, Seed: 2})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	idxB, err := BuildIndex(g, Options{Epsilon: 0.3, Seed: 3})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	eng := mountIndex(t, idxA, EngineOptions{Workers: 2, CacheSize: 4})
	if eng.Current() != idxA || eng.StatsAggregate().Generation != 0 {
		t.Fatalf("fresh mount current/gen = %p/%d, want idxA/0", eng.Current(), eng.StatsAggregate().Generation)
	}
	if _, err := eng.Do(context.Background(), Request{Source: 0}); err != nil {
		t.Fatalf("Do: %v", err)
	}
	if err := eng.Update(idxB, nil); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if eng.Current() != idxB {
		t.Errorf("post-swap current = %p, want idxB %p", eng.Current(), idxB)
	}
	if _, err := eng.Do(context.Background(), Request{Source: 0}); err != nil {
		t.Fatalf("Do after swap: %v", err)
	}
	st := eng.StatsAggregate()
	if st.Generation != 1 || st.Swaps != 1 {
		t.Errorf("Stats generation/swaps = %d/%d, want 1/1", st.Generation, st.Swaps)
	}
	if err := eng.Update(nil, nil); err == nil {
		t.Error("Update(nil) should fail")
	}
}

// TestResultLabelsSurviveSwap pins the generation binding of results: a
// result produced before (or during) a hot swap must label its nodes from
// the graph that computed it, not from whichever graph is current at render
// time.
func TestResultLabelsSurviveSwap(t *testing.T) {
	gOld, err := NewGraphFromLabelledEdges([][2]string{
		{"old-a", "old-b"}, {"old-b", "old-c"}, {"old-c", "old-a"},
	})
	if err != nil {
		t.Fatalf("NewGraphFromLabelledEdges: %v", err)
	}
	gNew, err := NewGraphFromLabelledEdges([][2]string{
		{"new-a", "new-b"}, {"new-b", "new-c"}, {"new-c", "new-a"},
	})
	if err != nil {
		t.Fatalf("NewGraphFromLabelledEdges: %v", err)
	}
	idxOld, err := BuildIndex(gOld, Options{Epsilon: 0.3, Seed: 1})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	idxNew, err := BuildIndex(gNew, Options{Epsilon: 0.3, Seed: 1})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	eng := mountIndex(t, idxOld, EngineOptions{Workers: 2, CacheSize: 4})
	resp, err := eng.Do(context.Background(), Request{Source: 0})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if err := eng.Update(idxNew, nil); err != nil {
		t.Fatalf("Update: %v", err)
	}
	for _, s := range resp.Result.TopK(3) {
		if len(s.Label) < 4 || s.Label[:4] != "old-" {
			t.Errorf("pre-swap result labeled %q from the new graph", s.Label)
		}
	}
	after, err := eng.Do(context.Background(), Request{Source: 0, K: 3})
	if err != nil {
		t.Fatalf("Do top-k after swap: %v", err)
	}
	for _, s := range after.Top {
		if len(s.Label) < 4 || s.Label[:4] != "new-" {
			t.Errorf("post-swap top-k labeled %q from the old graph", s.Label)
		}
	}
}
