// Query scratch lives on a per-index LIFO free list, not in a sync.Pool, so
// nothing drops it when GOMAXPROCS changes (testing.AllocsPerRun sets it to
// 1), when a GC runs, or under the race detector: these counts hold on every
// build and at every GOMAXPROCS. CI runs them at GOMAXPROCS 1, 2 and 4.

package core

import (
	"context"
	"runtime"
	"testing"

	"prsim/internal/gen"
	"prsim/internal/pagerank"
)

// TestQueryIntoSteadyStateAllocs pins the recycled-scratch guarantee: once
// the per-index free list and the caller's reused Result have warmed up, a
// QueryIntoOpts call performs (approximately) zero heap allocations — the
// walkers, sparse accumulators (grown to the query's supports), median
// workspace, chunk results and batch buffers are all recycled, and the score
// map is cleared in place rather than reallocated. A couple of allocations of slack absorb runtime noise, but a
// regression that reintroduces per-query maps, sorts with allocating
// comparators, or fresh walk buffers shows up as dozens of allocations and
// fails loudly.
func TestQueryIntoSteadyStateAllocs(t *testing.T) {
	g := largerTestGraph(2000, 6, 13)
	idx, err := BuildIndex(g, Options{Epsilon: 0.25, NumHubs: 40, Seed: 9, SampleScale: 0.2})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	var res Result
	// Warm-up queries populate the scratch pool, grow every lazily sized
	// buffer to its high-water mark, and size the reused score map.
	for i := 0; i < 3; i++ {
		if err := idx.QueryIntoOpts(context.Background(), 7, &res, QueryOptions{}); err != nil {
			t.Fatalf("warm-up QueryIntoOpts: %v", err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := idx.QueryIntoOpts(context.Background(), 7, &res, QueryOptions{}); err != nil {
			t.Fatalf("QueryIntoOpts: %v", err)
		}
	})
	if allocs > 2 {
		t.Errorf("steady-state QueryIntoOpts performed %.1f allocs/query, want ~0 (pooled scratch has rotted)", allocs)
	}
}

// TestQueryParallelSteadyStateAllocs extends the guarantee to the parallel
// walk path: worker states come from the free list and chunk results live on
// the merging state, so once warm a parallel query's only per-run heap
// traffic is spawning its few worker goroutines. A regression that allocates
// per chunk (fresh chunk buffers, unrecycled states) multiplies with the
// chunk count and fails loudly.
func TestQueryParallelSteadyStateAllocs(t *testing.T) {
	g := largerTestGraph(2000, 6, 13)
	idx, err := BuildIndex(g, Options{Epsilon: 0.2, NumHubs: 40, Seed: 9, SampleScale: 0.1})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	ctx := context.Background()
	q := QueryOptions{Parallelism: 4}
	var res Result
	// A GC clears sync.Pools, forcing the chunk-result pool to re-warm (one
	// allocation burst proportional to the chunk count). Collect before the
	// warm-up so the measurement window is unlikely to catch one.
	runtime.GC()
	for i := 0; i < 3; i++ {
		if err := idx.QueryIntoOpts(ctx, 7, &res, q); err != nil {
			t.Fatalf("warm-up QueryIntoOpts: %v", err)
		}
	}
	if res.Stats.Chunks < 2 {
		t.Fatalf("query ran %d chunks; the test needs a genuinely parallel workload", res.Stats.Chunks)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := idx.QueryIntoOpts(ctx, 7, &res, q); err != nil {
			t.Fatalf("QueryIntoOpts: %v", err)
		}
	})
	// Budget: ~2 allocations per spawned worker goroutine plus runtime noise;
	// per-chunk allocations would multiply with the chunk count (dozens) and
	// blow well past it.
	if allocs > 16 {
		t.Errorf("steady-state parallel query performed %.1f allocs, want just the goroutine spawns (chunk pooling has rotted)", allocs)
	}
}

// TestHubSearchSteadyStateAllocs pins the build's reusable search state: once
// a worker's scratch has grown to the graph and its deepest search, one hub
// search allocates only its output slices — the search result with its
// reserve slab and level index, then the entries, their level index, the
// activation ids and their masses — however many levels and pushes it runs.
// A regression that allocates per level or per push (maps, per-level sorts,
// buffers grown afresh) multiplies with those counts and fails loudly.
func TestHubSearchSteadyStateAllocs(t *testing.T) {
	g := largerTestGraph(2000, 6, 13)
	opts, err := Options{Epsilon: 0.1}.fill()
	if err != nil {
		t.Fatal(err)
	}
	rmax := opts.rmax()
	pi, err := pagerank.ReversePageRank(g, pagerank.Options{C: opts.C})
	if err != nil {
		t.Fatal(err)
	}
	hub := pagerank.RankNodesByScore(pi)[0]
	var s hubSearch
	levels, _, _, pushes, err := s.searchHubLevels(g, hub, opts, rmax)
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) < 8 || pushes < 5000 {
		t.Fatalf("search ran %d levels and %d pushes; the test needs a deep, wide search", len(levels), pushes)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, _, _, err := s.searchHubLevels(g, hub, opts, rmax); err != nil {
			t.Fatal(err)
		}
	})
	const outputs = 7
	if allocs > outputs {
		t.Errorf("a hub search on warm scratch performed %.1f allocs, want at most its %d output slices (%d levels, %d pushes)", allocs, outputs, len(levels), pushes)
	}
}

// TestQueryStateSizedToWork pins that no per-query scratch is sized to the
// graph: on a sparse 200k-node graph, creating a query state allocates under
// 64 KiB, and its first query — walks, backward walks, the median pass, the
// index read and the result map — allocates under 8 bytes per node, half of
// what the backward walk's two frontiers alone would cost as dense arrays.
// The walk tables are per index and built before measuring.
func TestQueryStateSizedToWork(t *testing.T) {
	g, err := gen.ErdosRenyi(gen.EROptions{N: 200000, AvgDegree: 2, Directed: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := BuildIndex(g, Options{Epsilon: 0.5, NumHubs: 4, Seed: 1})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	ctx := context.Background()
	var res Result
	if err := idx.QueryIntoOpts(ctx, 1, &res, QueryOptions{}); err != nil {
		t.Fatalf("warm-up QueryIntoOpts: %v", err)
	}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var s *queryState
	fresh := allocated(func() { s = newQueryState(idx) })
	if fresh > 64<<10 {
		t.Errorf("a fresh query state allocated %d bytes on %d nodes, want under 64 KiB", fresh, g.N())
	}
	// The free list is LIFO, so the next query runs on s.
	idx.putState(s)
	var first Result
	got := allocated(func() {
		if err := idx.QueryIntoOpts(ctx, 7, &first, QueryOptions{}); err != nil {
			t.Fatalf("QueryIntoOpts: %v", err)
		}
	})
	if first.Stats.NonHubHits == 0 {
		t.Fatal("the query ran no backward walks; the test needs them")
	}
	if limit := uint64(8 * g.N()); got > limit {
		t.Errorf("a fresh state's first query allocated %d bytes on %d nodes, want under %d", got, g.N(), limit)
	}
	t.Logf("fresh state %d bytes; its first query %d bytes (support %d, %d backward walks)", fresh, got, len(first.Scores), first.Stats.NonHubHits)
}
