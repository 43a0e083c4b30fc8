// Query scratch lives on a per-index LIFO free list, not in a sync.Pool, so
// nothing drops it when GOMAXPROCS changes (testing.AllocsPerRun sets it to
// 1), when a GC runs, or under the race detector: these counts hold on every
// build and at every GOMAXPROCS. CI runs them at GOMAXPROCS 1, 2 and 4.

package core

import (
	"context"
	"runtime"
	"testing"
)

// TestQueryIntoSteadyStateAllocs pins the recycled-scratch guarantee: once
// the per-index free list and the caller's reused Result have warmed up, a
// QueryInto performs (approximately) zero heap allocations — the walkers,
// dense accumulators, median workspace, chunk results and batch buffers are
// all recycled, and the score map is cleared in place rather than
// reallocated. A couple of allocations of slack absorb runtime noise, but a
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
		if err := idx.QueryInto(7, &res); err != nil {
			t.Fatalf("warm-up QueryInto: %v", err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := idx.QueryInto(7, &res); err != nil {
			t.Fatalf("QueryInto: %v", err)
		}
	})
	if allocs > 2 {
		t.Errorf("steady-state QueryInto performed %.1f allocs/query, want ~0 (pooled scratch has rotted)", allocs)
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
