package engine

import (
	"context"
	"testing"

	"prsim/internal/core"
	"prsim/internal/graph"
)

// twoComponentIndex builds an index over a graph with two disconnected halves
// of 30 nodes each (a ring plus deterministic chords per half). Updates inside
// one half can never perturb queries rooted in the other, which makes the
// impact-filtered cache retention exactly checkable: surviving entries must be
// bit-identical to fresh queries on the successor.
func twoComponentIndex(t testing.TB) *core.Index {
	t.Helper()
	const half = 30
	var edges []graph.Edge
	for base := 0; base < 2*half; base += half {
		for i := 0; i < half; i++ {
			u := base + i
			edges = append(edges,
				graph.Edge{From: u, To: base + (i+1)%half},
				graph.Edge{From: u, To: base + (i*7+3)%half},
				graph.Edge{From: u, To: base + (i*11+5)%half},
			)
		}
	}
	g, err := graph.FromEdges(2*half, edges)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	idx, err := core.BuildIndex(g, core.Options{Epsilon: 0.2, Seed: 7})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	return idx
}

func TestSwapWithImpactRetainsUntouchedEntries(t *testing.T) {
	idx := twoComponentIndex(t)
	e, err := New(idx, Options{Workers: 2, CacheSize: 64})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx := context.Background()

	// Warm the cache: sources in component A (0..29) and component B (30..59).
	aSources := []int{0, 5, 17}
	bSources := []int{33, 48}
	for _, u := range append(append([]int(nil), aSources...), bSources...) {
		if _, err := e.Do(ctx, Request{Source: u}); err != nil {
			t.Fatalf("Do(%d): %v", u, err)
		}
	}

	// Mutate component B only.
	nidx, st, err := idx.ApplyUpdates([]graph.EdgeUpdate{{From: 35, To: 50}, {From: 41, To: 36, Delete: true}})
	if err != nil {
		t.Fatalf("ApplyUpdates: %v", err)
	}
	for _, w := range st.RecomputedHubs {
		if w < 30 {
			t.Fatalf("update in component B recomputed hub %d in component A", w)
		}
	}
	if err := e.SwapWithImpact(nidx, nil, st); err != nil {
		t.Fatalf("SwapWithImpact: %v", err)
	}
	if got := e.Stats().CacheReuses; got != 1 {
		t.Errorf("CacheReuses = %d, want 1", got)
	}

	// Component-A entries survived — answered from the cache, rebound to the
	// successor's graph, and bit-identical to a fresh query on the successor.
	for _, u := range aSources {
		resp, err := e.Do(ctx, Request{Source: u})
		if err != nil {
			t.Fatalf("Do(%d): %v", u, err)
		}
		if !resp.CacheHit {
			t.Errorf("source %d: untouched entry did not survive the impact swap", u)
		}
		if resp.Graph != nidx.Graph() {
			t.Errorf("source %d: retained result not rebound to the successor graph", u)
		}
		fresh, err := coreQuery(nidx, u, core.QueryOptions{})
		if err != nil {
			t.Fatalf("Query(%d): %v", u, err)
		}
		sameResult(t, fresh, resp.Result)
	}

	// Component-B entries were dropped: their support intersects the impact
	// set, so they recompute against the successor.
	for _, u := range bSources {
		resp, err := e.Do(ctx, Request{Source: u})
		if err != nil {
			t.Fatalf("Do(%d): %v", u, err)
		}
		if resp.CacheHit {
			t.Errorf("source %d: touched entry survived the impact swap", u)
		}
	}
}

func TestSwapWithImpactPurgesWhenNotApplicable(t *testing.T) {
	ctx := context.Background()

	// Nil impact behaves like a plain Swap of a changed index: full purge.
	idx := twoComponentIndex(t)
	e, err := New(idx, Options{Workers: 2, CacheSize: 64})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := e.Do(ctx, Request{Source: 3}); err != nil {
		t.Fatalf("Do: %v", err)
	}
	nidx, st, err := idx.ApplyUpdates([]graph.EdgeUpdate{{From: 35, To: 50}})
	if err != nil {
		t.Fatalf("ApplyUpdates: %v", err)
	}
	if err := e.SwapWithImpact(nidx, nil, nil); err != nil {
		t.Fatalf("SwapWithImpact: %v", err)
	}
	if got := e.Stats().CacheEntries; got != 0 {
		t.Errorf("nil impact kept %d cache entries, want 0", got)
	}

	// A successor from a different lineage (an independent rebuild with other
	// options) purges even when an impact set is supplied.
	other, err := core.BuildIndex(nidx.Graph(), core.Options{Epsilon: 0.3, Seed: 9})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	if _, err := e.Do(ctx, Request{Source: 3}); err != nil {
		t.Fatalf("Do: %v", err)
	}
	if err := e.SwapWithImpact(other, nil, st); err != nil {
		t.Fatalf("SwapWithImpact: %v", err)
	}
	if got := e.Stats().CacheEntries; got != 0 {
		t.Errorf("cross-lineage impact swap kept %d cache entries, want 0", got)
	}
}
