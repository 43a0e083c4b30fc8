package prsim

import (
	"context"
	"errors"
	"testing"

	"prsim/internal/core"
)

// requestPlaneIndex builds an index whose build epsilon leaves room for a 4x
// per-request override inside (0,1).
func requestPlaneIndex(t *testing.T) *Index {
	t.Helper()
	g, err := GeneratePowerLawGraph(300, 6, 2.5, true, 9)
	if err != nil {
		t.Fatalf("GeneratePowerLawGraph: %v", err)
	}
	idx, err := BuildIndex(g, Options{Epsilon: 0.15, Seed: 4, SampleScale: 0.1})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	return idx
}

// TestIndexDoRequestPlane drives the public single-index entry point:
// equivalence with core's default query, per-request epsilon speedup,
// clamping, top-k selection, and validation.
func TestIndexDoRequestPlane(t *testing.T) {
	idx := requestPlaneIndex(t)
	ctx := context.Background()

	// The zero request is core's default query, bit for bit.
	var base core.Result
	if err := idx.idx.QueryIntoOpts(ctx, 7, &base, core.QueryOptions{}); err != nil {
		t.Fatalf("QueryIntoOpts: %v", err)
	}
	want := wrapResult(idx.g, &base)
	resp, err := idx.Do(ctx, Request{Source: 7})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if resp.Epsilon != 0.15 || resp.Clamped || resp.CacheHit || resp.Coalesced {
		t.Fatalf("zero-request metadata = %+v", resp)
	}
	ws, gs := want.Scores(), resp.Result.Scores()
	if len(ws) != len(gs) {
		t.Fatalf("support %d vs %d", len(ws), len(gs))
	}
	for v, s := range ws {
		if gs[v] != s {
			t.Fatalf("Do diverged from core at node %d", v)
		}
	}

	// Coarser epsilon: fewer walks, flagged effective epsilon.
	coarse, err := idx.Do(ctx, Request{Source: 7, Epsilon: 0.6})
	if err != nil {
		t.Fatalf("Do coarse: %v", err)
	}
	if coarse.Epsilon != 0.6 || coarse.Clamped {
		t.Fatalf("coarse metadata = %+v", coarse)
	}
	if cw, dw := coarse.Result.Stats().Walks, resp.Result.Stats().Walks; cw*4 > dw {
		t.Fatalf("coarse walks = %d vs default %d, want at least 4x fewer", cw, dw)
	}
	if coarse.Result.Stats().Epsilon != 0.6 {
		t.Fatalf("result stats epsilon = %v, want 0.6", coarse.Result.Stats().Epsilon)
	}

	// Below build epsilon: clamped, identical to default.
	clamped, err := idx.Do(ctx, Request{Source: 7, Epsilon: 0.01})
	if err != nil {
		t.Fatalf("Do clamped: %v", err)
	}
	if !clamped.Clamped || clamped.Epsilon != 0.15 {
		t.Fatalf("clamped metadata = %+v", clamped)
	}

	// Top-k rides along and matches Result.TopK.
	topped, err := idx.Do(ctx, Request{Source: 7, K: 5})
	if err != nil {
		t.Fatalf("Do topk: %v", err)
	}
	wantTop := want.TopK(5)
	if len(topped.Top) != len(wantTop) {
		t.Fatalf("Top has %d entries, want %d", len(topped.Top), len(wantTop))
	}
	for i := range wantTop {
		if topped.Top[i] != wantTop[i] {
			t.Fatalf("Top[%d] = %+v, want %+v", i, topped.Top[i], wantTop[i])
		}
	}

	if _, err := idx.Do(ctx, Request{Source: 7, Epsilon: 2}); !errors.Is(err, ErrInvalidEpsilon) {
		t.Fatalf("Do(epsilon=2) error = %v, want ErrInvalidEpsilon", err)
	}
	if _, err := idx.Do(ctx, Request{Source: -1}); !errors.Is(err, ErrInvalidNode) {
		t.Fatalf("Do(source=-1) error = %v, want ErrInvalidNode", err)
	}
}

// TestEngineDoRequestPlane drives the engine behind a Registry mount:
// per-tier caching, clamped requests sharing the default entry, and batch
// options.
func TestEngineDoRequestPlane(t *testing.T) {
	idx := requestPlaneIndex(t)
	eng := mountIndex(t, idx, EngineOptions{Workers: 2, CacheSize: 8})
	ctx := context.Background()

	def, err := eng.Do(ctx, Request{Source: 3})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	coarse, err := eng.Do(ctx, Request{Source: 3, Epsilon: 0.6})
	if err != nil {
		t.Fatalf("Do coarse: %v", err)
	}
	if coarse.CacheHit {
		t.Fatal("different epsilon tier must not share a cache entry")
	}
	again, err := eng.Do(ctx, Request{Source: 3, Epsilon: 0.6})
	if err != nil {
		t.Fatalf("Do coarse again: %v", err)
	}
	if !again.CacheHit {
		t.Fatal("repeated coarse request must hit its tier's cache entry")
	}
	clamped, err := eng.Do(ctx, Request{Source: 3, Epsilon: 0.01})
	if err != nil {
		t.Fatalf("Do clamped: %v", err)
	}
	if !clamped.Clamped || !clamped.CacheHit {
		t.Fatalf("clamped request must share the default tier's entry: %+v", clamped)
	}
	if clamped.Result.Score(3) != def.Result.Score(3) {
		t.Fatal("clamped result diverged from default")
	}

	// NoCache requests recompute but never insert.
	st := eng.StatsAggregate()
	nc, err := eng.Do(ctx, Request{Source: 3, NoCache: true})
	if err != nil {
		t.Fatalf("Do nocache: %v", err)
	}
	if nc.CacheHit {
		t.Fatal("NoCache request served from cache")
	}
	if got := eng.StatsAggregate().CacheEntries; got != st.CacheEntries {
		t.Fatalf("NoCache request changed cache entries %d -> %d", st.CacheEntries, got)
	}

	// DoBatch threads the shared options through every source.
	batch, err := eng.DoBatch(ctx, Request{Epsilon: 0.6}, []int{1, 2, 1})
	if err != nil {
		t.Fatalf("DoBatch: %v", err)
	}
	resps := batch.Responses
	for i, r := range resps {
		if r.Epsilon != 0.6 {
			t.Fatalf("batch entry %d epsilon = %v, want 0.6", i, r.Epsilon)
		}
	}
	if resps[0].Result.Score(1) != resps[2].Result.Score(1) {
		t.Fatal("duplicate batch sources diverged")
	}
	single, err := eng.Do(ctx, Request{Source: 1, Epsilon: 0.6})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if single.Result.Score(2) != resps[0].Result.Score(2) {
		t.Fatal("batch result diverged from single request at same epsilon")
	}

	// The engine's stats surface the request-plane counters.
	est := eng.StatsAggregate()
	if est.MaxQueue <= 0 {
		t.Fatalf("MaxQueue = %d, want positive default", est.MaxQueue)
	}
	if est.CacheHits == 0 || est.Queries == 0 {
		t.Fatalf("stats not counting: %+v", est)
	}
}

// TestGraphConfigAdaptiveDefault pins that a mount's EngineOptions reach its
// shard engines: with AdaptiveDefault set, a request that leaves Adaptive at
// AdaptiveAuto resolves to adaptive execution, so it hits the cache entry an
// explicit AdaptiveOn request left, and misses it when the default is off.
func TestGraphConfigAdaptiveDefault(t *testing.T) {
	idx := requestPlaneIndex(t)
	ctx := context.Background()
	for _, on := range []bool{true, false} {
		eng := mountIndex(t, idx, EngineOptions{Workers: 2, CacheSize: 8, AdaptiveDefault: on})
		if _, err := eng.Do(ctx, Request{Source: 3, Adaptive: AdaptiveOn}); err != nil {
			t.Fatalf("Do adaptive: %v", err)
		}
		auto, err := eng.Do(ctx, Request{Source: 3})
		if err != nil {
			t.Fatalf("Do auto: %v", err)
		}
		if auto.CacheHit != on {
			t.Errorf("AdaptiveDefault=%v: auto request CacheHit = %v, want %v", on, auto.CacheHit, on)
		}
	}
}

// TestEngineDoTopKLabels checks labels in Top resolve through the public
// wrapper for labelled graphs.
func TestEngineDoTopKLabels(t *testing.T) {
	g, err := NewGraphFromLabelledEdges([][2]string{
		{"a", "b"}, {"b", "c"}, {"c", "a"}, {"a", "c"}, {"b", "a"},
	})
	if err != nil {
		t.Fatalf("NewGraphFromLabelledEdges: %v", err)
	}
	idx, err := BuildIndex(g, Options{Epsilon: 0.3, Seed: 2})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	eng := mountIndex(t, idx, EngineOptions{Workers: 1})
	resp, err := eng.Do(context.Background(), Request{Source: 0, K: 2})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	for _, s := range resp.Top {
		if s.Label == "" || s.Label == "0" {
			t.Fatalf("Top entry missing label: %+v", s)
		}
	}
}
