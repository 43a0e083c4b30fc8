package router

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"prsim/internal/core"
	"prsim/internal/engine"
	"prsim/internal/gen"
)

// testIndex builds a deterministic heap-backed index for routing tests.
func testIndex(t testing.TB, n int) *core.Index {
	t.Helper()
	g, err := gen.PowerLaw(gen.PowerLawOptions{N: n, AvgDegree: 6, Gamma: 2.5, Seed: 11})
	if err != nil {
		t.Fatalf("PowerLaw: %v", err)
	}
	idx, err := core.BuildIndex(g, core.Options{Epsilon: 0.25, Seed: 7, SampleScale: 0.05})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	return idx
}

// indexOpener opens the same prebuilt index on every call — the heap-backed
// analogue of reopening a snapshot file.
func indexOpener(idx *core.Index) Opener {
	return func() (Opened, error) { return Opened{Index: idx}, nil }
}

func mountShards(t *testing.T, idx *core.Index, shards int) *Served {
	t.Helper()
	s, err := newServed(Config{
		Shards: shards,
		Engine: engine.Options{Workers: 2, CacheSize: 0},
		Open:   indexOpener(idx),
	})
	if err != nil {
		t.Fatalf("newServed(%d shards): %v", shards, err)
	}
	return s
}

func sameScored(t *testing.T, label string, want, got []core.ScoredNode) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d vs %d", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: entry %d = %+v, want %+v (bit-exact)", label, i, got[i], want[i])
		}
	}
}

// TestScatterGatherBitParity is the acceptance matrix: single-source, batch,
// and merged top-k answers through 2- and 4-shard routers are bit-identical
// to the 1-shard (single-engine) reference under the fixed build seed. Run
// under -race in CI.
func TestScatterGatherBitParity(t *testing.T) {
	idx := testIndex(t, 300)
	ctx := context.Background()
	ref := mountShards(t, idx, 1)

	sources := []int{0, 1, 7, 42, 99, 150, 151, 152, 299, 42} // incl. a duplicate
	const k = 10

	refSingle := make([]*core.Result, len(sources))
	for i, u := range sources {
		resp, err := ref.Do(ctx, Request{Source: u})
		if err != nil {
			t.Fatalf("reference Do(%d): %v", u, err)
		}
		refSingle[i] = resp.Result
	}
	refBatch, err := ref.DoBatch(ctx, Request{}, sources)
	if err != nil {
		t.Fatalf("reference DoBatch: %v", err)
	}
	refTopRes, err := ref.TopKMerged(ctx, Request{}, sources, k)
	if err != nil {
		t.Fatalf("reference TopKMerged: %v", err)
	}
	refTop := refTopRes.Top
	if len(refTop) != k {
		t.Fatalf("reference TopKMerged returned %d entries, want %d", len(refTop), k)
	}

	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := mountShards(t, idx, shards)
			if s.NumShards() != shards {
				t.Fatalf("NumShards = %d, want %d", s.NumShards(), shards)
			}
			// Single-source: point-to-point routing, bit-exact scores.
			for i, u := range sources {
				resp, err := s.Do(ctx, Request{Source: u})
				if err != nil {
					t.Fatalf("Do(%d): %v", u, err)
				}
				if len(resp.Result.Scores) != len(refSingle[i].Scores) {
					t.Fatalf("Do(%d): %d scores, want %d", u, len(resp.Result.Scores), len(refSingle[i].Scores))
				}
				for v, want := range refSingle[i].Scores {
					if got, ok := resp.Result.Scores[v]; !ok || got != want {
						t.Fatalf("Do(%d): score[%d] = %v, want %v (bit-exact)", u, v, got, want)
					}
				}
			}
			// Batch: scatter-gather in input order.
			batch, err := s.DoBatch(ctx, Request{}, sources)
			if err != nil {
				t.Fatalf("DoBatch: %v", err)
			}
			if batch.Degraded || len(batch.MissingShards) != 0 {
				t.Fatalf("DoBatch degraded = %v missing %v on healthy shards", batch.Degraded, batch.MissingShards)
			}
			for i := range sources {
				for v, want := range refBatch.Resps[i].Result.Scores {
					if got, ok := batch.Resps[i].Result.Scores[v]; !ok || got != want {
						t.Fatalf("DoBatch[%d]: score[%d] = %v, want %v", i, v, got, want)
					}
				}
				if len(batch.Resps[i].Result.Scores) != len(refBatch.Resps[i].Result.Scores) {
					t.Fatalf("DoBatch[%d]: %d scores, want %d", i, len(batch.Resps[i].Result.Scores), len(refBatch.Resps[i].Result.Scores))
				}
			}
			// Top-k: deterministic global merge.
			top, err := s.TopKMerged(ctx, Request{}, sources, k)
			if err != nil {
				t.Fatalf("TopKMerged: %v", err)
			}
			if top.Graph == nil {
				t.Fatal("TopKMerged returned a nil graph")
			}
			sameScored(t, "TopKMerged", refTop, top.Top)
		})
	}
}

// TestShardForStable pins the shard hash: stable for a given source, within
// bounds, and non-degenerate (a few hundred sources spread over every
// shard).
func TestShardForStable(t *testing.T) {
	idx := testIndex(t, 100)
	s := mountShards(t, idx, 4)
	seen := make(map[int]int)
	for u := 0; u < 400; u++ {
		sh := s.ShardFor(u)
		if sh < 0 || sh >= 4 {
			t.Fatalf("ShardFor(%d) = %d, out of range", u, sh)
		}
		if again := s.ShardFor(u); again != sh {
			t.Fatalf("ShardFor(%d) unstable: %d then %d", u, sh, again)
		}
		seen[sh]++
	}
	for sh := 0; sh < 4; sh++ {
		if seen[sh] == 0 {
			t.Fatalf("shard %d received no sources out of 400 — degenerate hash", sh)
		}
	}
}

// TestMergeTopK pins the merge semantics: max score wins for duplicate
// nodes, ties break by ascending node id, output is bounded by k, and the
// result is independent of list order and partitioning.
func TestMergeTopK(t *testing.T) {
	a := []core.ScoredNode{{Node: 1, Score: 0.9}, {Node: 2, Score: 0.5}, {Node: 3, Score: 0.3}}
	b := []core.ScoredNode{{Node: 2, Score: 0.7}, {Node: 4, Score: 0.5}, {Node: 1, Score: 0.1}}
	// Node 2 deduplicates to its max score 0.7 (its 0.5 entry vanishes), so
	// the third slot goes to node 4 at 0.5, ahead of node 3 at 0.3.
	expect := []core.ScoredNode{{Node: 1, Score: 0.9}, {Node: 2, Score: 0.7}, {Node: 4, Score: 0.5}}
	sameScored(t, "MergeTopK(3, a, b)", expect, MergeTopK(3, a, b))

	// Order- and partition-independence.
	sameScored(t, "reversed lists", expect, MergeTopK(3, b, a))
	sameScored(t, "repartitioned", expect, MergeTopK(3, a[:1], append(append([]core.ScoredNode{}, a[1:]...), b...)))

	// Tie-break: equal scores order by ascending node.
	ties := []core.ScoredNode{{Node: 9, Score: 0.5}, {Node: 3, Score: 0.5}, {Node: 6, Score: 0.5}}
	wantTies := []core.ScoredNode{{Node: 3, Score: 0.5}, {Node: 6, Score: 0.5}}
	sameScored(t, "ties", wantTies, MergeTopK(2, ties))

	// Bounds.
	if got := MergeTopK(0, a); len(got) != 0 {
		t.Fatalf("MergeTopK(0) returned %d entries", len(got))
	}
	if got := MergeTopK(100, a); len(got) != 3 {
		t.Fatalf("MergeTopK(100) returned %d entries, want 3", len(got))
	}
}

// TestMergeTopKEdgeCases pins the degenerate inputs scatter-gather can
// produce: non-positive k, no lists at all, empty lists (a shard that owned
// no sources, or a degraded batch's dropped shard), and the single-list
// passthrough — always a non-nil, correctly bounded slice.
func TestMergeTopKEdgeCases(t *testing.T) {
	a := []core.ScoredNode{{Node: 1, Score: 0.9}, {Node: 2, Score: 0.5}}

	for _, k := range []int{0, -1, -100} {
		if got := MergeTopK(k, a); got == nil || len(got) != 0 {
			t.Fatalf("MergeTopK(%d) = %v, want empty non-nil", k, got)
		}
	}
	if got := MergeTopK(5); got == nil || len(got) != 0 {
		t.Fatalf("MergeTopK with no lists = %v, want empty non-nil", got)
	}
	if got := MergeTopK(5, nil, []core.ScoredNode{}, nil); got == nil || len(got) != 0 {
		t.Fatalf("MergeTopK over all-empty lists = %v, want empty non-nil", got)
	}
	// Single list: passthrough of the already-sorted selection, still bounded.
	sameScored(t, "single list", a, MergeTopK(5, a))
	sameScored(t, "single list truncated", a[:1], MergeTopK(1, a))
	// Empty lists mixed in (a missing shard under AllowPartial) change nothing.
	sameScored(t, "empty lists mixed in", a, MergeTopK(5, nil, a, []core.ScoredNode{}))
}

// TestAggregateEdgeCases pins the stats fold at its boundaries: no shards
// yields the zero snapshot, and one shard passes through unchanged.
func TestAggregateEdgeCases(t *testing.T) {
	if agg := Aggregate(nil); agg != (engine.Stats{}) {
		t.Fatalf("Aggregate(nil) = %+v, want zero", agg)
	}
	if agg := Aggregate([]engine.Stats{}); agg != (engine.Stats{}) {
		t.Fatalf("Aggregate(empty) = %+v, want zero", agg)
	}
	one := engine.Stats{Workers: 3, Queries: 17, CacheHits: 4, Generation: 2}
	one.Batch.Queries = 5
	if agg := Aggregate([]engine.Stats{one}); agg != one {
		t.Fatalf("Aggregate(single) = %+v, want passthrough %+v", agg, one)
	}
	// Two shards: counters sum, shard 0's generation speaks for the graph.
	two := Aggregate([]engine.Stats{one, one})
	if two.Queries != 34 || two.Workers != 6 || two.Batch.Queries != 10 || two.Generation != 2 {
		t.Fatalf("Aggregate(two) = %+v, want summed counters at generation 2", two)
	}
}

// TestAggregateChunkCountersAcrossShards pins that sharding does not
// multiply the walk-chunk counters: shards share one index, but each engine
// counts only the chunks its own computations ran, so the graph-level sum
// equals the chunks the answers actually merged at every shard count.
func TestAggregateChunkCountersAcrossShards(t *testing.T) {
	idx := testIndex(t, 300)
	ctx := context.Background()
	want := int64(-1)
	for _, shards := range []int{1, 2, 4} {
		s := mountShards(t, idx, shards)
		merged := int64(0)
		for i := 0; i < 20; i++ {
			resp, err := s.Do(ctx, engine.Request{Source: i * 15})
			if err != nil {
				t.Fatalf("shards=%d: Do(%d): %v", shards, i*15, err)
			}
			merged += int64(resp.Result.Stats.Chunks)
		}
		if want < 0 {
			want = merged
		}
		agg := Aggregate(s.Stats())
		if merged != want || agg.ChunksMerged != want || agg.ChunksExecuted != want {
			t.Fatalf("shards=%d: counters executed=%d merged=%d over answers merging %d, want all %d",
				shards, agg.ChunksExecuted, agg.ChunksMerged, merged, want)
		}
	}
}

// TestRegistryLifecycle pins mount/get/unmount/names: duplicate mounts fail,
// unknown gets fail typed, unmount closes the backing exactly once.
func TestRegistryLifecycle(t *testing.T) {
	idx := testIndex(t, 100)
	r := NewRegistry()
	var closed atomic.Int32
	open := func() (Opened, error) {
		return Opened{Index: idx, Close: func() error { closed.Add(1); return nil }, Tag: "tagged"}, nil
	}
	s, err := r.Mount("g1", Config{Engine: engine.Options{Workers: 1}, Open: open})
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	if tag, ok := s.Current().(string); !ok || tag != "tagged" {
		t.Fatalf("Current tag = %v, want \"tagged\"", s.Current())
	}
	if _, err := r.Mount("g1", Config{Engine: engine.Options{Workers: 1}, Open: open}); err == nil {
		t.Fatal("duplicate Mount succeeded")
	}
	if _, err := r.Mount("", Config{Open: open}); err == nil {
		t.Fatal("empty-name Mount succeeded")
	}
	if _, err := r.Get("missing"); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("Get(missing) = %v, want ErrUnknownGraph", err)
	}
	if _, err := r.Mount("g2", Config{Engine: engine.Options{Workers: 1}, Open: indexOpener(idx)}); err != nil {
		t.Fatalf("Mount g2: %v", err)
	}
	if names := r.Names(); len(names) != 2 || names[0] != "g1" || names[1] != "g2" {
		t.Fatalf("Names = %v, want [g1 g2]", names)
	}
	got, err := r.Get("g1")
	if err != nil || got != s {
		t.Fatalf("Get(g1) = %v, %v", got, err)
	}
	if _, err := got.Do(context.Background(), Request{Source: 5}); err != nil {
		t.Fatalf("Do through registry: %v", err)
	}
	if err := r.Unmount("g1"); err != nil {
		t.Fatalf("Unmount: %v", err)
	}
	if closed.Load() != 1 {
		t.Fatalf("backing closed %d times, want 1", closed.Load())
	}
	if _, err := r.Get("g1"); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("Get after Unmount = %v, want ErrUnknownGraph", err)
	}
	if err := r.Unmount("g1"); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("double Unmount = %v, want ErrUnknownGraph", err)
	}
}

// TestReloadSwapsEveryShard pins reload semantics: a successful reload bumps
// every shard's generation in lockstep and closes the previous backing; a
// failed verify leaves the old backing serving and closes the new one.
func TestReloadSwapsEveryShard(t *testing.T) {
	idxA := testIndex(t, 100)
	idxB := testIndex(t, 100)
	var opens, closesA, closesB atomic.Int32
	open := func() (Opened, error) {
		n := opens.Add(1)
		if n == 1 {
			return Opened{Index: idxA, Close: func() error { closesA.Add(1); return nil }, Tag: "A"}, nil
		}
		return Opened{Index: idxB, Close: func() error { closesB.Add(1); return nil }, Tag: "B"}, nil
	}
	s, err := newServed(Config{Shards: 4, Engine: engine.Options{Workers: 1}, Open: open})
	if err != nil {
		t.Fatalf("newServed: %v", err)
	}
	if s.Generation() != 0 {
		t.Fatalf("initial generation = %d, want 0", s.Generation())
	}

	// Failed verify: nothing swaps, the new backing closes, the old serves.
	if err := s.Reload(func(Opened) error { return errors.New("bad snapshot") }); err == nil {
		t.Fatal("Reload with failing verify succeeded")
	}
	if closesB.Load() != 1 {
		t.Fatalf("rejected backing closed %d times, want 1", closesB.Load())
	}
	if tag := s.Current(); tag != "A" {
		t.Fatalf("after failed reload Current = %v, want A", tag)
	}

	// Successful reload: every shard's generation bumps, old backing closes.
	if err := s.Reload(nil); err != nil {
		t.Fatalf("Reload: %v", err)
	}
	for i := 0; i < s.NumShards(); i++ {
		if g := s.Engine(i).Generation(); g != 1 {
			t.Fatalf("shard %d generation = %d, want 1 (lockstep)", i, g)
		}
	}
	if closesA.Load() != 1 {
		t.Fatalf("previous backing closed %d times, want 1", closesA.Load())
	}
	if tag := s.Current(); tag != "B" {
		t.Fatalf("after reload Current = %v, want B", tag)
	}
	if _, err := s.Do(context.Background(), Request{Source: 3}); err != nil {
		t.Fatalf("post-reload Do: %v", err)
	}
}

// TestDoBatchEmptyAndClassThreading covers the trivial batch and verifies
// the admission class flows through the scatter path into per-shard stats.
func TestDoBatchEmptyAndClassThreading(t *testing.T) {
	idx := testIndex(t, 200)
	s := mountShards(t, idx, 2)
	ctx := context.Background()
	if resps, err := s.DoBatch(ctx, Request{}, nil); err != nil || len(resps.Resps) != 0 {
		t.Fatalf("empty DoBatch = %v, %v", resps, err)
	}
	sources := []int{1, 2, 3, 4, 5, 6, 7, 8}
	if _, err := s.DoBatch(ctx, Request{Class: engine.ClassBatch}, sources); err != nil {
		t.Fatalf("DoBatch: %v", err)
	}
	var batchQueries int64
	for _, st := range s.Stats() {
		batchQueries += st.Batch.Queries
	}
	if batchQueries != int64(len(sources)) {
		t.Fatalf("batch-class queries across shards = %d, want %d", batchQueries, len(sources))
	}
	agg := Aggregate(s.Stats())
	if agg.Queries != int64(len(sources)) || agg.Batch.Queries != int64(len(sources)) {
		t.Fatalf("Aggregate queries = %d (batch %d), want %d", agg.Queries, agg.Batch.Queries, len(sources))
	}
}

// BenchmarkScatterGatherTopK measures the router's merged multi-source
// top-k at a realistic shard count — the scatter, per-shard fused batches,
// and the global merge.
func BenchmarkScatterGatherTopK(b *testing.B) {
	g, err := gen.PowerLaw(gen.PowerLawOptions{N: 5000, AvgDegree: 8, Gamma: 2.5, Seed: 11})
	if err != nil {
		b.Fatalf("PowerLaw: %v", err)
	}
	idx, err := core.BuildIndex(g, core.Options{Epsilon: 0.25, Seed: 7, SampleScale: 0.05})
	if err != nil {
		b.Fatalf("BuildIndex: %v", err)
	}
	s, err := newServed(Config{
		Shards: 4,
		Engine: engine.Options{Workers: 2, CacheSize: 0},
		Open:   indexOpener(idx),
	})
	if err != nil {
		b.Fatalf("newServed: %v", err)
	}
	sources := make([]int, 32)
	for i := range sources {
		sources[i] = (i * 157) % 5000
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top, err := s.TopKMerged(ctx, Request{NoCache: true}, sources, 10)
		if err != nil {
			b.Fatalf("TopKMerged: %v", err)
		}
		if len(top.Top) != 10 {
			b.Fatalf("got %d entries", len(top.Top))
		}
	}
}
