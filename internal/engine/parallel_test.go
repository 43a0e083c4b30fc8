package engine

import (
	"context"
	"testing"

	"prsim/internal/core"
	"prsim/internal/gen"
)

// parallelEngineIndex builds an index whose queries span several walk chunks,
// so intra-query parallelism actually has work to split.
func parallelEngineIndex(t testing.TB) *core.Index {
	t.Helper()
	g, err := gen.PowerLaw(gen.PowerLawOptions{N: 800, AvgDegree: 6, Gamma: 2.5, Seed: 11})
	if err != nil {
		t.Fatalf("PowerLaw: %v", err)
	}
	idx, err := core.BuildIndex(g, core.Options{Epsilon: 0.2, Seed: 7, SampleScale: 0.5})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	return idx
}

// TestDoBatchDuplicateSourcesShareResult pins the fused batch's duplicate
// handling: repeated sources in one batch share the leader's Result object —
// byte-identical entries by construction — and report Coalesced, counted in
// the engine's coalesced stat.
func TestDoBatchDuplicateSourcesShareResult(t *testing.T) {
	idx := parallelEngineIndex(t)
	e, err := New(idx, Options{Workers: 4, CacheSize: 8})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	resps, err := e.DoBatch(context.Background(), Request{}, []int{3, 9, 3})
	if err != nil {
		t.Fatalf("DoBatch: %v", err)
	}
	if resps[0].Result == nil || resps[2].Result == nil {
		t.Fatal("batch entries missing results")
	}
	if resps[0].Result != resps[2].Result {
		t.Fatal("duplicate sources did not share one Result")
	}
	if resps[0].Coalesced {
		t.Fatal("batch leader reported Coalesced")
	}
	if !resps[2].Coalesced {
		t.Fatal("duplicate entry did not report Coalesced")
	}
	st := e.Stats()
	if st.Queries != 3 {
		t.Fatalf("Queries = %d, want 3 (dups count as requests)", st.Queries)
	}
	if st.Coalesced < 1 {
		t.Fatalf("Coalesced = %d, want >= 1", st.Coalesced)
	}
	// The shared result must match an independent computation bit for bit.
	var solo core.Result
	if err := idx.QueryIntoOpts(context.Background(), 3, &solo, core.QueryOptions{}); err != nil {
		t.Fatalf("solo query: %v", err)
	}
	sameResult(t, &solo, resps[2].Result)
}

// TestDoBatchParallelismStats pins the fused batch's parallelism accounting:
// with idle workers the batch fans out across its sources (reported in each
// result's Stats.Parallelism), the whole computation counts once in
// ParallelQueries, and the chunk counters balance and survive a hot swap.
func TestDoBatchParallelismStats(t *testing.T) {
	idx := parallelEngineIndex(t)
	e, err := New(idx, Options{Workers: 4, CacheSize: 0})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	resps, err := e.DoBatch(context.Background(), Request{}, []int{2, 5, 8, 11})
	if err != nil {
		t.Fatalf("DoBatch: %v", err)
	}
	for i, r := range resps {
		// Four leaders on four idle workers: the reservation is capped at the
		// leader count, not one query's chunk count, and the fan-out engages.
		if got := r.Result.Stats.Parallelism; got != 4 {
			t.Fatalf("entry %d: Stats.Parallelism = %d, want 4", i, got)
		}
	}
	st := e.Stats()
	if st.ParallelQueries != 1 {
		t.Fatalf("ParallelQueries = %d, want 1 (one fused computation)", st.ParallelQueries)
	}
	if st.ChunksExecuted == 0 || st.ChunksExecuted != st.ChunksMerged {
		t.Fatalf("chunk counters executed=%d merged=%d", st.ChunksExecuted, st.ChunksMerged)
	}

	// The counters belong to the engine, not the index, so a hot swap leaves
	// the totals monotonic.
	if err := e.Swap(parallelEngineIndex(t), nil); err != nil {
		t.Fatalf("Swap: %v", err)
	}
	if _, err := query(context.Background(), e, 3); err != nil {
		t.Fatalf("post-swap query: %v", err)
	}
	st2 := e.Stats()
	if st2.ChunksExecuted <= st.ChunksExecuted || st2.ChunksExecuted != st2.ChunksMerged {
		t.Fatalf("post-swap counters executed %d -> %d, merged %d",
			st.ChunksExecuted, st2.ChunksExecuted, st2.ChunksMerged)
	}
}

// gateResource parks the query that retains it until the gate opens, so a
// test can land a Swap between a query taking its slot and its computation.
type gateResource struct {
	entered chan struct{}
	gate    chan struct{}
}

func (g *gateResource) Retain() bool {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.gate
	return true
}

func (g *gateResource) Release() {}

// TestChunkCountersAcrossSwap pins that a computation's chunks count on the
// engine that ran it, whichever index generation it ran on: a query that
// retained the old backing before a Swap and computed after it must show up
// as executed and merged, not vanish with the swapped-out index.
func TestChunkCountersAcrossSwap(t *testing.T) {
	gr := &gateResource{entered: make(chan struct{}, 1), gate: make(chan struct{})}
	e, err := New(parallelEngineIndex(t), Options{Workers: 2, Resource: gr})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	type answer struct {
		res *core.Result
		err error
	}
	done := make(chan answer, 1)
	go func() {
		res, err := query(context.Background(), e, 3)
		done <- answer{res, err}
	}()
	<-gr.entered
	if err := e.Swap(parallelEngineIndex(t), nil); err != nil {
		t.Fatalf("Swap: %v", err)
	}
	close(gr.gate)
	a := <-done
	if a.err != nil {
		t.Fatalf("query: %v", a.err)
	}
	st := e.Stats()
	if want := int64(a.res.Stats.Chunks); want == 0 || st.ChunksExecuted != want || st.ChunksMerged != want {
		t.Fatalf("counters executed=%d merged=%d, want both %d", st.ChunksExecuted, st.ChunksMerged, want)
	}
}

// TestParallelReservationNeverStarves pins the borrow-only slot discipline:
// a query asking for more parallelism than the pool has idle capacity gets
// exactly the idle slots (never queueing its chunks behind other requests),
// and the hint is otherwise honored up to the worker bound.
func TestParallelReservationNeverStarves(t *testing.T) {
	idx := parallelEngineIndex(t)
	e, err := New(idx, Options{Workers: 4, CacheSize: 0})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx := context.Background()

	// Occupy three of the four worker slots, as three busy requests would.
	for i := 0; i < 3; i++ {
		if !e.adm.tryAcquire() {
			t.Fatal("could not occupy an idle worker slot")
		}
	}
	resp, err := e.Do(ctx, Request{Source: 5, Parallelism: 8})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if resp.Result.Stats.Chunks < 2 {
		t.Fatalf("query ran %d chunks; the test needs several", resp.Result.Stats.Chunks)
	}
	// Admission took the last slot; with zero idle capacity the walk must run
	// serial rather than wait for the busy workers.
	if got := resp.Result.Stats.Parallelism; got != 1 {
		t.Fatalf("saturated pool: parallelism %d, want 1", got)
	}

	// Free one slot: the next request may borrow exactly it and no more.
	e.adm.release()
	resp, err = e.Do(ctx, Request{Source: 6, Parallelism: 8})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if got := resp.Result.Stats.Parallelism; got != 2 {
		t.Fatalf("one idle slot: parallelism %d, want 2", got)
	}
	for i := 0; i < 2; i++ {
		e.adm.release()
	}

	// Idle pool: the hint is clamped to the worker count (and chunk count).
	resp, err = e.Do(ctx, Request{Source: 7, Parallelism: 8})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	want := e.Workers()
	if mc := resp.Result.Stats.Chunks; mc < want {
		want = mc
	}
	if got := resp.Result.Stats.Parallelism; got != want {
		t.Fatalf("idle pool: parallelism %d, want %d", got, want)
	}

	st := e.Stats()
	if st.ChunksExecuted != st.ChunksMerged {
		t.Fatalf("chunks executed %d != merged %d (lost work)", st.ChunksExecuted, st.ChunksMerged)
	}
	if st.ChunksExecuted == 0 {
		t.Fatal("no chunks counted")
	}
	if st.ParallelQueries != 2 {
		t.Fatalf("ParallelQueries = %d, want 2", st.ParallelQueries)
	}
}
