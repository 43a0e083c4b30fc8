package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"time"

	"prsim/internal/core"
	"prsim/internal/gen"
	"prsim/internal/graph"
)

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

// sameResult asserts two results are bit-identical: same source and exactly
// equal score maps (float equality, not tolerance).
func sameResult(t *testing.T, want, got *core.Result) {
	t.Helper()
	if want.Source != got.Source {
		t.Fatalf("source mismatch: %d vs %d", want.Source, got.Source)
	}
	if len(want.Scores) != len(got.Scores) {
		t.Fatalf("source %d: support size %d vs %d", want.Source, len(want.Scores), len(got.Scores))
	}
	for v, s := range want.Scores {
		if gs, ok := got.Scores[v]; !ok || gs != s {
			t.Fatalf("source %d node %d: score %v vs %v", want.Source, v, s, gs)
		}
	}
}

func TestQueryBatchMatchesSequential(t *testing.T) {
	idx := testIndex(t, 300)
	e, err := New(idx, Options{Workers: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sources := []int{0, 5, 17, 42, 5, 299, 0, 128}
	want := make([]*core.Result, len(sources))
	for i, u := range sources {
		res, err := idx.Query(u)
		if err != nil {
			t.Fatalf("Query(%d): %v", u, err)
		}
		want[i] = res
	}
	got, err := e.QueryBatch(context.Background(), sources)
	if err != nil {
		t.Fatalf("QueryBatch: %v", err)
	}
	if len(got) != len(sources) {
		t.Fatalf("QueryBatch returned %d results, want %d", len(got), len(sources))
	}
	for i := range sources {
		sameResult(t, want[i], got[i])
	}
}

func TestQueryIntoMatchesQuery(t *testing.T) {
	idx := testIndex(t, 200)
	var reused core.Result
	for _, u := range []int{3, 77, 3, 150} {
		want, err := idx.Query(u)
		if err != nil {
			t.Fatalf("Query(%d): %v", u, err)
		}
		if err := idx.QueryInto(u, &reused); err != nil {
			t.Fatalf("QueryInto(%d): %v", u, err)
		}
		sameResult(t, want, &reused)
	}
}

// TestConcurrentQueriesDeterministic hammers a shared index from many
// goroutines (run under -race in CI) and checks every result is bit-identical
// to its sequential counterpart: scheduling must not leak into the estimates.
func TestConcurrentQueriesDeterministic(t *testing.T) {
	idx := testIndex(t, 250)
	e, err := New(idx, Options{Workers: 8})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sources := make([]int, 40)
	for i := range sources {
		sources[i] = (i * 13) % 250
	}
	want := make([]*core.Result, len(sources))
	for i, u := range sources {
		res, err := idx.Query(u)
		if err != nil {
			t.Fatalf("Query(%d): %v", u, err)
		}
		want[i] = res
	}

	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, rounds*2)
	results := make([][]*core.Result, rounds)
	for r := 0; r < rounds; r++ {
		wg.Add(2)
		// Batched queries through the engine...
		go func(r int) {
			defer wg.Done()
			got, err := e.QueryBatch(context.Background(), sources)
			if err != nil {
				errs <- err
				return
			}
			results[r] = got
		}(r)
		// ...racing direct Index.Query calls on the same pooled state.
		go func(r int) {
			defer wg.Done()
			u := sources[r%len(sources)]
			if _, err := idx.Query(u); err != nil {
				errs <- err
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent query failed: %v", err)
	}
	for r := 0; r < rounds; r++ {
		for i := range sources {
			sameResult(t, want[i], results[r][i])
		}
	}
}

func TestQueryBatchRejectsBadSource(t *testing.T) {
	idx := testIndex(t, 100)
	e, err := New(idx, Options{Workers: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := e.QueryBatch(context.Background(), []int{1, 2, 500}); err == nil {
		t.Fatal("expected error for out-of-range source")
	}
	if _, err := e.QueryBatch(context.Background(), []int{-1}); err == nil {
		t.Fatal("expected error for negative source")
	}
}

func TestQueryBatchEmpty(t *testing.T) {
	idx := testIndex(t, 100)
	e, _ := New(idx, Options{})
	got, err := e.QueryBatch(context.Background(), nil)
	if err != nil {
		t.Fatalf("QueryBatch(nil): %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("QueryBatch(nil) returned %d results", len(got))
	}
}

func TestQueryCancelled(t *testing.T) {
	idx := testIndex(t, 100)
	e, _ := New(idx, Options{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Query(ctx, 0); err == nil {
		t.Fatal("expected error from cancelled context")
	}
	if _, err := e.QueryBatch(ctx, []int{0, 1, 2}); err == nil {
		t.Fatal("expected error from cancelled batch")
	}
	if _, err := e.Pair(ctx, 0, 1); err == nil {
		t.Fatal("expected error from cancelled pair query")
	}
	st := e.Stats()
	if st.Errors == 0 {
		t.Errorf("cancelled requests should count as errors, stats = %+v", st)
	}
}

func TestCacheHitsAndEviction(t *testing.T) {
	idx := testIndex(t, 150)
	e, err := New(idx, Options{Workers: 2, CacheSize: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx := context.Background()
	first, err := e.Query(ctx, 1)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	again, err := e.Query(ctx, 1)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if first != again {
		t.Error("second query should be served from cache (same *Result)")
	}
	st := e.Stats()
	if st.CacheHits != 1 {
		t.Errorf("CacheHits = %d, want 1", st.CacheHits)
	}
	// Fill past capacity; node 1 becomes LRU and is evicted.
	if _, err := e.Query(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(ctx, 3); err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if st.CacheEntries != 2 {
		t.Errorf("CacheEntries = %d, want 2", st.CacheEntries)
	}
	third, err := e.Query(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if third == first {
		t.Error("node 1 should have been evicted and recomputed")
	}
	sameResult(t, first, third)
}

func TestTopK(t *testing.T) {
	idx := testIndex(t, 150)
	e, _ := New(idx, Options{Workers: 2})
	top, g, err := e.TopK(context.Background(), 7, 5)
	if err != nil {
		t.Fatalf("TopK: %v", err)
	}
	if g != idx.Graph() {
		t.Errorf("TopK returned wrong graph")
	}
	if len(top) > 5 {
		t.Fatalf("TopK returned %d items", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Score > top[i-1].Score {
			t.Errorf("TopK not sorted: %+v", top)
		}
	}
	for _, s := range top {
		if s.Node == 7 {
			t.Error("TopK must exclude the source")
		}
	}
}

func TestPair(t *testing.T) {
	idx := testIndex(t, 150)
	e, _ := New(idx, Options{Workers: 2})
	s, err := e.Pair(context.Background(), 3, 3)
	if err != nil {
		t.Fatalf("Pair: %v", err)
	}
	if s != 1 {
		t.Errorf("s(3,3) = %v, want 1", s)
	}
	if _, err := e.Pair(context.Background(), 0, 1000); err == nil {
		t.Error("expected error for out-of-range pair node")
	}
	if got := e.Stats().PairQueries; got != 2 {
		t.Errorf("PairQueries = %d, want 2", got)
	}
}

// TestQueryBatchPureCancellationStillReported: when every failure is
// context-derived (nobody had a real error), the context error must still
// surface. The batch's computation waits for a held worker slot until its
// caller gives up.
func TestQueryBatchPureCancellationStillReported(t *testing.T) {
	idx := testIndex(t, 100)
	e, err := New(idx, Options{Workers: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	release := holdWorkers(t, e)
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := e.QueryBatch(ctx, []int{0, 1, 2})
		errc <- err
	}()
	waitFor(t, "the batch to wait for a worker", func() bool {
		return e.adm.depths()[ClassInteractive] == 1
	})
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("batch error = %v, want context.Canceled", err)
	}
}

// TestJoinerOutlivesCancelledLeader pins the hand-off after a leader's caller
// gives up: the requests that joined its flight — a Do and an entry of a
// DoBatchEach that also leads another source — are classified again instead
// of inheriting the cancellation, one of them leads a fresh computation, and
// both answer with the bits of a direct query.
func TestJoinerOutlivesCancelledLeader(t *testing.T) {
	idx := testIndex(t, 200)
	e, err := New(idx, Options{Workers: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const u, v = 7, 8
	release := holdWorkers(t, e)

	leadCtx, cancelLead := context.WithCancel(context.Background())
	defer cancelLead()
	leadErr := make(chan error, 1)
	go func() {
		_, err := e.Do(leadCtx, Request{Source: u})
		leadErr <- err
	}()
	waitFor(t, "the leader to wait for a worker", func() bool {
		return e.adm.depths()[ClassInteractive] == 1
	})

	ctx := context.Background()
	var (
		wg              sync.WaitGroup
		doResp          *Response
		batchResps      []*Response
		doErr, batchErr error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		doResp, doErr = e.Do(ctx, Request{Source: u})
	}()
	go func() {
		defer wg.Done()
		batchResps, batchErr = e.DoBatchEach(ctx, []Request{{Source: u}, {Source: v}})
	}()
	waitFor(t, "both joiners to join the leader's flight", func() bool {
		return e.coalesced.Load() == 2
	})

	cancelLead()
	if err := <-leadErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error = %v, want context.Canceled", err)
	}
	release()
	wg.Wait()
	if doErr != nil || batchErr != nil {
		t.Fatalf("joiners failed after the leader gave up: Do=%v DoBatchEach=%v", doErr, batchErr)
	}
	for _, c := range []struct {
		src  int
		resp *Response
	}{{u, doResp}, {u, batchResps[0]}, {v, batchResps[1]}} {
		want, err := idx.Query(c.src)
		if err != nil {
			t.Fatalf("Query(%d): %v", c.src, err)
		}
		sameResult(t, want, c.resp.Result)
	}
	if got := e.Stats().Errors; got != 1 {
		t.Fatalf("Errors = %d, want 1 (the cancelled leader only)", got)
	}
}

// fakeResource counts retains and releases and can be flipped closed,
// standing in for a snapshot backing.
type fakeResource struct {
	retains  atomic.Int64
	releases atomic.Int64
	closed   atomic.Bool
}

func (f *fakeResource) Retain() bool {
	if f.closed.Load() {
		return false
	}
	f.retains.Add(1)
	return true
}

func (f *fakeResource) Release() { f.releases.Add(1) }

// TestSwapGenerationAndCache checks the hot-swap seam: the generation
// increments, the old generation's cache entries never serve the new index,
// and queries flow to the new index immediately.
func TestSwapGenerationAndCache(t *testing.T) {
	idxA := testIndex(t, 150)
	idxB := testIndex(t, 150)
	e, err := New(idxA, Options{Workers: 2, CacheSize: 8})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx := context.Background()
	a1, err := e.Query(ctx, 3)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	a2, err := e.Query(ctx, 3)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if a1 != a2 {
		t.Fatal("expected cache hit before swap")
	}
	if g := e.Generation(); g != 0 {
		t.Fatalf("Generation = %d before swap, want 0", g)
	}

	if err := e.Swap(idxB, nil); err != nil {
		t.Fatalf("Swap: %v", err)
	}
	if g := e.Generation(); g != 1 {
		t.Fatalf("Generation = %d after swap, want 1", g)
	}
	if e.Index() != idxB {
		t.Fatal("Index() still returns the old index after Swap")
	}
	b1, err := e.Query(ctx, 3)
	if err != nil {
		t.Fatalf("Query after swap: %v", err)
	}
	if b1 == a1 {
		t.Fatal("cache served a result computed against the swapped-out index")
	}
	st := e.Stats()
	if st.Swaps != 1 || st.Generation != 1 {
		t.Errorf("Stats swaps/generation = %d/%d, want 1/1", st.Swaps, st.Generation)
	}
	if err := e.Swap(nil, nil); err == nil {
		t.Error("Swap(nil) should fail")
	}
}

// TestSwapRetainsResourcePerQuery checks the refcount choreography: every
// query retains/releases the slot's resource exactly once, swapped-out
// resources stop being retained, and a closed current resource surfaces
// ErrIndexClosed instead of a dead handle.
func TestSwapRetainsResourcePerQuery(t *testing.T) {
	idxA := testIndex(t, 100)
	idxB := testIndex(t, 100)
	resA, resB := &fakeResource{}, &fakeResource{}
	e, err := New(idxA, Options{Workers: 2, Resource: resA})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := e.Query(ctx, i); err != nil {
			t.Fatalf("Query: %v", err)
		}
	}
	if _, err := e.QueryBatch(ctx, []int{0, 1, 2, 3}); err != nil {
		t.Fatalf("QueryBatch: %v", err)
	}
	if _, err := e.Pair(ctx, 0, 1); err != nil {
		t.Fatalf("Pair: %v", err)
	}
	if r, rel := resA.retains.Load(), resA.releases.Load(); r != rel || r == 0 {
		t.Fatalf("resource A retains/releases = %d/%d, want equal and non-zero", r, rel)
	}

	if err := e.Swap(idxB, resB); err != nil {
		t.Fatalf("Swap: %v", err)
	}
	before := resA.retains.Load()
	if _, err := e.Query(ctx, 5); err != nil {
		t.Fatalf("Query after swap: %v", err)
	}
	if resA.retains.Load() != before {
		t.Error("swapped-out resource still being retained by new queries")
	}
	if r, rel := resB.retains.Load(), resB.releases.Load(); r != rel || r == 0 {
		t.Fatalf("resource B retains/releases = %d/%d, want equal and non-zero", r, rel)
	}

	// Closing the *current* backing without a replacement must error cleanly.
	resB.closed.Store(true)
	if _, err := e.Query(ctx, 1); !errors.Is(err, ErrIndexClosed) {
		t.Fatalf("Query on closed backing = %v, want ErrIndexClosed", err)
	}
	if _, err := e.QueryBatch(ctx, []int{1}); !errors.Is(err, ErrIndexClosed) {
		t.Fatalf("QueryBatch on closed backing = %v, want ErrIndexClosed", err)
	}
	if _, err := e.Pair(ctx, 0, 1); !errors.Is(err, ErrIndexClosed) {
		t.Fatalf("Pair on closed backing = %v, want ErrIndexClosed", err)
	}
}

// TestSwapUnderLoad hammers queries while swapping between two indexes (run
// under -race in CI): every query must succeed against whichever index it
// acquired, and resource retains must balance releases when the dust
// settles.
func TestSwapUnderLoad(t *testing.T) {
	idxA := testIndex(t, 120)
	idxB := testIndex(t, 120)
	resA, resB := &fakeResource{}, &fakeResource{}
	e, err := New(idxA, Options{Workers: 4, CacheSize: 16, Resource: resA})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := e.Query(ctx, (w*31+i)%120); err != nil {
					t.Errorf("query during swaps: %v", err)
					return
				}
			}
		}(w)
	}
	for s := 0; s < 20; s++ {
		idx, res := idxB, resB
		if s%2 == 1 {
			idx, res = idxA, resA
		}
		if err := e.Swap(idx, res); err != nil {
			t.Fatalf("Swap %d: %v", s, err)
		}
	}
	close(stop)
	wg.Wait()
	if r, rel := resA.retains.Load(), resA.releases.Load(); r != rel {
		t.Errorf("resource A retains/releases = %d/%d after drain", r, rel)
	}
	if r, rel := resB.retains.Load(), resB.releases.Load(); r != rel {
		t.Errorf("resource B retains/releases = %d/%d after drain", r, rel)
	}
	if g := e.Generation(); g != 20 {
		t.Errorf("Generation = %d, want 20", g)
	}
}

// TestCachedResultSharedReadOnly locks in the "cached results are shared,
// treat as read-only" contract: many goroutines run the read-side accessors
// (TopK, AsSlice, Score) against the same cached *Result while other
// goroutines keep hitting the cache for it. Run under -race in CI.
func TestCachedResultSharedReadOnly(t *testing.T) {
	idx := testIndex(t, 150)
	e, err := New(idx, Options{Workers: 4, CacheSize: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx := context.Background()
	shared, err := e.Query(ctx, 9)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	n := idx.Graph().N()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				top := shared.TopK(5 + w%3)
				for j := 1; j < len(top); j++ {
					if top[j].Score > top[j-1].Score {
						t.Errorf("TopK unsorted on shared result")
						return
					}
				}
				vec := shared.AsSlice(n)
				if len(vec) != n {
					t.Errorf("AsSlice length %d, want %d", len(vec), n)
					return
				}
				if s := shared.Score(shared.Source); s != 1 {
					t.Errorf("self-score = %v, want 1", s)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				got, err := e.Query(ctx, 9)
				if err != nil {
					t.Errorf("cached query: %v", err)
					return
				}
				if got != shared {
					t.Errorf("cache returned a different result mid-run")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Fatal("New(nil) should fail")
	}
	g := graph.MustFromEdges(2, []graph.Edge{{From: 0, To: 1}})
	idx, err := core.BuildIndex(g, core.Options{Epsilon: 0.3})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	e, err := New(idx, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if e.Workers() < 1 {
		t.Errorf("default Workers = %d, want >= 1", e.Workers())
	}
}

// TestDoCoalescesIdenticalRequests is the acceptance test for single-flight
// coalescing: 64 concurrent identical uncached requests must trigger exactly
// one underlying computation. Every worker slot is held, so the leader waits
// in the admission queue with its flight registered until every other caller
// has joined it, making the count deterministic instead of racing on
// goroutine startup. Run under -race.
func TestDoCoalescesIdenticalRequests(t *testing.T) {
	idx := testIndex(t, 200)
	// No cache: the dedupe must come from coalescing alone.
	e, err := New(idx, Options{Workers: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const callers = 64
	release := holdWorkers(t, e)

	var wg sync.WaitGroup
	resps := make([]*Response, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = e.Do(context.Background(), Request{Source: 7})
		}(i)
	}
	// Joiners increment the coalesced counter at registration time; any
	// caller that led a computation of its own would queue for a worker.
	waitFor(t, "every other caller to join the queued leader", func() bool {
		return e.coalesced.Load() == callers-1 && e.adm.depths()[ClassInteractive] >= 1
	})
	if d := e.adm.depths(); d != [numClasses]int{1, 0} {
		t.Fatalf("queue depths = %v with %d joiners, want exactly one queued computation", d, callers-1)
	}
	release()
	wg.Wait()

	var shared, leaders int
	for i := range resps {
		if errs[i] != nil {
			t.Fatalf("caller %d failed: %v", i, errs[i])
		}
		if resps[i].Result == nil {
			t.Fatalf("caller %d got nil result", i)
		}
		if resps[i].Coalesced {
			shared++
		} else {
			leaders++
		}
		if resps[i].Result != resps[0].Result {
			t.Fatalf("caller %d got a different result object", i)
		}
	}
	if leaders != 1 || shared != callers-1 {
		t.Fatalf("leaders/joiners = %d/%d, want 1/%d", leaders, shared, callers-1)
	}
	st := e.Stats()
	if st.Queries != callers || st.Coalesced != callers-1 {
		t.Fatalf("stats queries/coalesced = %d/%d, want %d/%d", st.Queries, st.Coalesced, callers, callers-1)
	}
	if want := int64(resps[0].Result.Stats.RoundsBudget); st.RoundsBudget != want {
		t.Fatalf("RoundsBudget = %d, want %d: exactly one underlying computation", st.RoundsBudget, want)
	}
}

// holdWorkers occupies every worker slot of e, as that many running
// computations would, so the next leader registers its flight and then waits
// in the admission queue: a window in which a test can join, cancel, or shed
// requests deterministically. The returned func frees the slots; it also runs
// at cleanup, so a failing test does not strand parked requests.
func holdWorkers(t *testing.T, e *Engine) (release func()) {
	t.Helper()
	if got := e.grabExtras(e.workers); got != e.workers {
		t.Fatalf("held %d of %d worker slots; the pool was not idle", got, e.workers)
	}
	var once sync.Once
	release = func() { once.Do(func() { e.releaseExtras(e.workers) }) }
	t.Cleanup(release)
	return release
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDoShedsWhenQueueFull pins admission control: with one worker and one
// queue slot, the third distinct concurrent request must be shed immediately
// with ErrOverloaded and no partial result, while the queued request
// completes once the worker frees up. The first request is a held worker
// slot. Run under -race.
func TestDoShedsWhenQueueFull(t *testing.T) {
	idx := testIndex(t, 100)
	e, err := New(idx, Options{Workers: 1, MaxQueue: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if e.MaxQueue() != 1 {
		t.Fatalf("MaxQueue = %d, want 1", e.MaxQueue())
	}
	release := holdWorkers(t, e) // A occupies the only worker slot
	ctx := context.Background()
	var wg sync.WaitGroup
	var errB error
	wg.Add(1)
	go func() { // B takes the only queue slot
		defer wg.Done()
		_, errB = e.Do(ctx, Request{Source: 1})
	}()
	waitFor(t, "request B to enter the admission queue", func() bool {
		return e.adm.depths()[ClassInteractive] == 1
	})

	// C finds the worker busy and the queue full: shed, immediately.
	resp, err := e.Do(ctx, Request{Source: 2})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third request error = %v, want ErrOverloaded", err)
	}
	if resp != nil {
		t.Fatalf("shed request returned a response: %+v", resp)
	}
	if st := e.Stats(); st.Shed != 1 {
		t.Fatalf("Shed = %d, want 1", st.Shed)
	}

	release()
	wg.Wait()
	if errB != nil {
		t.Fatalf("queued request failed: B=%v", errB)
	}
	if st := e.Stats(); st.QueueDepth != 0 {
		t.Fatalf("QueueDepth = %d after drain, want 0", st.QueueDepth)
	}
}

// TestSwapKeepsCacheForIdenticalGraph pins reload-aware cache reuse: when
// the incoming index serves a structurally identical graph (equal checksum)
// with query-equivalent options, Swap re-keys the cache instead of purging
// it, the kept entries answer as cache hits, and their results are rebound
// to the new generation's graph object.
func TestSwapKeepsCacheForIdenticalGraph(t *testing.T) {
	// Two separately generated (distinct objects, identical content) graphs.
	gA, err := gen.PowerLaw(gen.PowerLawOptions{N: 200, AvgDegree: 6, Gamma: 2.5, Seed: 11})
	if err != nil {
		t.Fatalf("PowerLaw: %v", err)
	}
	gB, err := gen.PowerLaw(gen.PowerLawOptions{N: 200, AvgDegree: 6, Gamma: 2.5, Seed: 11})
	if err != nil {
		t.Fatalf("PowerLaw: %v", err)
	}
	opts := core.Options{Epsilon: 0.25, Seed: 7, SampleScale: 0.05}
	idxA, err := core.BuildIndex(gA, opts)
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	idxB, err := core.BuildIndex(gB, opts)
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	if gA.Checksum() != gB.Checksum() {
		t.Fatalf("identically generated graphs have different checksums")
	}
	e, err := New(idxA, Options{Workers: 2, CacheSize: 8})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx := context.Background()
	before, err := e.Query(ctx, 3)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if err := e.Swap(idxB, nil); err != nil {
		t.Fatalf("Swap: %v", err)
	}
	st := e.Stats()
	if st.CacheReuses != 1 {
		t.Fatalf("CacheReuses = %d, want 1", st.CacheReuses)
	}
	if st.CacheEntries != 1 {
		t.Fatalf("CacheEntries = %d after same-graph swap, want 1 (kept)", st.CacheEntries)
	}
	after, err := e.Query(ctx, 3)
	if err != nil {
		t.Fatalf("Query after swap: %v", err)
	}
	if got := e.Stats().CacheHits; got != 1 {
		t.Fatalf("CacheHits = %d after same-graph swap, want 1 (kept entry must answer)", got)
	}
	sameResult(t, before, after)
	if after.Graph() != gB {
		t.Errorf("kept result still bound to the old graph object")
	}
	if before.Graph() != gA {
		t.Errorf("original result mutated by the rekey; rebinding must copy")
	}
}

// TestSwapPurgesCacheForDifferentGraph is the counterpart: a structurally
// different graph (or different build options) must purge the cache exactly
// as before.
func TestSwapPurgesCacheForDifferentGraph(t *testing.T) {
	idxA := testIndex(t, 150)
	gB, err := gen.PowerLaw(gen.PowerLawOptions{N: 150, AvgDegree: 6, Gamma: 2.5, Seed: 99})
	if err != nil {
		t.Fatalf("PowerLaw: %v", err)
	}
	idxB, err := core.BuildIndex(gB, core.Options{Epsilon: 0.25, Seed: 7, SampleScale: 0.05})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	e, err := New(idxA, Options{Workers: 2, CacheSize: 8})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx := context.Background()
	if _, err := e.Query(ctx, 3); err != nil {
		t.Fatalf("Query: %v", err)
	}
	if err := e.Swap(idxB, nil); err != nil {
		t.Fatalf("Swap: %v", err)
	}
	st := e.Stats()
	if st.CacheReuses != 0 {
		t.Fatalf("CacheReuses = %d for different graph, want 0", st.CacheReuses)
	}
	if st.CacheEntries != 0 {
		t.Fatalf("CacheEntries = %d after different-graph swap, want 0 (purged)", st.CacheEntries)
	}
	if _, err := e.Query(ctx, 3); err != nil {
		t.Fatalf("Query after swap: %v", err)
	}
	if got := e.Stats().CacheHits; got != 0 {
		t.Fatalf("CacheHits = %d after purge, want 0", got)
	}

	// Same graph but different options must also purge.
	idxC, err := core.BuildIndex(gB, core.Options{Epsilon: 0.25, Seed: 8, SampleScale: 0.05})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	if err := e.Swap(idxC, nil); err != nil {
		t.Fatalf("Swap: %v", err)
	}
	if st := e.Stats(); st.CacheReuses != 0 || st.CacheEntries != 0 {
		t.Fatalf("different-seed swap kept the cache: %+v", st)
	}
}

// TestDoPerRequestEpsilon exercises the epsilon half of the request plane at
// the engine layer: coarser requests run fewer walks and cache under their
// own key, clamped requests share the build-epsilon entry, and invalid
// epsilons are rejected up front.
func TestDoPerRequestEpsilon(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawOptions{N: 300, AvgDegree: 6, Gamma: 2.5, Seed: 11})
	if err != nil {
		t.Fatalf("PowerLaw: %v", err)
	}
	// Build epsilon small enough that 4x stays inside (0,1).
	idx, err := core.BuildIndex(g, core.Options{Epsilon: 0.15, Seed: 7, SampleScale: 0.05})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	build := idx.Options().Epsilon
	e, err := New(idx, Options{Workers: 2, CacheSize: 8})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx := context.Background()
	def, err := e.Do(ctx, Request{Source: 5})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if def.Epsilon != build || def.Clamped {
		t.Fatalf("default request epsilon/clamped = %v/%v, want %v/false", def.Epsilon, def.Clamped, build)
	}
	coarse, err := e.Do(ctx, Request{Source: 5, Epsilon: 4 * build})
	if err != nil {
		t.Fatalf("Do coarse: %v", err)
	}
	if coarse.CacheHit {
		t.Fatal("coarse request hit the default-epsilon cache entry")
	}
	if coarse.Epsilon != 4*build {
		t.Fatalf("coarse effective epsilon = %v, want %v", coarse.Epsilon, 4*build)
	}
	if cw, dw := coarse.Result.Stats.Walks, def.Result.Stats.Walks; cw >= dw {
		t.Fatalf("coarse request sampled %d walks, want fewer than default's %d", cw, dw)
	}
	if e.Stats().CacheEntries != 2 {
		t.Fatalf("CacheEntries = %d, want 2 (one per accuracy tier)", e.Stats().CacheEntries)
	}

	// A request below the build epsilon is clamped and shares the
	// build-epsilon cache entry.
	clamped, err := e.Do(ctx, Request{Source: 5, Epsilon: build / 2})
	if err != nil {
		t.Fatalf("Do clamped: %v", err)
	}
	if !clamped.Clamped || clamped.Epsilon != build {
		t.Fatalf("clamped epsilon/flag = %v/%v, want %v/true", clamped.Epsilon, clamped.Clamped, build)
	}
	if !clamped.CacheHit || clamped.Result != def.Result {
		t.Fatal("clamped request must share the build-epsilon cache entry")
	}

	for _, bad := range []float64{-0.1, 1, 1.5} {
		if _, err := e.Do(ctx, Request{Source: 5, Epsilon: bad}); !errors.Is(err, core.ErrInvalidEpsilon) {
			t.Errorf("Do(epsilon=%v) error = %v, want ErrInvalidEpsilon", bad, err)
		}
	}
}

// TestDoTopKPooledAndCoalesced checks the pooled top-k path still holds
// under the request plane: a cacheless engine answers K>0 requests without
// exposing a Result, and a full-result request coalescing onto it still gets
// the full scores.
func TestDoTopKPooledAndCoalesced(t *testing.T) {
	idx := testIndex(t, 150)
	e, err := New(idx, Options{Workers: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx := context.Background()
	resp, err := e.Do(ctx, Request{Source: 7, K: 5})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if resp.Result != nil {
		t.Fatal("cacheless top-k request leaked its pooled result")
	}
	if len(resp.Top) == 0 || len(resp.Top) > 5 {
		t.Fatalf("Top has %d entries", len(resp.Top))
	}
	if resp.Graph != idx.Graph() {
		t.Fatal("Top-k response bound to the wrong graph")
	}
	want, err := idx.Query(7)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	wantTop := want.TopK(5)
	for i := range wantTop {
		if resp.Top[i] != wantTop[i] {
			t.Fatalf("Top[%d] = %+v, want %+v", i, resp.Top[i], wantTop[i])
		}
	}
}
