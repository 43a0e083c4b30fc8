package engine

import (
	"context"
	"testing"

	"prsim/internal/core"
)

// TestAdaptiveOffEngineBitParity pins the engine's Adaptive=off (and
// unset-mode, default-off) requests to the fixed-budget path: bit-identical
// to a direct core query.
func TestAdaptiveOffEngineBitParity(t *testing.T) {
	idx := testIndex(t, 300)
	e, err := New(idx, Options{Workers: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx := context.Background()
	for _, u := range []int{0, 42, 299} {
		want, err := idx.Query(u)
		if err != nil {
			t.Fatalf("Query(%d): %v", u, err)
		}
		for _, mode := range []AdaptiveMode{AdaptiveAuto, AdaptiveOff} {
			resp, err := e.Do(ctx, Request{Source: u, Adaptive: mode, NoCache: true})
			if err != nil {
				t.Fatalf("Do(%d, mode %d): %v", u, mode, err)
			}
			sameResult(t, want, resp.Result)
			if resp.ServedFromTighter {
				t.Fatalf("source %d mode %d: fixed-budget request ServedFromTighter", u, mode)
			}
			if resp.EpsilonServed != resp.Epsilon {
				t.Fatalf("source %d mode %d: EpsilonServed %v != Epsilon %v", u, mode, resp.EpsilonServed, resp.Epsilon)
			}
		}
	}
}

// TestAdaptiveDefaultResolution checks AdaptiveAuto follows the engine
// option while explicit modes override it in both directions.
func TestAdaptiveDefaultResolution(t *testing.T) {
	idx := testIndex(t, 200)
	on, err := New(idx, Options{AdaptiveDefault: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	off, err := New(idx, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if !on.resolveAdaptive(AdaptiveAuto) || on.resolveAdaptive(AdaptiveOff) || !on.resolveAdaptive(AdaptiveOn) {
		t.Fatalf("AdaptiveDefault=true resolution wrong")
	}
	if off.resolveAdaptive(AdaptiveAuto) || off.resolveAdaptive(AdaptiveOff) || !off.resolveAdaptive(AdaptiveOn) {
		t.Fatalf("AdaptiveDefault=false resolution wrong")
	}
}

// TestRangeCoalescingCache exercises the cache half of range coalescing: an
// adaptive request is satisfied by a cached tighter-epsilon computation,
// reported with the *requested* epsilon semantics plus ServedFromTighter and
// the serving epsilon — while a non-adaptive request at the same loose
// epsilon recomputes (exact identity only).
func TestRangeCoalescingCache(t *testing.T) {
	idx := testIndex(t, 300)
	e, err := New(idx, Options{Workers: 2, CacheSize: 16})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx := context.Background()
	const u = 17

	tight, err := e.Do(ctx, Request{Source: u, Epsilon: 0.3, Adaptive: AdaptiveOn})
	if err != nil {
		t.Fatalf("tight Do: %v", err)
	}
	if tight.CacheHit || tight.ServedFromTighter {
		t.Fatalf("first request reported CacheHit=%v ServedFromTighter=%v", tight.CacheHit, tight.ServedFromTighter)
	}

	loose, err := e.Do(ctx, Request{Source: u, Epsilon: 0.6, Adaptive: AdaptiveOn})
	if err != nil {
		t.Fatalf("loose Do: %v", err)
	}
	if !loose.CacheHit || !loose.ServedFromTighter {
		t.Fatalf("loose adaptive request: CacheHit=%v ServedFromTighter=%v, want range-coalesced cache hit",
			loose.CacheHit, loose.ServedFromTighter)
	}
	if loose.Epsilon != 0.6 {
		t.Fatalf("loose request Epsilon %v, want requested 0.6", loose.Epsilon)
	}
	if loose.EpsilonServed != 0.3 {
		t.Fatalf("loose request EpsilonServed %v, want serving 0.3", loose.EpsilonServed)
	}
	if loose.Result != tight.Result {
		t.Fatalf("range-coalesced request did not share the tighter Result")
	}
	if got := e.Stats().RangeCoalesced; got != 1 {
		t.Fatalf("RangeCoalesced = %d, want 1", got)
	}

	// Same loose epsilon, adaptive off: must NOT be satisfied by the tighter
	// entry (bit-parity demands the exact fixed-budget computation).
	fixed, err := e.Do(ctx, Request{Source: u, Epsilon: 0.6})
	if err != nil {
		t.Fatalf("fixed Do: %v", err)
	}
	if fixed.CacheHit || fixed.ServedFromTighter {
		t.Fatalf("non-adaptive request range-matched: CacheHit=%v ServedFromTighter=%v", fixed.CacheHit, fixed.ServedFromTighter)
	}
	want, err := idx.QueryOpts(ctx, u, core.QueryOptions{Epsilon: 0.6})
	if err != nil {
		t.Fatalf("QueryOpts: %v", err)
	}
	sameResult(t, want, fixed.Result)

	// An adaptive request at an epsilon tighter than anything cached leads
	// its own computation.
	tighter, err := e.Do(ctx, Request{Source: u, Epsilon: 0.28, Adaptive: AdaptiveOn})
	if err != nil {
		t.Fatalf("tighter Do: %v", err)
	}
	if tighter.CacheHit || tighter.ServedFromTighter {
		t.Fatalf("tighter request was served from a looser entry: CacheHit=%v ServedFromTighter=%v",
			tighter.CacheHit, tighter.ServedFromTighter)
	}
}

// TestRangeCoalescingPrefersTightest checks the deterministic pick among
// several satisfying cache entries: smallest epsilon wins, and at equal
// epsilon the fixed-budget entry is preferred over the adaptive one.
func TestRangeCoalescingPrefersTightest(t *testing.T) {
	idx := testIndex(t, 300)
	e, err := New(idx, Options{Workers: 2, CacheSize: 16})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx := context.Background()
	const u = 42
	for _, r := range []Request{
		{Source: u, Epsilon: 0.5, Adaptive: AdaptiveOn},
		{Source: u, Epsilon: 0.4},
		{Source: u, Epsilon: 0.4, Adaptive: AdaptiveOn},
	} {
		if _, err := e.Do(ctx, r); err != nil {
			t.Fatalf("seed Do(%+v): %v", r, err)
		}
	}
	resp, err := e.Do(ctx, Request{Source: u, Epsilon: 0.7, Adaptive: AdaptiveOn})
	if err != nil {
		t.Fatalf("loose Do: %v", err)
	}
	if !resp.ServedFromTighter || resp.EpsilonServed != 0.4 {
		t.Fatalf("ServedFromTighter=%v EpsilonServed=%v, want tightest 0.4", resp.ServedFromTighter, resp.EpsilonServed)
	}
	// The fixed-budget 0.4 entry must be the one served (deterministic
	// tie-break): its bits are the fixed path's.
	want, err := idx.QueryOpts(ctx, u, core.QueryOptions{Epsilon: 0.4})
	if err != nil {
		t.Fatalf("QueryOpts: %v", err)
	}
	sameResult(t, want, resp.Result)
}

// TestRangeCoalescingFlightJoin exercises the in-flight half: a loose
// adaptive request joins a tighter computation already in flight instead of
// starting its own. Every worker slot is held, so the tighter leader waits in
// the admission queue with its flight registered and the join window is
// deterministic.
func TestRangeCoalescingFlightJoin(t *testing.T) {
	idx := testIndex(t, 300)
	e, err := New(idx, Options{Workers: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const u = 7
	release := holdWorkers(t, e)
	ctx := context.Background()

	leadDone := make(chan *Response, 1)
	leadErr := make(chan error, 1)
	go func() {
		resp, err := e.Do(ctx, Request{Source: u, Epsilon: 0.3, Adaptive: AdaptiveOn})
		leadErr <- err
		leadDone <- resp
	}()
	waitFor(t, "the tight leader to wait for a worker", func() bool {
		return e.adm.depths()[ClassInteractive] == 1
	})

	joinResp := make(chan *Response, 1)
	joinErr := make(chan error, 1)
	go func() {
		resp, err := e.Do(ctx, Request{Source: u, Epsilon: 0.6, Adaptive: AdaptiveOn})
		joinErr <- err
		joinResp <- resp
	}()
	// The joiner must register on the tighter flight without triggering a
	// second computation, which would queue for a worker beside the leader.
	waitFor(t, "the loose request to join or queue", func() bool {
		return e.coalesced.Load() == 1 || e.adm.depths()[ClassInteractive] > 1
	})
	if d := e.adm.depths(); d[ClassInteractive] != 1 {
		t.Fatalf("loose adaptive request started its own computation instead of range-joining (queue depths %v)", d)
	}
	release()

	if err := <-leadErr; err != nil {
		t.Fatalf("leader Do: %v", err)
	}
	lead := <-leadDone
	if err := <-joinErr; err != nil {
		t.Fatalf("joiner Do: %v", err)
	}
	join := <-joinResp
	if !join.Coalesced || !join.ServedFromTighter {
		t.Fatalf("joiner: Coalesced=%v ServedFromTighter=%v, want range-coalesced flight join", join.Coalesced, join.ServedFromTighter)
	}
	if join.EpsilonServed != 0.3 || join.Epsilon != 0.6 {
		t.Fatalf("joiner: Epsilon=%v EpsilonServed=%v, want 0.6 served at 0.3", join.Epsilon, join.EpsilonServed)
	}
	if join.Result != lead.Result {
		t.Fatalf("joiner did not share the leader's Result")
	}
	st := e.Stats()
	if st.Coalesced != 1 || st.RangeCoalesced != 1 {
		t.Fatalf("Coalesced=%d RangeCoalesced=%d, want 1/1", st.Coalesced, st.RangeCoalesced)
	}
}

// TestDoBatchEachHeterogeneous runs one engine batch whose entries carry
// different epsilons, adaptive modes, and top-k selections, and requires
// every computed entry to be bit-identical to a solo request with the same
// options — plus in-batch range coalescing, both when a tighter adaptive
// entry precedes a looser one for the same source and when an adaptive
// entry can join an equal-epsilon fixed-budget flight.
func TestDoBatchEachHeterogeneous(t *testing.T) {
	idx := testIndex(t, 300)
	e, err := New(idx, Options{Workers: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	solo, err := New(idx, Options{Workers: 1})
	if err != nil {
		t.Fatalf("New solo: %v", err)
	}
	ctx := context.Background()
	reqs := []Request{
		{Source: 3},
		{Source: 99, Epsilon: 0.5},
		{Source: 3, Adaptive: AdaptiveOn},
		{Source: 150, Epsilon: 0.3, Adaptive: AdaptiveOn, K: 5},
		{Source: 99, Epsilon: 0.5}, // exact duplicate of entry 1
		{Source: 150, Epsilon: 0.6, Adaptive: AdaptiveOn},
	}
	resps, err := e.DoBatchEach(ctx, reqs)
	if err != nil {
		t.Fatalf("DoBatchEach: %v", err)
	}
	for i, req := range reqs {
		if i == 2 || i == 5 {
			continue // range-coalesced entries, checked below
		}
		// Solo requests drop K (a selection, not a computation knob) so the
		// cacheless solo engine returns a full shareable Result to compare.
		sreq := req
		sreq.K = 0
		want, err := solo.Do(ctx, sreq)
		if err != nil {
			t.Fatalf("solo Do(%d): %v", i, err)
		}
		if resps[i].Result == nil {
			t.Fatalf("entry %d: nil Result", i)
		}
		sameResult(t, want.Result, resps[i].Result)
		if resps[i].Epsilon != want.Epsilon {
			t.Fatalf("entry %d: Epsilon %v vs solo %v", i, resps[i].Epsilon, want.Epsilon)
		}
	}
	if k := len(resps[3].Top); k != 5 {
		t.Fatalf("entry 3: top-k has %d entries, want 5", k)
	}
	if !resps[4].CacheHit && !resps[4].Coalesced {
		t.Fatalf("duplicate entry neither cache hit nor coalesced")
	}
	// Entry 2 (source 3, adaptive at the default epsilon) joins entry 0's
	// fixed-budget flight at the same epsilon — fixed-before-adaptive is the
	// deterministic preference among equal-epsilon candidates — so it
	// reports a range join and carries the fixed computation's exact bits.
	if !resps[2].ServedFromTighter || resps[2].EpsilonServed != resps[0].Epsilon {
		t.Fatalf("entry 2: ServedFromTighter=%v EpsilonServed=%v, want join of in-batch fixed flight at %v",
			resps[2].ServedFromTighter, resps[2].EpsilonServed, resps[0].Epsilon)
	}
	sameResult(t, resps[0].Result, resps[2].Result)
	// Entry 5 (source 150 at loose 0.6, adaptive) must have range-joined
	// entry 3's tighter 0.3 flight within the batch.
	if !resps[5].ServedFromTighter || resps[5].EpsilonServed != 0.3 {
		t.Fatalf("entry 5: ServedFromTighter=%v EpsilonServed=%v, want join of in-batch 0.3 computation",
			resps[5].ServedFromTighter, resps[5].EpsilonServed)
	}
	sameResult(t, resps[3].Result, resps[5].Result)

	st := e.Stats()
	if st.RangeCoalesced == 0 {
		t.Fatalf("RangeCoalesced = 0 after in-batch range join")
	}
	if st.RoundsExecuted == 0 || st.RoundsBudget < st.RoundsExecuted {
		t.Fatalf("round telemetry not accumulated: executed=%d budget=%d", st.RoundsExecuted, st.RoundsBudget)
	}
}

// TestAdaptiveStatsCounters checks the adaptive telemetry end to end on the
// engine: early stops are counted and executed rounds undercut the budget
// when adaptive requests converge early.
func TestAdaptiveStatsCounters(t *testing.T) {
	idx := testIndex(t, 300)
	e, err := New(idx, Options{Workers: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx := context.Background()
	for u := 0; u < 20; u++ {
		if _, err := e.Do(ctx, Request{Source: u, Adaptive: AdaptiveOn, NoCache: true}); err != nil {
			t.Fatalf("Do(%d): %v", u, err)
		}
	}
	st := e.Stats()
	if st.RoundsBudget == 0 || st.RoundsExecuted == 0 {
		t.Fatalf("round counters empty: %+v", st)
	}
	if st.EarlyStops == 0 {
		t.Fatalf("no early stops across 20 adaptive queries")
	}
	if st.RoundsExecuted >= st.RoundsBudget {
		t.Fatalf("adaptive queries executed %d of %d budget rounds — no savings", st.RoundsExecuted, st.RoundsBudget)
	}
}
