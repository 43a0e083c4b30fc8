package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// fusedWaveSize floors how many per-source accumulator states a fused batch
// keeps live at once. Each state carries O(n) dense accumulators, so the wave
// width — max(q.Parallelism, fusedWaveSize), never the batch length — is what
// bounds the fused path's memory and the size the state pool can grow to: an
// arbitrarily long batch costs the same resident memory as a handful of
// concurrent solo queries. Eight states keeps each reserve-list stream shared
// across a useful number of sources even when the batch runs serially.
const fusedWaveSize = 8

// QueryBatchIntoOpts answers one single-source query per entry of sources,
// writing into the caller-owned results, with fused index-read passes: the
// batch is processed in waves of at most max(q.Parallelism, 8) sources, and
// within a wave each eligible reserve list L_ℓ(w) is streamed from the entry
// slab once — not once per source — and folded into every eligible source's
// private accumulator. The wave width, not the batch length, bounds how many
// O(n) per-source states are live at once, so batch memory is flat in
// len(sources). q.Parallelism bounds the worker goroutines; with more than
// one source the workers parallelize across the wave's sources (each
// source's walk chunks run on its worker's state), and a single-source batch
// degenerates to the intra-query chunked path of QueryIntoOpts.
//
// Determinism: every source consumes exactly the per-(seed, source, chunk)
// streams of a solo query, and the fused pass visits levels ascending with
// hub ranks ascending — the same canonical order as the solo index-read pass
// restricted to each source's eligible set — so each result is bit-identical
// to QueryIntoOpts from the same source at any parallelism level and any
// wave grouping.
//
// On error (validation, or cancellation mid-batch) the failing wave touches
// no result, but results of waves completed before the failure are already
// populated; callers must treat the whole batch as failed.
func (idx *Index) QueryBatchIntoOpts(ctx context.Context, sources []int, results []*Result, q QueryOptions) error {
	if err := q.Validate(); err != nil {
		return err
	}
	return idx.queryBatchImpl(ctx, sources, results, func(int) QueryOptions { return q }, q.Parallelism)
}

// QueryBatchEachIntoOpts is QueryBatchIntoOpts with heterogeneous per-entry
// options: entry i runs at qs[i]'s epsilon and adaptive policy while still
// sharing the batch's fused index-read passes — within a wave each eligible
// reserve list streams once and folds into every source whose own η̂π clears
// its own ε/c₁ threshold. Adaptive stopping is likewise per entry: each
// source's walk phase stops at its own converged round. The wave's worker
// fan-out is the maximum Parallelism requested by any entry. Every result is
// bit-identical to a solo QueryIntoOpts with the same entry's options.
func (idx *Index) QueryBatchEachIntoOpts(ctx context.Context, sources []int, results []*Result, qs []QueryOptions) error {
	if len(qs) != len(sources) {
		return fmt.Errorf("core: QueryBatchEachIntoOpts with %d sources but %d option sets", len(sources), len(qs))
	}
	p := 0
	for _, q := range qs {
		if err := q.Validate(); err != nil {
			return err
		}
		if q.Parallelism > p {
			p = q.Parallelism
		}
	}
	return idx.queryBatchImpl(ctx, sources, results, func(i int) QueryOptions { return qs[i] }, p)
}

// queryBatchImpl is the shared wave machinery behind QueryBatchIntoOpts
// (one option set) and QueryBatchEachIntoOpts (per-entry option sets);
// optFor(i) yields entry i's already-validated per-request options.
func (idx *Index) queryBatchImpl(ctx context.Context, sources []int, results []*Result, optFor func(int) QueryOptions, p int) error {
	if len(sources) != len(results) {
		return fmt.Errorf("core: QueryBatchIntoOpts with %d sources but %d results", len(sources), len(results))
	}
	for i, u := range sources {
		if results[i] == nil {
			return fmt.Errorf("core: QueryBatchIntoOpts with nil result %d", i)
		}
		if err := idx.g.CheckNode(u); err != nil {
			return err
		}
	}
	switch len(sources) {
	case 0:
		return nil
	case 1:
		return idx.QueryIntoOpts(ctx, sources[0], results[0], optFor(0))
	}
	start := time.Now()
	// Per-entry effective options, resolved once; entries sharing one option
	// set resolve to identical values, reproducing the homogeneous batch.
	effOpts := make([]Options, len(sources))
	for i := range sources {
		effOpts[i], _ = idx.opts.effective(optFor(i))
	}
	if p > len(sources) {
		p = len(sources)
	}
	if p < 1 {
		p = 1
	}

	wave := p
	if wave < fusedWaveSize {
		wave = fusedWaveSize
	}
	if wave > len(sources) {
		wave = len(sources)
	}
	states := make([]*queryState, wave)
	for i := range states {
		states[i] = idx.getState()
	}
	defer func() {
		for _, st := range states {
			idx.putState(st)
		}
	}()
	stats := make([]QueryStats, len(sources))

	for base := 0; base < len(sources); base += wave {
		end := base + wave
		if end > len(sources) {
			end = len(sources)
		}
		// pw is the worker fan-out of this wave (the last wave may be
		// narrower than p); it is what each source's Stats.Parallelism
		// reports.
		pw := p
		if pw > end-base {
			pw = end - base
		}

		// Walk phases: one complete chunked phase per wave source, fanned
		// out across the workers. Each phase is self-contained (private
		// state, private streams), so scheduling cannot affect bits.
		walkOne := func(i int) error {
			stats[i] = QueryStats{Epsilon: effOpts[i].Epsilon}
			return idx.runWalkPhase(ctx, states[i-base], sources[i], effOpts[i], optFor(i), 1, &stats[i])
		}
		if pw <= 1 {
			for i := base; i < end; i++ {
				if err := walkOne(i); err != nil {
					return err
				}
			}
		} else {
			var (
				next atomic.Int64
				wg   sync.WaitGroup
			)
			next.Store(int64(base) - 1)
			run := func() {
				for {
					i := int(next.Add(1))
					if i >= end || ctx.Err() != nil {
						return
					}
					// runWalkPhase only fails on cancellation, which the next
					// claim (and the post-join check) observes.
					_ = walkOne(i)
				}
			}
			for w := 1; w < pw; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					run()
				}()
			}
			run()
			wg.Wait()
			if err := ctx.Err(); err != nil {
				// Cancelled phases left their states clean; completed ones
				// hold accumulated scores that the next walk phase's
				// resetScratch reclaims.
				return err
			}
		}
		for i := base; i < end; i++ {
			stats[i].Parallelism = pw
		}

		idx.readIndexFused(states[:end-base], effOpts[base:end], stats[base:end])
		for i := base; i < end; i++ {
			results[i].g = idx.g
			states[i-base].finalize(sources[i], results[i], &stats[i], start)
		}
	}
	return nil
}

// readIndexFused runs sI(u, v), the index-read pass, for a wave of sources
// at once; a solo query is a one-state wave. For every hub w and level ℓ
// with η̂π_ℓ(u,w) > ε/c₁ it folds the stored reserves L_ℓ(w) into the
// source's final-score accumulator. One pass visits the union of the wave's
// eligible (level, rank) pairs — levels ascending, ranks ascending — reading
// each reserve list once and folding it into every source whose η̂π clears
// that source's own threshold (opts[i] is the wave's i-th source's effective
// option set; heterogeneous epsilons simply gate differently against the
// same streamed list). The canonical visit order fixes the floating-point
// accumulation order independently of sampling history and of the wave's
// other sources, so fused and solo queries produce identical bits.
func (idx *Index) readIndexFused(states []*queryState, opts []Options, stats []QueryStats) {
	// Waves are rarely wider than fusedWaveSize; the array keeps a solo
	// query's thresholds off the heap.
	var buf [fusedWaveSize]float64
	thresholds := buf[:0]
	for i := range states {
		thresholds = append(thresholds, opts[i].rmax())
	}
	alpha := opts[0].alpha()
	invAlphaSq := 1 / (alpha * alpha)

	maxLev := 0
	for _, st := range states {
		if len(st.etaTouched) > maxLev {
			maxLev = len(st.etaTouched)
		}
	}
	if maxLev == 0 {
		return
	}
	// Union-building scratch lives on the batch leader's state.
	s0 := states[0]
	if len(s0.hubMark) < idx.NumHubs() {
		s0.hubMark = make([]byte, idx.NumHubs())
	}
	mark := s0.hubMark
	union := s0.unionRanks[:0]

	for lev := 0; lev < maxLev; lev++ {
		union = union[:0]
		for _, st := range states {
			if lev >= len(st.etaTouched) {
				continue
			}
			for _, rank := range st.etaTouched[lev] {
				if mark[rank] == 0 {
					mark[rank] = 1
					union = append(union, rank)
				}
			}
		}
		slices.Sort(union)
		for _, rank := range union {
			mark[rank] = 0
			var entries []IndexEntry
			for si, st := range states {
				if lev >= len(st.etaTouched) || st.etaVals[lev] == nil {
					continue
				}
				ep := st.etaVals[lev][rank]
				if ep <= thresholds[si] {
					continue
				}
				if entries == nil {
					entries = idx.hubEntriesByRank(int(rank), lev)
				}
				for _, e := range entries {
					st.scoreInto(int(e.Node), ep*e.Reserve*invAlphaSq)
				}
				stats[si].IndexEntriesRead += len(entries)
			}
		}
	}
	s0.unionRanks = union[:0]
}
