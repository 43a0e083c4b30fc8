package core

import (
	"context"
	"sync"
	"sync/atomic"
)

// walkChunkSize is the number of √c-walk samples in one intra-query work
// chunk. Chunk boundaries are a function of the effective options only —
// never of the parallelism level — so the work decomposition (and with it the
// canonical merge order) is identical no matter how many workers execute the
// chunks. The size balances scheduling granularity against per-chunk fixed
// costs (an RNG reseed and a sparse compaction); at the default full-accuracy
// budget one round splits into a handful of chunks, and the rounds themselves
// multiply the chunk count well past typical core counts.
const walkChunkSize = 2048

// chunkSeed derives the deterministic RNG seed of walk chunk j of a query
// whose per-(seed, source) base seed is qseed: one splitmix64 scramble over
// the chunk counter, using the same finalizer as walk.RNG's Reseed expansion.
// Every (seed, source, chunk) triple gets its own well-separated stream, so
// chunk results do not depend on which worker runs them or in what order.
func chunkSeed(qseed uint64, j int) uint64 {
	x := qseed + (uint64(j)+1)*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// querySeed is the per-(seed, source) base seed every chunk stream derives
// from — the same derivation historical per-query walker construction used.
func querySeed(seed uint64, u int) uint64 {
	return seed ^ (uint64(u)*0x9e3779b97f4a7c15 + 1)
}

// chunksPerRound returns how many chunks one round's d_r samples split into.
func chunksPerRound(dr int) int {
	return (dr + walkChunkSize - 1) / walkChunkSize
}

// QueryChunks reports how many walk-phase work chunks QueryIntoOpts splits a
// query with the given per-request options into — the upper bound on useful
// intra-query parallelism. The engine caps a request's worker fan-out at this
// value so surplus workers are never reserved just to idle. An adaptive
// query runs its chunks in windows between stop checks, each at least one
// round long, so its fan-out is capped at one round's chunk count: no window
// leaves a borrowed worker without a chunk.
func (idx *Index) QueryChunks(q QueryOptions) int {
	opts, _ := idx.opts.effective(q)
	dr := opts.samplesPerRound()
	if q.Adaptive {
		return chunksPerRound(dr)
	}
	return opts.rounds(idx.g.N()) * chunksPerRound(dr)
}

// chunkResult is the compacted output of one walk chunk: the chunk's share of
// the round's backward-walk accumulator as sparse (node, value) lists, its
// η·π observations as flat (level, rank, value) triples — levels ascending,
// ranks in chunk-local first-touch order — and its integer work counters.
// The merging query's state owns one per global chunk number and reuses the
// buffers across queries, so steady-state queries allocate nothing for them.
type chunkResult struct {
	nodes []int32
	vals  []float64

	etaLev  []int32
	etaRank []int32
	etaVal  []float64

	walks, hubHits, nonHubHits, bwCost int
}

func (cr *chunkResult) reset() {
	cr.nodes, cr.vals = cr.nodes[:0], cr.vals[:0]
	cr.etaLev, cr.etaRank, cr.etaVal = cr.etaLev[:0], cr.etaRank[:0], cr.etaVal[:0]
	cr.walks, cr.hubHits, cr.nonHubHits, cr.bwCost = 0, 0, 0, 0
}

// walkPhase is one query's chunk decomposition: global chunk j is chunk
// j%cpr of round j/cpr, runs on the (qseed, j) stream, and writes crs[j].
type walkPhase struct {
	u, dr, cpr, maxLevels int
	qseed                 uint64
	etaInc, bwInvDiv      float64
	crs                   []chunkResult
}

// candidate is one walk end of a chunk that can contribute to the answer:
// a hub end (rank ≥ 0) at the given level, or a non-hub end whose backward
// walk returned estimates. end is the length of the running state's
// bwNodes/bwVals once the candidate is kept, so candidate k's estimates are
// [cands[k-1].end, cands[k].end) — an empty span for a hub end.
type candidate struct {
	level, rank, end int32
}

// runChunk executes global chunk j of ph on this state's kernels: the
// chunk's √c-walk samples under its private RNG stream, then one pass in
// walk order that keeps only the ends that can change an answer — hub ends,
// and non-hub ends whose Variance Bounded Backward Walk returned estimates —
// then the batched pair meets over the kept ends, and finally the fold of
// the un-met ends, in walk order, into the hub η·π accumulators and the
// round accumulator.
//
// A sample contributes [pair did not meet] × (backward-walk estimate or η·π
// indicator), and the two factors are drawn from independent streams, so
// sampling the pair only for kept ends leaves every estimate's
// distribution unchanged while skipping work that cannot count: a length-0
// walk stops at u and feeds only s(u,u), which finalize sets to 1, and an
// empty backward walk contributes 0 whatever its pair does.
//
// The state's dense accumulators serve as scratch and are compacted into
// ph.crs[j], restoring the all-zero invariant — one state can therefore run
// any number of chunks back to back, and the query's own state runs chunks
// between merges.
func (s *queryState) runChunk(ph *walkPhase, j int) {
	cr := &ph.crs[j]
	cr.reset()
	s.rng.Reseed(chunkSeed(ph.qseed, j))
	s.walker.Reset(s.rng.Uint64())
	s.bw.reset(s.rng.Uint64())
	bw0 := s.bw.Cost()

	// The last chunk of a round carries the remainder.
	cs := min(ph.dr-(j%ph.cpr)*walkChunkSize, walkChunkSize)
	s.walkBuf = s.walker.SampleN(ph.u, cs, s.walkBuf)
	cr.walks += cs
	recs := s.bw.recs
	cands, ends := s.cands[:0], s.candNodes[:0]
	bwNodes, bwVals := s.bwNodes[:0], s.bwVals[:0]
	for _, rs := range s.walkBuf {
		level := rs.Steps
		if !rs.Terminated || level == 0 || level >= ph.maxLevels {
			continue
		}
		w := rs.Node
		rank := recs[w].hubRank
		if rank < 0 {
			cr.nonHubHits++
			touched, values := s.bw.varianceBoundedInto(w, level)
			if len(touched) == 0 {
				continue
			}
			for _, v := range touched {
				bwNodes = append(bwNodes, int32(v))
				bwVals = append(bwVals, values[v]*ph.bwInvDiv)
			}
		}
		cands = append(cands, candidate{level: int32(level), rank: rank, end: int32(len(bwNodes))})
		ends = append(ends, w)
	}
	s.cands, s.candNodes, s.bwNodes, s.bwVals = cands, ends, bwNodes, bwVals
	cr.walks += 2 * len(ends)
	cr.bwCost += s.bw.Cost() - bw0

	s.metBuf = s.walker.PairMeetsFromN(ends, s.metBuf)
	lo := int32(0)
	for k, c := range cands {
		if !s.metBuf[k] {
			if c.rank >= 0 {
				s.addEtaPi(int(c.level), int(c.rank), ph.etaInc)
				cr.hubHits++
			} else {
				s.accumulate(bwNodes[lo:c.end], bwVals[lo:c.end])
			}
		}
		lo = c.end
	}

	// Compact the chunk's share of the round accumulator.
	for _, v := range s.roundTouched {
		cr.nodes = append(cr.nodes, int32(v))
		cr.vals = append(cr.vals, s.roundAcc[v])
		s.roundAcc[v] = 0
	}
	s.roundTouched = s.roundTouched[:0]

	// Compact the per-level η·π accumulators: levels ascending, ranks in
	// chunk-local first-touch order (the fold after the walk loop
	// re-establishes the canonical global order by visiting chunks in
	// ascending chunk order).
	for l, touched := range s.etaTouched {
		vals := s.etaVals[l]
		for _, rank := range touched {
			cr.etaLev = append(cr.etaLev, int32(l))
			cr.etaRank = append(cr.etaRank, rank)
			cr.etaVal = append(cr.etaVal, vals[rank])
			vals[rank] = 0
		}
		s.etaTouched[l] = touched[:0]
	}
}

// runWalkPhase runs Algorithm 4's Monte Carlo phase from u: f_r rounds of d_r
// √c-walks split into fixed-size chunks, then the median over rounds. Rounds
// execute in windows: a window's chunks run together on up to p workers and
// then merge into s round by round, in canonical ascending (round, chunk)
// order. A fixed-budget query is one window spanning its whole budget; an
// adaptive query's windows end where its stop rule is evaluated (windowEnd),
// so early stopping is only an early exit from this loop. The η·π
// observations are folded from the chunk results once the loop ends, in the
// same order, so s's hub accumulators stay empty while chunks run and s
// executes chunks itself. On success s holds the η·π accumulators and the
// median-folded dense scores; on cancellation it returns the context's error
// and s keeps its all-zero invariants. It reports how many chunks it ran
// either way, so callers can count the work a cancellation threw away.
//
// Determinism: chunk boundaries and seeds depend only on the effective
// options, the source and the graph size; each chunk consumes an independent
// stream into its own result slot; the merge is a sequential left-fold in a
// fixed order; and the window schedule and stop decisions are functions of
// the round number and merged state alone. Results are therefore
// bit-identical at every parallelism level, and an adaptive query that runs
// its full budget reproduces the fixed query's bits.
func (idx *Index) runWalkPhase(ctx context.Context, s *queryState, u int, opts Options, q QueryOptions, p int, stats *QueryStats) (int, error) {
	dr := opts.samplesPerRound()
	fr := opts.rounds(idx.g.N())
	cpr := chunksPerRound(dr)
	alpha := opts.alpha()
	s.phase = walkPhase{
		u: u, dr: dr, cpr: cpr, maxLevels: opts.MaxLevels,
		qseed:    querySeed(opts.Seed, u),
		etaInc:   1 / float64(dr*fr),
		bwInvDiv: 1 / (alpha * alpha * float64(dr)),
		crs:      s.growChunks(fr * cpr),
	}
	ph := &s.phase
	// A fixed query's stop floor is its whole budget: one window, no checks.
	minR := fr
	if q.Adaptive {
		minR = min(max(q.MinRounds, defaultMinRounds), fr)
	}
	s.resetScratch()
	s.resetHubMass()

	R, streak, workers, ran := 0, 0, 1, 0
	for R < fr {
		end := windowEnd(R, minR, fr)
		w, n, err := idx.runWindow(ctx, s, ph, R*cpr, end*cpr, p)
		ran += n
		if err != nil {
			return ran, err
		}
		workers = max(workers, w)
		for i := R; i < end; i++ {
			hub0 := stats.HubHits
			s.mergeRound(ph.crs[i*cpr:(i+1)*cpr], i, stats)
			s.foldHubMass(float64(stats.HubHits-hub0) / float64(dr))
		}
		if R = end; R == fr {
			break
		}
		if !s.adaptiveConverged(R, opts) {
			streak = 0
		} else if streak++; streak >= adaptiveConfirmRounds {
			break
		}
	}

	for j := range R * cpr {
		cr := &ph.crs[j]
		for t := range cr.etaLev {
			s.addEtaPi(int(cr.etaLev[t]), int(cr.etaRank[t]), cr.etaVal[t])
		}
	}
	stats.Chunks += R * cpr
	stats.Parallelism = workers
	stats.RoundsExecuted, stats.RoundsBudget = R, fr
	stats.EarlyStopped = R < fr
	if R < fr {
		// η̂π accumulated at weight 1/(d_r·f_r); with only R rounds merged the
		// unbiased mean over the executed samples is the accumulated value
		// rescaled by f_r/R. Skipped at the full budget, so a never-stopping
		// adaptive query keeps the fixed query's exact bits.
		s.rescaleEta(float64(fr) / float64(R))
	}
	// sB(u, v): median over rounds (missing rounds count as zero), folded
	// into the dense final-score accumulator.
	s.medianScores(R)
	return ran, nil
}

// runWindow executes chunks [lo, hi) of ph on up to p workers — s itself
// plus states borrowed for the window — and reports how many workers ran
// them and how many chunks they ran. A serial window is a plain loop on s.
// Workers claim chunks through an atomic counter and check ctx before each
// one; a claimed chunk always runs to completion, so a cancelled window
// leaves every state's accumulators clean.
func (idx *Index) runWindow(ctx context.Context, s *queryState, ph *walkPhase, lo, hi, p int) (int, int, error) {
	if p = min(p, hi-lo); p <= 1 {
		for j := lo; j < hi; j++ {
			if err := ctx.Err(); err != nil {
				return 1, j - lo, err
			}
			s.runChunk(ph, j)
		}
		return 1, hi - lo, nil
	}
	var (
		next    atomic.Int64
		ran     atomic.Int64
		aborted atomic.Bool
		wg      sync.WaitGroup
	)
	next.Store(int64(lo) - 1)
	run := func(ws *queryState) {
		n := int64(0)
		for !aborted.Load() {
			j := int(next.Add(1))
			if j >= hi {
				break
			}
			if ctx.Err() != nil {
				aborted.Store(true)
				break
			}
			ws.runChunk(ph, j)
			n++
		}
		ran.Add(n)
	}
	for range p - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := idx.getState()
			ws.resetScratch()
			run(ws)
			idx.putState(ws)
		}()
	}
	run(s)
	wg.Wait()
	return p, int(ran.Load()), ctx.Err()
}

// mergeRound folds round i's chunk results into s in the canonical order —
// chunks ascending, a sequential left-fold — compacts the round into its
// sparse per-round lists, and adds the chunks' work counters to stats.
func (s *queryState) mergeRound(chunks []chunkResult, i int, stats *QueryStats) {
	if len(chunks) == 1 {
		// A single-chunk round adopts the chunk's lists wholesale (folding
		// into an empty accumulator would reproduce the same bits); the swap
		// hands the old round buffers to the chunk slot, so s keeps both.
		cr := &chunks[0]
		s.growRounds(i)
		s.roundNodes[i], cr.nodes = cr.nodes, s.roundNodes[i][:0]
		s.roundVals[i], cr.vals = cr.vals, s.roundVals[i][:0]
	} else {
		for k := range chunks {
			cr := &chunks[k]
			for t, v32 := range cr.nodes {
				v := int(v32)
				if s.roundAcc[v] == 0 {
					s.roundTouched = append(s.roundTouched, v)
				}
				s.roundAcc[v] += cr.vals[t]
			}
		}
		s.finishRound(i)
	}
	for k := range chunks {
		cr := &chunks[k]
		stats.Walks += cr.walks
		stats.HubHits += cr.hubHits
		stats.NonHubHits += cr.nonHubHits
		stats.BackwardWalkCost += cr.bwCost
	}
}
