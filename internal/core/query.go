package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"prsim/internal/graph"
)

// ScoredNode is a node with its estimated SimRank score.
type ScoredNode struct {
	Node  int
	Score float64
}

// Result holds the outcome of a single-source query.
type Result struct {
	// Source is the query node u.
	Source int
	// Scores maps node v to the estimate ŝ(u, v); only non-zero estimates are
	// stored (plus the source itself, whose SimRank is 1 by definition).
	Scores map[int]float64
	// Stats reports the work performed by the query.
	Stats QueryStats

	// g is the graph the query ran on. Results can outlive an engine's hot
	// swap (shared through its cache), so node labels and dimensions must
	// resolve against the graph that actually produced the scores, not
	// whichever graph is being served when the result is rendered.
	g *graph.Graph
}

// Graph returns the graph the query ran on, or nil for a zero-value Result
// that no query has populated.
func (r *Result) Graph() *graph.Graph { return r.g }

// Rebound returns a shallow copy of r bound to g, sharing the score map.
// The engine's reload-aware cache uses it when a hot swap installs a snapshot
// whose graph is byte-identical to the outgoing generation's: the scores stay
// valid, but the kept results must resolve labels and dimensions against the
// new generation's graph object — the old one may alias a mapping that is
// about to be unmapped. Callers must only rebind onto a structurally
// identical graph (equal Checksum).
func (r *Result) Rebound(g *graph.Graph) *Result {
	cp := *r
	cp.g = g
	return &cp
}

// QueryStats breaks down the cost of one query.
type QueryStats struct {
	// Epsilon is the effective additive error bound the query ran at: the
	// build epsilon unless a larger per-request epsilon was supplied (smaller
	// requests are clamped up to the build epsilon).
	Epsilon float64
	// Walks is the total number of √c-walks sampled from the source (n_r)
	// plus the pairs sampled for the last-meeting estimate.
	Walks int
	// BackwardWalkCost is the number of estimator increments performed by
	// Variance Bounded Backward Walks (the C_B term of the analysis).
	BackwardWalkCost int
	// IndexEntriesRead is the number of (v, ψ) pairs read from the index (the
	// C_I term).
	IndexEntriesRead int
	// HubHits and NonHubHits count how many sampled walks terminated at hub
	// and non-hub nodes respectively.
	HubHits    int
	NonHubHits int
	// Chunks is the number of walk-phase work chunks the query's Monte Carlo
	// budget was split into — the upper bound on useful intra-query
	// parallelism.
	Chunks int
	// Parallelism is the number of workers engaged by the computation that
	// produced this result: the workers that executed a solo query's chunks,
	// or, for a fused batch, the workers fanned across the sources of the
	// wave this query ran in (1 = fully serial). Results are bit-identical
	// at every value.
	Parallelism int
	// RoundsExecuted is the number of median-trick rounds actually merged
	// into this result; RoundsBudget is the worst-case budget f_r the paper's
	// analysis prescribes. They differ only when an adaptive query stopped
	// early (EarlyStopped), in which case RoundsBudget−RoundsExecuted rounds
	// of work were saved.
	RoundsExecuted int
	RoundsBudget   int
	// EarlyStopped reports that adaptive variance-based termination cut the
	// Monte Carlo phase short of the worst-case budget.
	EarlyStopped bool
	// Time is the wall-clock query time.
	Time time.Duration
}

// Score returns ŝ(u, v), which is zero for nodes the query never touched.
func (r *Result) Score(v int) float64 { return r.Scores[v] }

// scoredWorse reports whether a ranks strictly below b in TopK order
// (descending score, ties broken by ascending node id). It is a total order,
// so selection results are independent of map iteration order.
func scoredWorse(a, b ScoredNode) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Node > b.Node
}

// TopK returns the k nodes with the highest estimated SimRank, excluding the
// source itself, ordered by descending score with ties broken by node id.
// k larger than the support returns everything; k <= 0 returns an empty
// slice (slicing with a negative k would panic, and callers such as HTTP
// handlers cannot be assumed to pre-validate).
//
// Selection uses a bounded min-heap of size k — O(support · log k) instead of
// sorting the whole support — so /topk-style requests with small k stay cheap
// on queries whose support is large.
func (r *Result) TopK(k int) []ScoredNode {
	if k <= 0 {
		return []ScoredNode{}
	}
	// h is a binary min-heap under scoredWorse: h[0] is the current worst of
	// the best-k seen so far.
	h := make([]ScoredNode, 0, min(k, len(r.Scores)))
	for v, s := range r.Scores {
		if v == r.Source {
			continue
		}
		cand := ScoredNode{Node: v, Score: s}
		if len(h) < k {
			h = append(h, cand)
			for i := len(h) - 1; i > 0; {
				p := (i - 1) / 2
				if !scoredWorse(h[i], h[p]) {
					break
				}
				h[i], h[p] = h[p], h[i]
				i = p
			}
			continue
		}
		if !scoredWorse(h[0], cand) {
			continue
		}
		h[0] = cand
		for i, n := 0, len(h); ; {
			l, rc := 2*i+1, 2*i+2
			m := i
			if l < n && scoredWorse(h[l], h[m]) {
				m = l
			}
			if rc < n && scoredWorse(h[rc], h[m]) {
				m = rc
			}
			if m == i {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	sort.Slice(h, func(i, j int) bool { return scoredWorse(h[j], h[i]) })
	return h
}

// AsSlice returns the scores as a dense vector of length n. Keys outside
// [0, n) are dropped — a corrupt (unverified) snapshot can surface garbage
// node ids, and those must not turn into an out-of-range write.
func (r *Result) AsSlice(n int) []float64 {
	out := make([]float64, n)
	for v, s := range r.Scores {
		if v >= 0 && v < n {
			out[v] = s
		}
	}
	return out
}

// Query runs Algorithm 4: a single-source SimRank query from node u.
func (idx *Index) Query(u int) (*Result, error) {
	return idx.QueryCtx(context.Background(), u)
}

// QueryCtx is Query with cancellation: the context is checked before every
// walk chunk, so a cancelled or expired context aborts the query within one
// chunk's worth of work. Cancellation never consumes random values, so a
// query that does complete is bit-identical whether or not a deadline was
// attached.
func (idx *Index) QueryCtx(ctx context.Context, u int) (*Result, error) {
	res := &Result{}
	if err := idx.QueryIntoCtx(ctx, u, res); err != nil {
		return nil, err
	}
	return res, nil
}

// QueryInto runs the query into a caller-owned Result, reusing res.Scores when
// present so repeated queries on one worker amortize the map allocation. The
// result is bit-identical to Query for the same source and index.
func (idx *Index) QueryInto(u int, res *Result) error {
	return idx.QueryIntoCtx(context.Background(), u, res)
}

// EffectiveOptions resolves the per-request options q against the index's
// build options, returning the option set the query will actually run with
// and whether the requested epsilon was clamped up to the build epsilon
// (requests below the build epsilon cannot be honored — the reserve lists
// were pruned at the build epsilon's rmax — so they run at build accuracy).
func (idx *Index) EffectiveOptions(q QueryOptions) (Options, bool) {
	return idx.opts.effective(q)
}

// QueryOpts answers a single-source query at a per-request accuracy target:
// the effective epsilon (see EffectiveOptions) resizes the walk, backward-walk
// and index-read budgets for this request only. A zero q is bit-identical to
// QueryCtx.
func (idx *Index) QueryOpts(ctx context.Context, u int, q QueryOptions) (*Result, error) {
	res := &Result{}
	if err := idx.QueryIntoOpts(ctx, u, res, q); err != nil {
		return nil, err
	}
	return res, nil
}

// QueryIntoCtx runs the query with the index's build-time options; it is
// QueryIntoOpts with a zero per-request override.
func (idx *Index) QueryIntoCtx(ctx context.Context, u int, res *Result) error {
	return idx.QueryIntoOpts(ctx, u, res, QueryOptions{})
}

// QueryIntoOpts is the full query implementation behind Query, QueryCtx,
// QueryInto and QueryOpts — the single entry point the whole request plane
// funnels into. All scratch state — walkers, dense accumulators, the median
// workspace, chunk results — comes from a per-index free list of query
// states, so steady-state queries only allocate the returned score map
// entries (and nothing at all when reusing a result whose map has already
// grown to the support size). The query is Algorithm 4 run once: the walk
// phase (runWalkPhase, with adaptive stopping as an early exit from its
// loop), then the index-read pass over a one-source wave (readIndexFused).
//
// The per-request options resize the query's budgets without touching the
// index: the effective epsilon (build epsilon, or a larger requested one)
// derives the per-round sample count d_r = c₁/ε², the pair-walk volume, and
// the η·π threshold ε/c₁ that gates both the backward walks and the
// index-read pass — so one index serves a whole spectrum of accuracy/latency
// trade-offs.
//
// Determinism: for a fixed Options.Seed and effective epsilon, a query
// consumes fixed random streams and accumulates floating point in a fixed
// canonical order — the walk budget splits into chunks whose boundaries and
// seeds depend only on the effective options (never on the parallelism
// level), chunk results merge in a sequential left-fold over ascending
// (round, chunk) order, backward-walk frontiers expand in first-touch order,
// and the index-read pass visits levels in ascending order with hub ranks
// ascending within each level — so results are reproducible run-to-run on
// the same build and bit-identical at every QueryOptions.Parallelism value.
// Bit-compatibility of scores across versions of this package is
// intentionally not promised.
func (idx *Index) QueryIntoOpts(ctx context.Context, u int, res *Result, q QueryOptions) error {
	if res == nil {
		return fmt.Errorf("core: QueryInto with nil result")
	}
	if err := q.Validate(); err != nil {
		return err
	}
	if err := idx.g.CheckNode(u); err != nil {
		return err
	}
	res.g = idx.g
	start := time.Now()
	opts, _ := idx.opts.effective(q)

	s := idx.getState()
	defer idx.putState(s)

	stats := [1]QueryStats{{Epsilon: opts.Epsilon}}
	if err := idx.runWalkPhase(ctx, s, u, opts, q, q.Parallelism, &stats[0]); err != nil {
		return err
	}
	idx.readIndexFused([]*queryState{s}, []Options{opts}, stats[:])
	s.finalize(u, res, &stats[0], start)
	return nil
}

// finalize publishes the state's dense final scores into res. Every fallible
// step is behind us; only now is the caller's score map recycled, so a
// cancelled query leaves res untouched. The map is built in one pass from
// the dense accumulator, which is zeroed along the way to restore the
// all-zero invariant for the next pooled query.
func (s *queryState) finalize(u int, res *Result, stats *QueryStats, start time.Time) {
	// SimRank of a node with itself is 1 by definition.
	if s.scoreAcc[u] == 0 {
		s.scoreTouched = append(s.scoreTouched, u)
	}
	s.scoreAcc[u] = 1

	scores := res.Scores
	if scores == nil {
		scores = make(map[int]float64, len(s.scoreTouched))
	} else {
		clear(scores)
	}
	for _, v := range s.scoreTouched {
		scores[v] = s.scoreAcc[v]
		s.scoreAcc[v] = 0
	}
	s.scoreTouched = s.scoreTouched[:0]

	stats.Time = time.Since(start)
	res.Source = u
	res.Scores = scores
	res.Stats = *stats
}

// median returns the median of vals. It sorts a copy, leaving vals untouched;
// the query path uses medianInPlace on scratch rows it owns.
func median(vals []float64) float64 {
	cp := append([]float64(nil), vals...)
	return medianInPlace(cp)
}
