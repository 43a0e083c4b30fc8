package prsim

import "prsim/internal/core"

// ScoredNode is a node together with its estimated SimRank score.
type ScoredNode struct {
	// Node is the dense node id.
	Node int
	// Label is the node's original label (or its id rendered as a string).
	Label string
	// Score is the estimated SimRank similarity to the query node.
	Score float64
}

// Result is the answer to a single-source SimRank query.
type Result struct {
	g     *Graph
	inner *core.Result
}

// wrapResult pairs a core result with the public view of the graph it was
// computed on. The result's own graph wins: results can be served from an
// engine's cache across a hot Swap, and their labels and dimensions must
// resolve against the generation that produced the scores, not whichever
// index is current at render time. fallback covers zero-value results no
// query populated.
func wrapResult(fallback *Graph, inner *core.Result) *Result {
	if ig := inner.Graph(); ig != nil && (fallback == nil || ig != fallback.g) {
		return &Result{g: wrapGraph(ig), inner: inner}
	}
	return &Result{g: fallback, inner: inner}
}

// Source returns the query node.
func (r *Result) Source() int { return r.inner.Source }

// Score returns the estimated SimRank ŝ(source, v); nodes never touched by the
// query have score zero.
func (r *Result) Score(v int) float64 { return r.inner.Score(v) }

// Scores returns the non-zero estimates as a map keyed by node id. The map is
// the result's own storage; treat it as read-only.
func (r *Result) Scores() map[int]float64 { return r.inner.Scores }

// TopK returns the k most similar nodes (excluding the source itself) in
// descending score order. Negative k is treated as zero.
func (r *Result) TopK(k int) []ScoredNode {
	if k < 0 {
		k = 0
	}
	inner := r.inner.TopK(k)
	out := make([]ScoredNode, len(inner))
	for i, s := range inner {
		out[i] = ScoredNode{Node: s.Node, Label: r.g.Label(s.Node), Score: s.Score}
	}
	return out
}

// AsSlice returns the scores as a dense vector of length NumNodes().
func (r *Result) AsSlice() []float64 { return r.inner.AsSlice(r.g.NumNodes()) }

// Stats describes the work performed by the query.
func (r *Result) Stats() QueryStats {
	s := r.inner.Stats
	return QueryStats{
		Epsilon:          s.Epsilon,
		Walks:            s.Walks,
		BackwardWalkCost: s.BackwardWalkCost,
		IndexEntriesRead: s.IndexEntriesRead,
		Chunks:           s.Chunks,
		Parallelism:      s.Parallelism,
		RoundsExecuted:   s.RoundsExecuted,
		RoundsBudget:     s.RoundsBudget,
		EarlyStopped:     s.EarlyStopped,
		Seconds:          s.Time.Seconds(),
	}
}

// QueryStats summarizes the cost of one query.
type QueryStats struct {
	// Epsilon is the effective additive error bound the query ran at: the
	// build epsilon unless a larger per-request epsilon was supplied.
	Epsilon float64
	// Walks is the number of √c-walks sampled: the n_r walks from the source
	// plus two for each η pair, which is sampled only for a walk end that can
	// change the answer (a hub end, or a non-hub end whose backward walk
	// returned estimates).
	Walks int
	// BackwardWalkCost counts estimator increments performed by Variance
	// Bounded Backward Walks, one walk per non-hub end at level ≥ 1, whether
	// or not its η pair then met.
	BackwardWalkCost int
	// IndexEntriesRead counts (node, reserve) pairs read from the hub index.
	IndexEntriesRead int
	// Chunks is the number of walk-phase work chunks the query's Monte Carlo
	// budget was split into; Parallelism is how many workers executed them
	// (1 = serial). Results are bit-identical at every parallelism level.
	Chunks      int
	Parallelism int
	// RoundsExecuted is how many Monte Carlo median-trick rounds the query
	// actually ran; RoundsBudget is the worst-case budget f_r = ⌈3·ln(n/δ)⌉
	// it was allowed. EarlyStopped reports that adaptive execution stopped
	// before the budget (RoundsExecuted < RoundsBudget); fixed-budget queries
	// always execute the full budget.
	RoundsExecuted int
	RoundsBudget   int
	EarlyStopped   bool
	// Seconds is the wall-clock query time.
	Seconds float64
}
