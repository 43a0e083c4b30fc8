package prsim

import (
	"context"
	"runtime"

	"prsim/internal/core"
	"prsim/internal/engine"
)

// ErrOverloaded is returned by Served.Do and Served.DoBatch when a shard's
// worker pool is saturated and its admission queue is full: the request was
// shed without doing any work. Callers should back off and retry; HTTP
// front-ends map it to 429 Too Many Requests with a Retry-After header.
var ErrOverloaded = engine.ErrOverloaded

// ErrInvalidEpsilon is returned (wrapped with the offending value) when a
// Request.Epsilon lies outside (0, 1). Servers use errors.Is against it to
// classify bad requests.
var ErrInvalidEpsilon = core.ErrInvalidEpsilon

// AdaptiveMode selects how a request's Monte Carlo sampling budget is
// executed: fixed worst-case (AdaptiveOff), variance-based early termination
// (AdaptiveOn), or the serving engine's configured default (AdaptiveAuto,
// the zero value). See Request.Adaptive.
type AdaptiveMode = engine.AdaptiveMode

const (
	// AdaptiveAuto (the zero value) defers to the engine's configured
	// default (EngineOptions.AdaptiveDefault; fixed-budget unless enabled).
	// Index.Do, which has no engine, treats it as AdaptiveOff.
	AdaptiveAuto = engine.AdaptiveAuto
	// AdaptiveOff pins the fixed worst-case sampling budget: bit-identical
	// results to a stack that predates adaptive execution.
	AdaptiveOff = engine.AdaptiveOff
	// AdaptiveOn enables early termination: the query stops at the first
	// confirmed round boundary where an empirical-Bernstein bound certifies
	// the epsilon target, never past the worst-case budget.
	AdaptiveOn = engine.AdaptiveOn
)

// Request is one unit of query work — the single parameter bundle the whole
// stack shares: cmd/prsimserve decodes request bodies into it, Served.Do
// threads it through caching, coalescing and admission control, and Index.Do
// hands it to core, which derives the walk and backward-walk budgets from it.
// The zero value plus a Source asks for the full single-source answer at the
// index's build options.
type Request struct {
	// Source is the query node u.
	Source int
	// Epsilon is the per-request additive error target; zero inherits the
	// index's build epsilon. A larger epsilon trades accuracy for speed — the
	// Monte Carlo sample count scales with 1/ε² — while values below the
	// build epsilon are clamped up to it (the index's reserve lists were
	// pruned at the build epsilon and cannot answer tighter bounds);
	// Response.Clamped reports when that happened. Values outside (0,1) are
	// rejected.
	Epsilon float64
	// K, when positive, asks for the top-k most similar nodes: Response.Top
	// is populated, and when nothing else can see the computed result (not
	// cached, and no other request — a duplicate in the same batch included
	// — joined its computation) an engine answers from pooled storage that
	// never escapes. K = 0 returns the full result; negative K yields an
	// empty Top.
	K int
	// NoCache makes this request bypass the engine's result cache for both
	// lookup and insert. It still coalesces with identical in-flight
	// requests. Ignored by Index.Do, which has no cache.
	NoCache bool
	// Parallelism is the intra-query parallelism hint: how many workers may
	// execute this query's walk chunks. 0 = auto — an engine borrows every
	// idle worker-pool slot (never waiting, so concurrent requests are not
	// starved), while Index.Do uses up to GOMAXPROCS. 1 pins the query
	// serial; larger values cap the fan-out. The hint never changes the
	// result: chunk boundaries, per-chunk RNG streams, and merge order
	// depend only on (seed, source, effective epsilon), so scores are
	// bit-identical at every parallelism level — which is also why the hint
	// is excluded from cache and coalescing identity.
	Parallelism int
	// Adaptive selects the sampling execution mode. AdaptiveOn lets the
	// query terminate its Monte Carlo rounds early once a variance-based
	// confidence bound certifies the epsilon target — typically a large
	// latency win at unchanged accuracy guarantees — while AdaptiveOff pins
	// the fixed worst-case budget (bit-identical to the pre-adaptive stack).
	// AdaptiveAuto (the zero value) follows the engine's configured default.
	// Adaptive execution stays deterministic: for a fixed index seed the
	// stop round, and therefore every score bit, is identical at every
	// parallelism level. The resolved mode is part of cache and coalescing
	// identity, and adaptive requests may additionally be answered by a
	// cached or in-flight computation at a *tighter* epsilon
	// (Response.ServedFromTighter).
	Adaptive AdaptiveMode
	// Graph names the logical graph a Registry routes this request to; empty
	// means DefaultGraph. Ignored by Index.Do and Served.Do, which serve
	// exactly one graph.
	Graph string
	// Class is the admission class: ClassInteractive (the zero value) jumps
	// ahead of queued ClassBatch work whenever an engine worker frees up.
	// The class never changes results — it only shapes queueing. Ignored by
	// Index.Do, which has no admission control.
	Class Class
	// AllowPartial opts a scatter-gathered batch into graceful degradation:
	// when a shard of a remote graph is unavailable (every replica down,
	// circuit breaker open), Served.DoBatch/TopKMerged return the surviving
	// shards' answers flagged Degraded instead of failing with
	// ErrShardUnavailable. Local graphs and single-source requests ignore
	// the flag, and it never changes any per-source answer — only whether
	// an incomplete batch is an error or a partial result.
	AllowPartial bool
}

// toEngine lowers the public request into the engine's parameter bundle.
// Graph is routing metadata consumed before this point; everything else maps
// one-to-one.
func (r Request) toEngine() engine.Request {
	return engine.Request{
		Source:       r.Source,
		Epsilon:      r.Epsilon,
		K:            r.K,
		NoCache:      r.NoCache,
		Parallelism:  r.Parallelism,
		Adaptive:     r.Adaptive,
		Class:        r.Class,
		AllowPartial: r.AllowPartial,
	}
}

// Response is the answer to one Request, carrying the result (or top-k
// selection) plus the request-plane metadata serving layers surface.
type Response struct {
	// Result is the full query result; treat it as read-only — engines share
	// results between callers through the cache and coalescing. Nil when the
	// request asked for top-k only and an engine answered from pooled
	// storage.
	Result *Result
	// Top is the top-K selection in descending score order, with labels
	// resolved against the graph that answered; set when K != 0.
	Top []ScoredNode
	// Epsilon is the effective additive error bound of the request: the build
	// epsilon, or the larger requested one. It reflects what the caller asked
	// for even when range coalescing answered from a tighter computation —
	// see EpsilonServed.
	Epsilon float64
	// EpsilonServed is the epsilon the answering computation actually ran at.
	// Equal to Epsilon except when an adaptive request was served from a
	// cached or in-flight computation at a tighter epsilon, in which case
	// EpsilonServed < Epsilon and ServedFromTighter is set.
	EpsilonServed float64
	// Clamped reports that the requested epsilon was below the index's build
	// epsilon and was raised to it.
	Clamped bool
	// ServedFromTighter reports that an adaptive request was answered by a
	// computation at a strictly tighter epsilon than requested (range
	// coalescing) — strictly more accurate than asked for, never less.
	ServedFromTighter bool
	// CacheHit reports the result came from an engine's LRU cache.
	CacheHit bool
	// Coalesced reports the result was shared from an identical in-flight
	// request's computation rather than computed for this caller.
	Coalesced bool
}

// Do answers one Request directly against the index: per-request epsilon
// (clamped to the build epsilon) resizes the query's sampling budgets, the
// context carries the deadline, and K selects the top-k. Index.Do has no
// cache, coalescing, or admission control — a Registry's Served handle adds
// those; it is the in-process entry point for a single caller.
func (idx *Index) Do(ctx context.Context, req Request) (*Response, error) {
	p := req.Parallelism
	if p <= 0 {
		// Auto without an engine's worker pool: the machine is the pool.
		p = runtime.GOMAXPROCS(0)
	}
	// No engine means no configured default: Auto lowers to Off here.
	q := core.QueryOptions{Epsilon: req.Epsilon, Parallelism: p, Adaptive: req.Adaptive == AdaptiveOn}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	eff, clamped := idx.idx.EffectiveOptions(q)
	res := &core.Result{}
	if err := idx.idx.QueryIntoOpts(ctx, req.Source, res, q); err != nil {
		return nil, err
	}
	pr := wrapResult(idx.g, res)
	resp := &Response{Result: pr, Epsilon: eff.Epsilon, EpsilonServed: eff.Epsilon, Clamped: clamped}
	if req.K != 0 {
		resp.Top = pr.TopK(req.K)
	}
	return resp, nil
}

// wrapResponse lifts an internal engine response into the public type,
// resolving labels and dimensions against the graph that actually answered:
// a hot Swap can land mid-flight, and cached or coalesced results belong to
// the generation that computed them. cur is the caller's current public
// graph, reused when it is the one that answered (the common case — no
// re-wrap per response).
func wrapResponse(cur *Graph, inner *engine.Response) *Response {
	pg := cur
	if inner.Graph != nil && (pg == nil || pg.g != inner.Graph) {
		pg = wrapGraph(inner.Graph)
	}
	resp := &Response{
		Epsilon:           inner.Epsilon,
		EpsilonServed:     inner.EpsilonServed,
		Clamped:           inner.Clamped,
		CacheHit:          inner.CacheHit,
		Coalesced:         inner.Coalesced,
		ServedFromTighter: inner.ServedFromTighter,
	}
	if inner.Result != nil {
		resp.Result = wrapResult(pg, inner.Result)
	}
	if inner.Top != nil {
		out := make([]ScoredNode, len(inner.Top))
		for i, s := range inner.Top {
			out[i] = ScoredNode{Node: s.Node, Label: pg.Label(s.Node), Score: s.Score}
		}
		resp.Top = out
	}
	return resp
}
