package prsim

import (
	"context"
	"fmt"
	"sync/atomic"

	"prsim/internal/engine"
)

// EngineOptions configures a concurrent query engine.
type EngineOptions struct {
	// Workers is the size of the worker pool: it bounds the computations
	// executing concurrently, counting the idle slots a computation borrows
	// for its walk phases. Zero means GOMAXPROCS.
	Workers int
	// CacheSize is the number of single-source results kept in an LRU cache
	// keyed by (generation, source, effective epsilon); zero disables
	// caching. Cached results are shared between callers: treat them as
	// read-only.
	CacheSize int
	// MaxQueue bounds how many requests may wait for a worker slot before
	// new arrivals are shed with ErrOverloaded. Zero means the default bound
	// (max(32, 4×Workers)); negative disables shedding (unbounded waiting).
	// Cache hits and coalesced joiners never occupy queue slots.
	MaxQueue int
	// AdaptiveDefault makes requests with Adaptive == AdaptiveAuto (the zero
	// value) run with variance-based early termination. Requests that set
	// AdaptiveOff or AdaptiveOn explicitly are unaffected.
	AdaptiveDefault bool
}

// Engine is a throughput-oriented concurrent front-end over one index: a
// bounded worker pool, batched multi-source queries, an optional result
// cache, and request statistics. PRSim single-source queries are sublinear
// and independent (the point of the paper), so they scale near-linearly with
// workers; results are bit-identical to sequential Index.Query calls
// regardless of worker count or scheduling.
//
// An Engine is safe for concurrent use and needs no shutdown. The index it
// serves can be hot-swapped with Swap — typically for a freshly re-opened
// snapshot — without dropping in-flight requests.
type Engine struct {
	cur atomic.Pointer[Index]
	eng *engine.Engine
}

// NewEngine builds an engine over an index. When the index is backed by a
// snapshot, every query retains the snapshot for its duration, so a
// swapped-out snapshot can be Closed while traffic drains.
func NewEngine(idx *Index, opts EngineOptions) (*Engine, error) {
	if idx == nil {
		return nil, fmt.Errorf("prsim: nil index")
	}
	eng, err := engine.New(idx.idx, engine.Options{
		Workers:         opts.Workers,
		CacheSize:       opts.CacheSize,
		MaxQueue:        opts.MaxQueue,
		AdaptiveDefault: opts.AdaptiveDefault,
		Resource:        idx.engineResource(),
	})
	if err != nil {
		return nil, err
	}
	e := &Engine{eng: eng}
	e.cur.Store(idx)
	return e, nil
}

// Workers returns the engine's concurrency bound.
func (e *Engine) Workers() int { return e.eng.Workers() }

// Current returns the index the engine is serving right now.
func (e *Engine) Current() *Index { return e.cur.Load() }

// Generation returns the swap generation of the served index: 0 at creation,
// incremented by every Swap.
func (e *Engine) Generation() uint64 { return e.eng.Generation() }

// Swap atomically replaces the served index and returns the previous one.
// In-flight queries finish against the old index; new queries (and cache
// lookups, which are keyed by generation) see the new one immediately, and
// the result cache is invalidated. The caller should Close the returned
// index once it is done with it — for snapshot-backed indexes the unmap is
// deferred until drained queries release it.
func (e *Engine) Swap(idx *Index) (*Index, error) {
	if idx == nil {
		return nil, fmt.Errorf("prsim: nil index")
	}
	// Start readahead of the new snapshot's hot sections before publishing
	// it, so the kernel pre-faults pages while the old index still serves
	// and the first post-swap queries don't hit the page-fault cliff
	// (no-op for heap-backed indexes; harmless if the swap then fails).
	idx.WarmUp()
	if err := e.eng.Swap(idx.idx, idx.engineResource()); err != nil {
		return nil, err
	}
	return e.cur.Swap(idx), nil
}

// Query answers one single-source query through the worker pool and cache —
// a shim over Do with a zero Request. The result carries the graph it was
// computed on, so labels stay correct even when a Swap lands mid-flight or
// the result came from the cache.
func (e *Engine) Query(ctx context.Context, u int) (*Result, error) {
	resp, err := e.Do(ctx, Request{Source: u})
	if err != nil {
		return nil, err
	}
	return resp.Result, nil
}

// QueryBatch answers one query per source, in order — a shim over DoBatch
// with a zero Request, so the cache-missing sources run as one fused
// computation. The batch fails on its first error.
func (e *Engine) QueryBatch(ctx context.Context, sources []int) ([]*Result, error) {
	inner, err := e.eng.QueryBatch(ctx, sources)
	if err != nil {
		return nil, err
	}
	return wrapResults(e.cur.Load().g, inner), nil
}

// TopK answers a single-source query from u and returns its k most similar
// nodes (excluding u itself) in descending score order — a shim over Do with
// Request.K set. Negative k is treated as zero.
//
// Selection uses a bounded heap (O(support·log k), not a full sort), and
// when the engine runs without a result cache the query executes into a
// pooled result that never escapes the engine — a steady /topk workload
// allocates only the returned slice. Labels resolve against the graph that
// actually answered, even when a hot Swap lands mid-flight.
func (e *Engine) TopK(ctx context.Context, u, k int) ([]ScoredNode, error) {
	if k < 0 {
		k = 0
	}
	resp, err := e.Do(ctx, Request{Source: u, K: k})
	if err != nil {
		return nil, err
	}
	if resp.Top == nil {
		return []ScoredNode{}, nil
	}
	return resp.Top, nil
}

// Pair estimates the single-pair SimRank s(u, v).
func (e *Engine) Pair(ctx context.Context, u, v int) (float64, error) {
	return e.eng.Pair(ctx, u, v)
}

// EngineStats is a snapshot of an engine's request counters.
type EngineStats struct {
	// Workers is the concurrency bound.
	Workers int
	// MaxQueue is the admission queue bound (-1 when shedding is disabled).
	MaxQueue int
	// Generation is the swap generation of the served index (0 until the
	// first Swap).
	Generation uint64
	// Swaps counts hot index swaps performed.
	Swaps int64
	// CacheReuses counts swaps that kept (re-keyed) the result cache because
	// the incoming index serves an identical graph with identical options.
	CacheReuses int64
	// Queries counts single-source requests answered, including cache hits
	// and coalesced joiners.
	Queries int64
	// CacheHits counts requests answered from the LRU cache.
	CacheHits int64
	// Coalesced counts requests that shared an identical in-flight
	// computation instead of running their own.
	Coalesced int64
	// RangeCoalesced counts adaptive requests answered by a cached or
	// in-flight computation at a strictly tighter epsilon than requested
	// (a subset of CacheHits + Coalesced).
	RangeCoalesced int64
	// EarlyStops counts computations whose adaptive stop rule fired before
	// the worst-case round budget. RoundsExecuted and RoundsBudget sum the
	// actual and worst-case Monte Carlo rounds over all computations; their
	// ratio is the fraction of the sampling budget actually spent.
	EarlyStops     int64
	RoundsExecuted int64
	RoundsBudget   int64
	// Shed counts requests rejected with ErrOverloaded by admission control,
	// summed over both classes.
	Shed int64
	// QueueDepth is the instantaneous number of requests waiting for a
	// worker slot, summed over both classes.
	QueueDepth int64
	// Interactive and Batch break admission activity down per class: the
	// engine queues ClassInteractive and ClassBatch requests separately,
	// dispatches interactive first, and tracks each class's service-time
	// telemetry (which deadline shedding and Retry-After derive from).
	Interactive ClassStats
	Batch       ClassStats
	// CacheEntries is the current number of cached results.
	CacheEntries int
	// PairQueries counts single-pair queries.
	PairQueries int64
	// Errors counts failed, shed, or cancelled requests.
	Errors int64
	// ParallelQueries counts computations — solo queries or fused batches —
	// whose walk phase ran on more than one worker (intra-query parallelism
	// engaged); a fused batch counts once regardless of its source count.
	ParallelQueries int64
	// ChunksExecuted counts walk-phase work chunks actually run, including
	// chunks a cancelled query discarded before the merge; ChunksMerged
	// counts chunks folded into query results. Executed−merged is the work
	// thrown away by cancellation (plus phases in flight at the snapshot
	// instant) — zero under healthy steady load.
	ChunksExecuted int64
	ChunksMerged   int64
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() EngineStats {
	return wrapEngineStats(e.eng.Stats())
}

// wrapEngineStats lifts internal engine stats into the public type; shared
// by Engine.Stats and the Registry's per-graph stats.
func wrapEngineStats(s engine.Stats) EngineStats {
	return EngineStats{
		Workers:        s.Workers,
		MaxQueue:       s.MaxQueue,
		Generation:     s.Generation,
		Swaps:          s.Swaps,
		CacheReuses:    s.CacheReuses,
		Queries:        s.Queries,
		CacheHits:      s.CacheHits,
		Coalesced:      s.Coalesced,
		RangeCoalesced: s.RangeCoalesced,
		EarlyStops:     s.EarlyStops,
		RoundsExecuted: s.RoundsExecuted,
		RoundsBudget:   s.RoundsBudget,
		Shed:           s.Shed,
		QueueDepth:     s.QueueDepth,
		CacheEntries:   s.CacheEntries,
		PairQueries:    s.PairQueries,
		Errors:         s.Errors,
		Interactive: ClassStats{
			Queries:      s.Interactive.Queries,
			Shed:         s.Interactive.Shed,
			QueueDepth:   s.Interactive.QueueDepth,
			AvgServiceNs: s.Interactive.AvgServiceNs,
		},
		Batch: ClassStats{
			Queries:      s.Batch.Queries,
			Shed:         s.Batch.Shed,
			QueueDepth:   s.Batch.QueueDepth,
			AvgServiceNs: s.Batch.AvgServiceNs,
		},

		ParallelQueries: s.ParallelQueries,
		ChunksExecuted:  s.ChunksExecuted,
		ChunksMerged:    s.ChunksMerged,
	}
}
