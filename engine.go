package prsim

import "prsim/internal/engine"

// EngineOptions configures the concurrent query engine behind each shard of
// a graph mounted in a Registry (GraphConfig.Engine).
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

// EngineStats is a snapshot of one shard engine's request counters, or of a
// whole graph's (Served.Stats, Served.StatsAggregate).
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
	// ChunksExecuted counts walk-phase work chunks the engine's computations
	// ran, including chunks a cancelled computation discarded before the
	// merge; ChunksMerged counts chunks folded into the results they
	// returned. Both count when a computation returns, on the engine that ran
	// it, so executed−merged is the work thrown away by cancellation (plus
	// computations returning at the snapshot instant) — zero under healthy
	// steady load, across hot swaps and at any shard count.
	ChunksExecuted int64
	ChunksMerged   int64
}

// wrapEngineStats lifts internal engine stats into the public type for the
// Registry's per-shard and per-graph stats.
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
