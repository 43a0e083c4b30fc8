package eval

import (
	"context"
	"runtime"
	"time"

	"prsim/internal/core"
	"prsim/internal/gen"
)

// QueryPathResult reports the per-query cost of the single-source hot path on
// the standard power-law benchmark graph, together with the work breakdown
// that makes kernel regressions attributable: how much of a query was √c-walk
// sampling (Walks), Variance Bounded Backward Walk increments
// (BackwardWalkCost), and index reads (IndexEntriesRead).
type QueryPathResult struct {
	// Nodes/Edges describe the benchmark graph; Queries is the number of
	// measured queries (after one warm-up).
	Nodes   int
	Edges   int
	Queries int
	// Epsilon and SampleScale pin the accuracy configuration the numbers
	// were measured at (query cost scales with 1/ε²·SampleScale).
	Epsilon     float64
	SampleScale float64
	// NsPerQuery is the mean wall-clock nanoseconds per query.
	NsPerQuery float64
	// AllocsPerQuery and BytesPerQuery are the mean heap allocations and
	// bytes per steady-state query (QueryIntoOpts with a reused result, the
	// serving configuration) — the pooled-scratch guarantee says these stay
	// near zero.
	AllocsPerQuery float64
	BytesPerQuery  float64
	// Walks, BackwardWalkCost, IndexEntriesRead, HubHits and NonHubHits are
	// per-query means of the corresponding QueryStats counters.
	Walks            float64
	BackwardWalkCost float64
	IndexEntriesRead float64
	HubHits          float64
	NonHubHits       float64
	// EpsilonSweep reports the same workload re-run at per-request epsilon
	// multiples of the build epsilon through the request plane: one index,
	// several accuracy/latency tiers.
	EpsilonSweep []EpsilonTier
	// ParallelSweep reports the same workload re-run at increasing
	// intra-query parallelism. Scores are bit-identical across tiers (the
	// chunk decomposition and merge order never depend on the worker count),
	// so Speedup is pure wall-clock scaling of the walk phase.
	ParallelSweep []ParallelTier
}

// EpsilonTier is one per-request accuracy tier of the epsilon sweep.
type EpsilonTier struct {
	// Multiple is the requested epsilon as a multiple of the build epsilon
	// (1 = the default request).
	Multiple float64
	// Epsilon is the effective per-request epsilon.
	Epsilon float64
	// NsPerQuery is the mean wall-clock nanoseconds per query at this tier.
	NsPerQuery float64
	// Speedup is the default tier's NsPerQuery divided by this tier's.
	Speedup float64
	// Walks, BackwardWalkCost and IndexEntriesRead are per-query means.
	Walks            float64
	BackwardWalkCost float64
	IndexEntriesRead float64
}

// ParallelTier is one worker count of the intra-query parallelism sweep.
type ParallelTier struct {
	// Parallelism is the requested worker count; Chunks is the mean number
	// of walk chunks each query split into (the fan-out ceiling).
	Parallelism int
	Chunks      float64
	// NsPerQuery is the mean wall-clock nanoseconds per query at this level.
	NsPerQuery float64
	// Speedup is the serial tier's NsPerQuery divided by this tier's.
	Speedup float64
}

// RunQueryPath builds the standard power-law benchmark graph (150k nodes in
// full mode, 30k in quick mode, average degree 10, γ = 2.5), indexes it, and
// measures steady-state single-source queries through the pooled
// QueryIntoOpts path. It is the experiment behind the kernel benchmarks:
// prsimbench -experiment querypath -cpuprofile lets the per-sample cost of
// every kernel change be attributed to walks, backward walks, or index reads.
func RunQueryPath(cfg Config) (*QueryPathResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := 150_000
	if cfg.Quick {
		n = 30_000
	}
	g, err := gen.PowerLaw(gen.PowerLawOptions{
		N: n, AvgDegree: 10, Gamma: 2.5, Directed: true, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	opts := core.Options{
		C: cfg.Decay,
		// 0.2 rather than the historical 0.25 so the epsilon sweep's 4x tier
		// (0.8) stays inside the valid (0,1) range.
		Epsilon:     0.2,
		NumHubs:     -1, // automatic √n hub selection (0 would be index-free)
		SampleScale: cfg.SampleScale,
		Seed:        cfg.Seed,
	}
	idx, err := core.BuildIndex(g, opts)
	if err != nil {
		return nil, err
	}
	res := &QueryPathResult{
		Nodes:       g.N(),
		Edges:       g.M(),
		Queries:     cfg.Queries,
		Epsilon:     opts.Epsilon,
		SampleScale: cfg.SampleScale,
	}

	sources := make([]int, cfg.Queries)
	for i := range sources {
		sources[i] = (i * 131) % g.N()
	}
	// One warm-up query populates the scratch pool and the reused result, so
	// the measured loop sees the steady state a serving worker sees.
	var r core.Result
	if err := idx.QueryIntoOpts(context.Background(), sources[0], &r, core.QueryOptions{}); err != nil {
		return nil, err
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for _, u := range sources {
		if err := idx.QueryIntoOpts(context.Background(), u, &r, core.QueryOptions{}); err != nil {
			return nil, err
		}
		res.Walks += float64(r.Stats.Walks)
		res.BackwardWalkCost += float64(r.Stats.BackwardWalkCost)
		res.IndexEntriesRead += float64(r.Stats.IndexEntriesRead)
		res.HubHits += float64(r.Stats.HubHits)
		res.NonHubHits += float64(r.Stats.NonHubHits)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	q := float64(cfg.Queries)
	res.NsPerQuery = float64(elapsed.Nanoseconds()) / q
	res.AllocsPerQuery = float64(after.Mallocs-before.Mallocs) / q
	res.BytesPerQuery = float64(after.TotalAlloc-before.TotalAlloc) / q
	res.Walks /= q
	res.BackwardWalkCost /= q
	res.IndexEntriesRead /= q
	res.HubHits /= q
	res.NonHubHits /= q

	// Epsilon sweep: the same sources re-queried through the request plane
	// at multiples of the build epsilon. One index serves every tier; only
	// the per-request budgets change.
	for _, mult := range []float64{1, 2, 4} {
		tier := EpsilonTier{Multiple: mult}
		qopts := core.QueryOptions{}
		if mult != 1 {
			qopts.Epsilon = mult * opts.Epsilon
		}
		// Warm up the tier so pooled buffers are sized before timing.
		if err := idx.QueryIntoOpts(context.Background(), sources[0], &r, qopts); err != nil {
			return nil, err
		}
		start := time.Now()
		for _, u := range sources {
			if err := idx.QueryIntoOpts(context.Background(), u, &r, qopts); err != nil {
				return nil, err
			}
			tier.Walks += float64(r.Stats.Walks)
			tier.BackwardWalkCost += float64(r.Stats.BackwardWalkCost)
			tier.IndexEntriesRead += float64(r.Stats.IndexEntriesRead)
			tier.Epsilon = r.Stats.Epsilon
		}
		tier.NsPerQuery = float64(time.Since(start).Nanoseconds()) / q
		tier.Walks /= q
		tier.BackwardWalkCost /= q
		tier.IndexEntriesRead /= q
		res.EpsilonSweep = append(res.EpsilonSweep, tier)
	}
	base := res.EpsilonSweep[0].NsPerQuery
	for i := range res.EpsilonSweep {
		if ns := res.EpsilonSweep[i].NsPerQuery; ns > 0 {
			res.EpsilonSweep[i].Speedup = base / ns
		}
	}

	// Parallel sweep: the same sources at increasing intra-query parallelism.
	// Every tier computes bit-identical scores; the only variable is how many
	// workers execute each query's walk chunks.
	maxP := cfg.MaxParallel
	if maxP <= 0 {
		maxP = runtime.GOMAXPROCS(0)
	}
	levels := []int{1}
	for p := 2; p < maxP; p *= 2 {
		levels = append(levels, p)
	}
	if maxP > 1 {
		levels = append(levels, maxP)
	}
	for _, p := range levels {
		tier := ParallelTier{Parallelism: p}
		qopts := core.QueryOptions{Parallelism: p}
		if err := idx.QueryIntoOpts(context.Background(), sources[0], &r, qopts); err != nil {
			return nil, err
		}
		start := time.Now()
		for _, u := range sources {
			if err := idx.QueryIntoOpts(context.Background(), u, &r, qopts); err != nil {
				return nil, err
			}
			tier.Chunks += float64(r.Stats.Chunks)
		}
		tier.NsPerQuery = float64(time.Since(start).Nanoseconds()) / q
		tier.Chunks /= q
		res.ParallelSweep = append(res.ParallelSweep, tier)
	}
	serial := res.ParallelSweep[0].NsPerQuery
	for i := range res.ParallelSweep {
		if ns := res.ParallelSweep[i].NsPerQuery; ns > 0 {
			res.ParallelSweep[i].Speedup = serial / ns
		}
	}
	return res, nil
}
