package eval

import (
	"context"
	"fmt"
	"time"

	"prsim/internal/core"
	"prsim/internal/gen"
	"prsim/internal/graph"
)

// UpdateCostRow is one measured batch size of the incremental-update
// experiment.
type UpdateCostRow struct {
	// BatchSize is the number of edge mutations applied in one batch.
	BatchSize int
	// DriftBudget is the UpdateOptions.DriftBudget the apply ran with: 0 is
	// the exact (bit-identical) contract, θ > 0 lets weakly-perturbed hubs
	// carry verbatim at a bounded score drift.
	DriftBudget float64
	// HubsSkippedDrift counts perturbed hubs carried under the budget.
	HubsSkippedDrift int
	// HubsRecomputed / HubsTotal is the slice of the index the batch actually
	// perturbed; FractionHubs is their ratio — the headline update-cost
	// metric (a streamed batch should touch a small minority of hubs).
	HubsRecomputed int
	HubsTotal      int
	FractionHubs   float64
	// FractionEntries is the fraction of the index entry slab rewritten.
	FractionEntries float64
	// ApplyMillis is the incremental ApplyUpdates wall-clock time;
	// RebuildMillis is a full BuildIndex over the mutated graph with the same
	// options; Speedup is their ratio.
	ApplyMillis   float64
	RebuildMillis float64
	Speedup       float64
	// MaxAbsDiff is the largest |incremental − rebuilt| single-source score
	// difference over the sampled queries. Both indexes answer within the
	// additive ε bound of the true values, so this stays within 2ε even when
	// the rebuild elects a different hub set.
	MaxAbsDiff float64
}

// UpdateCostResult bundles the environment of one update-cost run.
type UpdateCostResult struct {
	Nodes       int
	Edges       int
	Epsilon     float64
	NumHubs     int
	BuildMillis float64
	Queries     int
	Rows        []UpdateCostRow
}

// RunUpdateCost measures what a streamed edge mutation costs under the
// incremental maintenance path versus rebuilding the index from scratch. For
// each batch size it applies fresh deterministic edge insertions to the base
// index — once exactly (bit-identical contract) and once under a drift budget
// that carries weakly-perturbed hubs verbatim — recording the fraction of
// hubs recomputed and the apply time, then rebuilds an index over the same
// mutated graph for the wall-clock baseline and an ε-parity spot check
// (sampled single-source queries answered by both indexes must agree within
// the additive error budget; for drift rows the measured diff also shows the
// realized drift). Quick mode uses a ~30k-node graph; full mode the 150k-node
// serving-scale graph.
func RunUpdateCost(cfg Config) (*UpdateCostResult, error) {
	n := 150_000
	opts := core.Options{C: cfg.Decay, Epsilon: 0.05, NumHubs: 2000, SampleScale: cfg.SampleScale, Seed: cfg.Seed}
	if cfg.Quick {
		n = 30_000
		opts.Epsilon = 0.1
		opts.NumHubs = -1
	}
	g, err := gen.PowerLaw(gen.PowerLawOptions{
		N: n, AvgDegree: 10, Gamma: 2.5, Directed: true, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	base, err := core.BuildIndex(g, opts)
	if err != nil {
		return nil, err
	}
	buildMillis := float64(time.Since(start).Nanoseconds()) / 1e6

	queries := cfg.Queries
	if queries <= 0 || queries > 50 {
		queries = 20
	}
	sources := make([]int, queries)
	for i := range sources {
		sources[i] = (i * (n / queries)) % n
	}

	res := &UpdateCostResult{
		Nodes:       g.N(),
		Edges:       g.M(),
		Epsilon:     opts.Epsilon,
		NumHubs:     base.NumHubs(),
		BuildMillis: buildMillis,
		Queries:     queries,
	}
	// Each batch size runs the apply twice — exact (budget 0) and with the
	// drift budget — against one shared rebuild baseline (both applies derive
	// the identical mutated graph, so one rebuild serves as both the
	// wall-clock baseline and the parity reference).
	const driftBudget = 1.0
	for _, batch := range []int{1, 8, 64} {
		ups := make([]graph.EdgeUpdate, batch)
		for i := range ups {
			// Deterministic fresh insertions spread across the node range;
			// avoid self loops.
			u := (i*9973 + 17) % n
			v := (u + i*31 + 1) % n
			if v == u {
				v = (v + 1) % n
			}
			ups[i] = graph.EdgeUpdate{From: u, To: v}
		}
		var rebuilt *core.Index
		var rebuildMillis float64
		for _, budget := range []float64{0, driftBudget} {
			start = time.Now()
			nidx, st, err := base.ApplyUpdatesOpts(ups, core.UpdateOptions{DriftBudget: budget})
			if err != nil {
				return nil, fmt.Errorf("eval: updatecost batch %d (drift %v): %w", batch, budget, err)
			}
			applyMillis := float64(time.Since(start).Nanoseconds()) / 1e6

			if rebuilt == nil {
				start = time.Now()
				rebuilt, err = core.BuildIndex(nidx.Graph(), opts)
				if err != nil {
					return nil, fmt.Errorf("eval: updatecost rebuild %d: %w", batch, err)
				}
				rebuildMillis = float64(time.Since(start).Nanoseconds()) / 1e6
			}

			maxDiff := 0.0
			for _, s := range sources {
				var inc, ref core.Result
				if err := nidx.QueryIntoOpts(context.Background(), s, &inc, core.QueryOptions{}); err != nil {
					return nil, err
				}
				if err := rebuilt.QueryIntoOpts(context.Background(), s, &ref, core.QueryOptions{}); err != nil {
					return nil, err
				}
				for v, sc := range inc.Scores {
					if d := sc - ref.Scores[v]; d > maxDiff {
						maxDiff = d
					} else if -d > maxDiff {
						maxDiff = -d
					}
				}
				for v, sc := range ref.Scores {
					if _, ok := inc.Scores[v]; !ok && sc > maxDiff {
						maxDiff = sc
					}
				}
			}

			res.Rows = append(res.Rows, UpdateCostRow{
				BatchSize:        batch,
				DriftBudget:      budget,
				HubsSkippedDrift: st.HubsSkippedDrift,
				HubsRecomputed:   st.HubsRecomputed,
				HubsTotal:        st.HubsTotal,
				FractionHubs:     st.FractionHubs,
				FractionEntries:  st.FractionEntries,
				ApplyMillis:      applyMillis,
				RebuildMillis:    rebuildMillis,
				Speedup:          rebuildMillis / applyMillis,
				MaxAbsDiff:       maxDiff,
			})
		}
	}
	return res, nil
}
