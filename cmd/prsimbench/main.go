// Command prsimbench regenerates the tables and figures of the PRSim paper's
// evaluation section on the synthetic dataset stand-ins. Each experiment
// prints the series the corresponding figure plots; README "Commands" and
// "Tests and benchmarks" list the experiments and how to run them.
//
// Usage:
//
//	prsimbench -experiment fig2 [-full] [-datasets DB,LJ] [-queries 10]
//	prsimbench -experiment querypath -full -cpuprofile cpu.prof
//	prsimbench -experiment all
//
// Experiments: fig1, fig2, fig3, fig4, fig5, fig6a, fig6b, fig7a, fig7b,
// hubsweep, backwardwalk, secondmoment, loadtime, querypath, updatecost, all.
//
// -cpuprofile / -memprofile write pprof profiles covering the selected
// experiment, so kernel changes can be attributed function by function (see
// the README's profiling guide). The querypath experiment reports ns/query,
// allocs/query and the Walks / BackwardWalkCost / IndexEntriesRead breakdown
// of the single-source hot path on the standard power-law benchmark graph
// (150k nodes with -full, 30k without).
//
// The loadtime experiment benchmarks the full serving cold start (graph +
// index): an edge-list parse plus an index read onto the heap or mapped,
// against the self-contained snapshot, which maps both out of one file (use
// -full for the ≥100k-node configuration).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"text/tabwriter"

	"prsim/internal/dataset"
	"prsim/internal/eval"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment to run (fig1..fig7b, hubsweep, backwardwalk, secondmoment, loadtime, querypath, updatecost, adaptive, all)")
		full       = flag.Bool("full", false, "use the full (slower) configuration instead of the quick one")
		datasets   = flag.String("datasets", "", "comma-separated dataset subset for fig2-fig5 (default: all five)")
		queries    = flag.Int("queries", 0, "override the number of queries per measurement")
		parallel   = flag.Int("parallel", 0, "cap the querypath intra-query parallelism sweep (0 = GOMAXPROCS)")
		seed       = flag.Uint64("seed", 1, "random seed")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile covering the experiment to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile taken after the experiment to this file")
	)
	flag.Parse()

	cfg := eval.QuickConfig()
	if *full {
		cfg = eval.FullConfig()
	}
	if *queries > 0 {
		cfg.Queries = *queries
	}
	cfg.MaxParallel = *parallel
	cfg.Seed = *seed

	var names []string
	if *datasets != "" {
		names = strings.Split(*datasets, ",")
	} else {
		names = dataset.Names()
	}

	var stopCPUProfile func()
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "prsimbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "prsimbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		stopCPUProfile = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}

	if err := run(*experiment, cfg, names); err != nil {
		// Flush the profile even on failure — a truncated cpu.prof is useless
		// exactly when a profile of the failing run is wanted, and os.Exit
		// does not run defers.
		if stopCPUProfile != nil {
			stopCPUProfile()
		}
		fmt.Fprintf(os.Stderr, "prsimbench: %v\n", err)
		os.Exit(1)
	}
	if stopCPUProfile != nil {
		stopCPUProfile()
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "prsimbench: -memprofile: %v\n", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "prsimbench: -memprofile: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}
}

func run(experiment string, cfg eval.Config, datasets []string) error {
	switch strings.ToLower(experiment) {
	case "fig1":
		return runFigure1(cfg)
	case "fig2", "fig3", "fig4", "fig5", "tradeoffs":
		return runTradeoffs(cfg, datasets)
	case "fig6a":
		return runFigure6a(cfg)
	case "fig6b":
		return runFigure6b(cfg)
	case "fig7a", "fig7b", "fig7":
		return runFigure7(cfg)
	case "hubsweep":
		return runHubSweep(cfg)
	case "backwardwalk":
		return runBackwardWalk(cfg)
	case "secondmoment":
		return runSecondMoment(cfg, datasets)
	case "loadtime", "snapshot":
		return runLoadTime(cfg)
	case "querypath", "kernel":
		return runQueryPath(cfg)
	case "updatecost", "dynamic":
		return runUpdateCost(cfg)
	case "adaptive":
		return runAdaptive(cfg)
	case "all":
		for _, exp := range []string{"fig1", "tradeoffs", "fig6a", "fig6b", "fig7", "hubsweep", "backwardwalk", "secondmoment", "loadtime", "querypath", "updatecost", "adaptive"} {
			if err := run(exp, cfg, datasets); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", experiment)
	}
}

func newTable(header ...string) (*tabwriter.Writer, func()) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(header, "\t"))
	return w, func() { w.Flush() }
}

func runFigure1(cfg eval.Config) error {
	fmt.Println("=== Figure 1: out-degree distributions of IT and TW ===")
	rows, gammas, err := eval.RunFigure1(cfg)
	if err != nil {
		return err
	}
	// Print a compressed view: a handful of quantile points per dataset.
	byDataset := map[string][]eval.Figure1Row{}
	for _, r := range rows {
		byDataset[r.Dataset] = append(byDataset[r.Dataset], r)
	}
	w, flush := newTable("dataset", "degree k", "P(out-degree >= k)")
	defer flush()
	for _, name := range []string{"IT", "TW"} {
		ds := byDataset[name]
		sort.Slice(ds, func(i, j int) bool { return ds[i].Degree < ds[j].Degree })
		step := len(ds) / 10
		if step < 1 {
			step = 1
		}
		for i := 0; i < len(ds); i += step {
			fmt.Fprintf(w, "%s\t%d\t%.6f\n", name, ds[i].Degree, ds[i].Fraction)
		}
	}
	for name, gamma := range gammas {
		fmt.Printf("fitted cumulative out-degree exponent gamma(%s) = %.2f\n", name, gamma)
	}
	return nil
}

func runTradeoffs(cfg eval.Config, datasets []string) error {
	fmt.Println("=== Figures 2-5: accuracy vs query time / index size / preprocessing ===")
	rows, err := eval.RunTradeoffs(cfg, datasets)
	if err != nil {
		return err
	}
	w, flush := newTable("dataset", "algorithm", "params", "query time (s)", "AvgError@50", "Precision@50", "index (MB)", "preprocessing (s)")
	defer flush()
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%s\t%.4f\t%.4f\t%.3f\t%.2f\t%.3f\n",
			r.Dataset, r.Algorithm, r.Param, r.QueryTimeSec, r.AvgErrorAt50, r.PrecisionAt50,
			float64(r.IndexBytes)/(1<<20), r.PrepSeconds)
	}
	return nil
}

func runFigure6a(cfg eval.Config) error {
	fmt.Println("=== Figure 6(a): query time vs power-law exponent gamma ===")
	rows, err := eval.RunFigure6a(cfg)
	if err != nil {
		return err
	}
	w, flush := newTable("gamma", "algorithm", "query time (s)")
	defer flush()
	for _, r := range rows {
		fmt.Fprintf(w, "%.1f\t%s\t%.5f\n", r.Gamma, r.Algorithm, r.QueryTimeSec)
	}
	return nil
}

func runFigure6b(cfg eval.Config) error {
	fmt.Println("=== Figure 6(b): PRSim query time vs graph size (gamma=3, d=10) ===")
	rows, err := eval.RunFigure6b(cfg)
	if err != nil {
		return err
	}
	w, flush := newTable("n", "query time (s)")
	defer flush()
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%.5f\n", r.N, r.QueryTimeSec)
	}
	return nil
}

func runFigure7(cfg eval.Config) error {
	fmt.Println("=== Figure 7: Erdos-Renyi graphs, query time (a) and index size (b) vs average degree ===")
	rows, err := eval.RunFigure7(cfg)
	if err != nil {
		return err
	}
	w, flush := newTable("avg degree", "algorithm", "query time (s)", "index (MB)")
	defer flush()
	for _, r := range rows {
		fmt.Fprintf(w, "%.0f\t%s\t%.5f\t%.2f\n", r.AvgDegree, r.Algorithm, r.QueryTimeSec, float64(r.IndexBytes)/(1<<20))
	}
	return nil
}

func runHubSweep(cfg eval.Config) error {
	fmt.Println("=== Ablation: hub count j0 vs index size and query time ===")
	rows, err := eval.RunHubSweep(cfg)
	if err != nil {
		return err
	}
	w, flush := newTable("j0", "index entries", "index (MB)", "preprocessing (s)", "query time (s)")
	defer flush()
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%.2f\t%.3f\t%.5f\n",
			r.NumHubs, r.IndexEntries, float64(r.IndexBytes)/(1<<20), r.PrepSeconds, r.QueryTimeSec)
	}
	return nil
}

func runBackwardWalk(cfg eval.Config) error {
	fmt.Println("=== Ablation: simple vs variance-bounded backward walk ===")
	rows, err := eval.RunBackwardWalkAblation(cfg)
	if err != nil {
		return err
	}
	w, flush := newTable("algorithm", "mean", "exact", "variance", "max estimate", "cost/run")
	defer flush()
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.5f\t%.5f\t%.6f\t%.4f\t%.1f\n",
			r.Algorithm, r.Mean, r.Exact, r.Variance, r.MaxValue, r.CostPerRun)
	}
	return nil
}

func runLoadTime(cfg eval.Config) error {
	fmt.Println("=== Cold start: edge-list parse + index vs self-contained snapshot ===")
	res, err := eval.RunLoadTime(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("graph: %d nodes, %d edges; snapshot: %.2f MB\n",
		res.Nodes, res.Edges, float64(res.IndexBytes)/(1<<20))
	w, flush := newTable("mode", "cold start (ms)", "speedup", "first query (ms)")
	defer flush()
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%s\t%.3f\t%.1fx\t%.3f\n", r.Mode, r.Millis, r.Speedup, r.FirstQueryMillis)
	}
	return nil
}

func runQueryPath(cfg eval.Config) error {
	fmt.Println("=== Query hot path: per-query cost and work breakdown ===")
	res, err := eval.RunQueryPath(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("graph: %d nodes, %d edges; epsilon=%.2f sample-scale=%.2f; %d queries (1 warm-up)\n",
		res.Nodes, res.Edges, res.Epsilon, res.SampleScale, res.Queries)
	w, flush := newTable("metric", "per query")
	defer flush()
	fmt.Fprintf(w, "time (ms)\t%.3f\n", res.NsPerQuery/1e6)
	fmt.Fprintf(w, "allocs\t%.1f\n", res.AllocsPerQuery)
	fmt.Fprintf(w, "alloc bytes\t%.0f\n", res.BytesPerQuery)
	fmt.Fprintf(w, "walks sampled\t%.0f\n", res.Walks)
	fmt.Fprintf(w, "backward-walk cost\t%.0f\n", res.BackwardWalkCost)
	fmt.Fprintf(w, "index entries read\t%.0f\n", res.IndexEntriesRead)
	fmt.Fprintf(w, "hub hits\t%.0f\n", res.HubHits)
	fmt.Fprintf(w, "non-hub hits\t%.0f\n", res.NonHubHits)
	flush()

	fmt.Println("\n--- per-request epsilon sweep (one index, request-plane override) ---")
	w2, flush2 := newTable("request epsilon", "time (ms)", "speedup", "walks", "backward-walk cost", "index reads")
	defer flush2()
	for _, tier := range res.EpsilonSweep {
		fmt.Fprintf(w2, "%.2f (%gx build)\t%.3f\t%.2fx\t%.0f\t%.0f\t%.0f\n",
			tier.Epsilon, tier.Multiple, tier.NsPerQuery/1e6, tier.Speedup,
			tier.Walks, tier.BackwardWalkCost, tier.IndexEntriesRead)
	}
	flush2()

	fmt.Println("\n--- intra-query parallelism sweep (bit-identical scores at every level) ---")
	w3, flush3 := newTable("parallelism", "time (ms)", "speedup", "walk chunks")
	defer flush3()
	for _, tier := range res.ParallelSweep {
		fmt.Fprintf(w3, "%d\t%.3f\t%.2fx\t%.0f\n",
			tier.Parallelism, tier.NsPerQuery/1e6, tier.Speedup, tier.Chunks)
	}
	return nil
}

func runUpdateCost(cfg eval.Config) error {
	fmt.Println("=== Dynamic graphs: incremental hub maintenance vs full rebuild ===")
	res, err := eval.RunUpdateCost(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("graph: %d nodes, %d edges; epsilon=%.2f, %d hubs; full build %.0f ms; parity over %d queries\n",
		res.Nodes, res.Edges, res.Epsilon, res.NumHubs, res.BuildMillis, res.Queries)
	w, flush := newTable("batch", "mode", "hubs recomputed", "fraction", "entries rewritten", "apply (ms)", "rebuild (ms)", "speedup", "max |diff|")
	defer flush()
	for _, r := range res.Rows {
		mode := "exact"
		if r.DriftBudget > 0 {
			mode = fmt.Sprintf("drift %.3g (skipped %d)", r.DriftBudget, r.HubsSkippedDrift)
		}
		fmt.Fprintf(w, "%d\t%s\t%d/%d\t%.1f%%\t%.1f%%\t%.1f\t%.1f\t%.1fx\t%.4f (2eps=%.2f)\n",
			r.BatchSize, mode, r.HubsRecomputed, r.HubsTotal, 100*r.FractionHubs,
			100*r.FractionEntries, r.ApplyMillis, r.RebuildMillis, r.Speedup,
			r.MaxAbsDiff, 2*res.Epsilon)
	}
	return nil
}

func runAdaptive(cfg eval.Config) error {
	fmt.Println("=== Adaptive sampling: early termination vs the fixed worst-case budget ===")
	res, err := eval.RunAdaptive(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("graph: %d nodes, %d edges; build epsilon=%.2f sample-scale=%.2f; %d queries/tier, round budget %d, oracle %s (%d pooled sources)\n",
		res.Nodes, res.Edges, res.Epsilon, res.SampleScale, res.Queries, res.RoundsBudget, res.Oracle, res.ErrorQueries)
	w, flush := newTable("request epsilon", "fixed median (ms)", "fixed p99 (ms)", "adaptive median (ms)", "adaptive p99 (ms)", "speedup", "rounds", "stop rate", "fixed max err", "adaptive max err")
	defer flush()
	for _, t := range res.Tiers {
		fmt.Fprintf(w, "%.2f (%gx build)\t%.3f\t%.3f\t%.3f\t%.3f\t%.2fx\t%.1f/%d\t%.0f%%\t%.4f\t%.4f\n",
			t.Epsilon, t.Multiple, t.FixedMedianNs/1e6, t.FixedP99Ns/1e6,
			t.AdaptiveMedianNs/1e6, t.AdaptiveP99Ns/1e6, t.Speedup,
			t.RoundsExecuted, res.RoundsBudget, 100*t.EarlyStopRate,
			t.FixedMaxError, t.AdaptiveMaxError)
	}
	flush()

	fmt.Println("\n--- rounds saved by adaptive queries (fraction of the round budget) ---")
	w2, flush2 := newTable("request epsilon", "[0,20%)", "[20,40%)", "[40,60%)", "[60,80%)", "[80,100%]")
	defer flush2()
	for _, t := range res.Tiers {
		h := t.RoundsSavedHist
		fmt.Fprintf(w2, "%.2f\t%d\t%d\t%d\t%d\t%d\n", t.Epsilon, h[0], h[1], h[2], h[3], h[4])
	}
	return nil
}

func runSecondMoment(cfg eval.Config, datasets []string) error {
	fmt.Println("=== Hardness measure: reverse-PageRank second moment per dataset ===")
	rows, err := eval.RunSecondMoments(cfg, datasets)
	if err != nil {
		return err
	}
	w, flush := newTable("dataset", "sum pi(w)^2", "fitted gamma")
	defer flush()
	for _, r := range rows {
		gamma := "n/a"
		if r.GammaOK {
			gamma = fmt.Sprintf("%.2f", r.Gamma)
		}
		fmt.Fprintf(w, "%s\t%.6f\t%s\n", r.Dataset, r.SecondMoment, gamma)
	}
	return nil
}
