package prsim

// This file holds the benchmark harness that regenerates every table and
// figure of the paper's evaluation section (README "Commands" lists the
// prsimbench experiments; "Tests and benchmarks" the commands that run
// them). Each BenchmarkFigure*
// runs the corresponding experiment once per iteration through the quick
// configuration used by cmd/prsimbench; the micro-benchmarks below measure
// the individual building blocks (index construction, queries, backward
// walks) that Table 1's complexity claims are about.
//
// Run everything with:
//
//	go test -bench=. -benchmem
import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"prsim/internal/core"
	"prsim/internal/eval"
	"prsim/internal/gen"
	"prsim/internal/pagerank"
	"prsim/internal/walk"
)

// benchConfig is the configuration the figure benchmarks run with: the quick
// grids, a single query per point, and reduced sampling so the full suite
// completes in minutes.
func benchConfig() eval.Config {
	cfg := eval.QuickConfig()
	cfg.Queries = 1
	cfg.DatasetScale = 0.1
	cfg.SampleScale = 0.05
	return cfg
}

// BenchmarkFigure1DegreeDistribution regenerates Figure 1: the cumulative
// out-degree distributions of the IT and TW stand-ins.
func BenchmarkFigure1DegreeDistribution(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, _, err := eval.RunFigure1(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2ErrorVsQueryTime regenerates the measurements behind Figure
// 2 (AvgError@50 vs query time) on the DB and TW stand-ins.
func BenchmarkFigure2ErrorVsQueryTime(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunTradeoffs(cfg, []string{"DB", "TW"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3PrecisionVsQueryTime regenerates Figure 3 (Precision@50 vs
// query time); the measurement pass is shared with Figure 2, so this runs the
// same sweep on a different dataset pair.
func BenchmarkFigure3PrecisionVsQueryTime(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunTradeoffs(cfg, []string{"LJ", "IT"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4ErrorVsIndexSize regenerates Figure 4 (AvgError@50 vs index
// size) for the index-based methods on the UK stand-in.
func BenchmarkFigure4ErrorVsIndexSize(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunTradeoffs(cfg, []string{"UK"})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Algorithm == "PRSim" && r.IndexBytes <= 0 {
				b.Fatalf("PRSim row missing index size: %+v", r)
			}
		}
	}
}

// BenchmarkFigure5ErrorVsPreprocessing regenerates Figure 5 (AvgError@50 vs
// preprocessing time) for the index-based methods on the DB stand-in.
func BenchmarkFigure5ErrorVsPreprocessing(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunTradeoffs(cfg, []string{"DB"})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Algorithm == "SLING" && r.PrepSeconds <= 0 {
				b.Fatalf("SLING row missing preprocessing time: %+v", r)
			}
		}
	}
}

// BenchmarkFigure6aQueryTimeVsGamma regenerates Figure 6(a): query time as a
// function of the power-law exponent γ.
func BenchmarkFigure6aQueryTimeVsGamma(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunFigure6a(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6bScalability regenerates Figure 6(b): PRSim query time as
// the graph grows (sub-linearity shows as a concave log-log curve).
func BenchmarkFigure6bScalability(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunFigure6b(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7aERQueryTime regenerates Figure 7(a): query time on
// Erdős–Rényi graphs of growing average degree.
func BenchmarkFigure7aERQueryTime(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunFigure7(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7bERIndexSize regenerates Figure 7(b): index size on
// Erdős–Rényi graphs of growing average degree (the same sweep reports both
// series; this benchmark checks the index-size side).
func BenchmarkFigure7bERIndexSize(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunFigure7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Algorithm == "PRSim" && r.IndexBytes <= 0 {
				b.Fatalf("missing index size: %+v", r)
			}
		}
	}
}

// BenchmarkAblationHubCount runs the j0 sweep called out in DESIGN.md: index
// size vs query time as the number of hub nodes grows (Section 3.3's
// trade-off knob).
func BenchmarkAblationHubCount(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunHubSweep(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBackwardWalks compares the simple backward walk (Algorithm
// 2) against the Variance Bounded Backward Walk (Algorithm 3).
func BenchmarkAblationBackwardWalks(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunBackwardWalkAblation(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSecondMoment computes the Σπ(w)² hardness measure of every
// dataset stand-in (Table 1's graph-dependent term).
func BenchmarkAblationSecondMoment(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunSecondMoments(cfg, []string{"DB", "LJ", "IT", "TW", "UK"}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks for the core building blocks.
// ---------------------------------------------------------------------------

func benchmarkGraph(b *testing.B, n int, gamma float64) *Graph {
	b.Helper()
	g, err := GeneratePowerLawGraph(n, 10, gamma, false, 7)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkIndexBuild measures PRSim preprocessing (Algorithm 1) on a 20k-node
// power-law graph.
func BenchmarkIndexBuild(b *testing.B) {
	g := benchmarkGraph(b, 20000, 2.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildIndex(g, Options{Epsilon: 0.1, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSingleSourceQuery measures a PRSim single-source query (Algorithm
// 4) at the paper's default error target on a 20k-node power-law graph.
func BenchmarkSingleSourceQuery(b *testing.B) {
	g := benchmarkGraph(b, 20000, 2.5)
	idx, err := BuildIndex(g, Options{Epsilon: 0.25, Seed: 3, SampleScale: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query(idx, i%g.NumNodes()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryInto measures the amortized-allocation query path: the same
// workload as BenchmarkSingleSourceQuery but reusing one caller-owned Result,
// so steady-state allocation is just the score-map churn.
func BenchmarkQueryInto(b *testing.B) {
	g := benchmarkGraph(b, 20000, 2.5)
	idx, err := core.BuildIndex(g.Internal(), core.Options{Epsilon: 0.25, Seed: 3, SampleScale: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	var res core.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := idx.QueryIntoOpts(context.Background(), i%g.NumNodes(), &res, core.QueryOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryThroughput measures end-to-end queries/sec on the LJ dataset
// stand-in: sequential Index.Do against Served.DoBatch on a one-shard
// Registry mount with 1, 4 and GOMAXPROCS workers. PRSim queries are
// independent, so batch throughput should scale near-linearly with workers
// (each ns/op is one query).
func BenchmarkQueryThroughput(b *testing.B) {
	g, err := LoadDataset("LJ")
	if err != nil {
		b.Fatal(err)
	}
	idx, err := BuildIndex(g, Options{Epsilon: 0.25, Seed: 3, SampleScale: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	sources := make([]int, 64)
	for i := range sources {
		sources[i] = (i * 131) % g.NumNodes()
	}

	b.Run("Sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := query(idx, sources[i%len(sources)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	workerCounts := []int{1, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 4 {
		workerCounts = append(workerCounts, p)
	}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("Batch%dWorkers", workers), func(b *testing.B) {
			served := mountIndex(b, idx, EngineOptions{Workers: workers})
			ctx := context.Background()
			b.ResetTimer()
			for done := 0; done < b.N; {
				m := len(sources)
				if rem := b.N - done; rem < m {
					m = rem
				}
				if _, err := served.DoBatch(ctx, Request{}, sources[:m]); err != nil {
					b.Fatal(err)
				}
				done += m
			}
		})
	}
}

// BenchmarkCoalescedThroughput measures the request plane under a
// high-duplication workload: many concurrent callers spread over a handful
// of hot sources, with the result cache disabled so every answered duplicate
// is either a fresh computation or a single-flight coalesce. The tracked
// number is ns per answered request — coalescing turns a thundering herd of
// identical queries into one computation plus cheap waits, so regressions in
// the flight table or admission gate show up directly. Runs under the
// bench-trend gate via BENCH_ci.json.
func BenchmarkCoalescedThroughput(b *testing.B) {
	g, err := LoadDataset("LJ")
	if err != nil {
		b.Fatal(err)
	}
	idx, err := BuildIndex(g, Options{Epsilon: 0.25, Seed: 3, SampleScale: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	// Cache off: dedupe comes from coalescing alone. Unbounded queue so the
	// benchmark measures throughput, not shed rate.
	served := mountIndex(b, idx, EngineOptions{Workers: runtime.GOMAXPROCS(0), MaxQueue: -1})
	hot := []int{1, 7, 42, 99} // 4 hot sources: ~16x duplication at 64 callers
	ctx := context.Background()
	var n atomic.Int64
	b.ResetTimer()
	b.SetParallelism(16) // 16x GOMAXPROCS caller goroutines
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			u := hot[int(n.Add(1))%len(hot)]
			if _, err := served.Do(ctx, Request{Source: u, K: 10}); err != nil {
				// Fatal would Goexit a RunParallel worker; record and bail.
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	st := served.StatsAggregate()
	if st.Queries > 0 {
		b.ReportMetric(float64(st.Coalesced)/float64(st.Queries), "coalesced/op")
	}
}

// BenchmarkQueryKernel150k measures raw single-threaded query latency on the
// 150k-node power-law benchmark graph through the pooled QueryIntoOpts path — the
// headline number the query-kernel work is judged by (see README
// "Performance" and prsimbench -experiment querypath).
func BenchmarkQueryKernel150k(b *testing.B) {
	g := benchmarkGraph(b, 150000, 2.5)
	idx, err := core.BuildIndex(g.Internal(), core.Options{Epsilon: 0.25, Seed: 3, SampleScale: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	var res core.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := idx.QueryIntoOpts(context.Background(), i%g.NumNodes(), &res, core.QueryOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelQuery measures intra-query walk parallelism: the
// 150k-node single-query workload of BenchmarkQueryKernel150k executed at
// parallelism 1, 2, and GOMAXPROCS. The chunk decomposition is identical at
// every level (results are bit-identical); only the wall-clock per query
// moves, so the sub-benchmark ratios are the parallel speedup. Runs under
// the bench-trend gate via BENCH_ci.json.
func BenchmarkParallelQuery(b *testing.B) {
	g := benchmarkGraph(b, 150000, 2.5)
	idx, err := core.BuildIndex(g.Internal(), core.Options{Epsilon: 0.25, Seed: 3, SampleScale: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	levels := []int{1, 2}
	if p := runtime.GOMAXPROCS(0); p > 2 {
		levels = append(levels, p)
	}
	ctx := context.Background()
	for _, p := range levels {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			q := core.QueryOptions{Parallelism: p}
			var res core.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := idx.QueryIntoOpts(ctx, i%g.NumNodes(), &res, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDoBatchFused measures the fused multi-source batch path: 16
// distinct sources per DoBatch, cache disabled so every batch computes. The
// fusion streams each eligible reserve list once per batch instead of once
// per source, and the per-source walk phases fan out over the engine's
// workers (a one-shard Registry mount); ns/op is one full batch. Runs under the bench-trend gate via
// BENCH_ci.json.
func BenchmarkDoBatchFused(b *testing.B) {
	g := benchmarkGraph(b, 20000, 2.5)
	idx, err := BuildIndex(g, Options{Epsilon: 0.25, Seed: 3, SampleScale: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	served := mountIndex(b, idx, EngineOptions{Workers: runtime.GOMAXPROCS(0), MaxQueue: -1})
	sources := make([]int, 16)
	for i := range sources {
		sources[i] = (i * 977) % g.NumNodes()
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := served.DoBatch(ctx, Request{NoCache: true}, sources); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReversePageRank measures the exact reverse PageRank computation
// used by preprocessing.
func BenchmarkReversePageRank(b *testing.B) {
	g := benchmarkGraph(b, 20000, 2.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pagerank.ReversePageRank(g.Internal(), pagerank.Options{C: 0.6}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBackwardSearch measures one levelwise backward push from the
// highest reverse-PageRank hub on a reused scratch, as index builds run it.
func BenchmarkBackwardSearch(b *testing.B) {
	g := benchmarkGraph(b, 20000, 2.5)
	pi, err := pagerank.ReversePageRank(g.Internal(), pagerank.Options{C: 0.6})
	if err != nil {
		b.Fatal(err)
	}
	hub := pagerank.RankNodesByScore(pi)[0]
	var s pagerank.BackwardScratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Search(g.Internal(), hub, 0.6, 1e-4, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVarianceBoundedBackwardWalk measures Algorithm 3 via the exported
// ablation entry point (one simple + one bounded run per trial).
func BenchmarkVarianceBoundedBackwardWalk(b *testing.B) {
	g := benchmarkGraph(b, 20000, 2.0)
	pi, err := pagerank.ReversePageRank(g.Internal(), pagerank.Options{C: 0.6})
	if err != nil {
		b.Fatal(err)
	}
	hub := pagerank.RankNodesByScore(pi)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.BackwardWalkAblation(g.Internal(), 0.6, hub, 2, hub, 10, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSqrtCWalk measures raw √c-walk sampling throughput.
func BenchmarkSqrtCWalk(b *testing.B) {
	g := benchmarkGraph(b, 20000, 2.5)
	w, err := walk.NewWalker(g.Internal(), 0.6, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Sample(i % g.NumNodes())
	}
}

// BenchmarkPowerLawGeneration measures the synthetic graph generator used by
// every scalability experiment.
func BenchmarkPowerLawGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := gen.PowerLaw(gen.PowerLawOptions{N: 20000, AvgDegree: 10, Gamma: 2.5, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// snapshotFixture builds and saves an index once per benchmark binary run,
// shared by the load benchmarks below so b.N iterations only measure loading.
func snapshotFixture(b *testing.B) (*Graph, string) {
	b.Helper()
	snapshotFixtureOnce.Do(func() {
		g := benchmarkGraph(b, 20000, 2.5)
		idx, err := BuildIndex(g, Options{Epsilon: 0.1, Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		dir, err := os.MkdirTemp("", "prsim-bench")
		if err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(dir, "index.prsim")
		if err := idx.SaveFile(path); err != nil {
			b.Fatal(err)
		}
		snapshotFixtureGraph, snapshotFixturePath = g, path
	})
	return snapshotFixtureGraph, snapshotFixturePath
}

var (
	snapshotFixtureOnce  sync.Once
	snapshotFixtureGraph *Graph
	snapshotFixturePath  string
)

// BenchmarkLoadIndexStream measures core's heap load of a saved snapshot —
// read the file, check its CRC, decode every section into owned slices —
// the cold-start cost the mmap open exists to avoid.
func BenchmarkLoadIndexStream(b *testing.B) {
	g, path := snapshotFixture(b)
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(st.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadIndexFile(path, g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpenSnapshotMmap measures the zero-copy mmap open of the same
// file, including structural validation and bookkeeping but not the payload
// CRC (compare BenchmarkLoadIndexStream; see also prsimbench -experiment
// loadtime for the ≥100k-node comparison).
func BenchmarkOpenSnapshotMmap(b *testing.B) {
	g, path := snapshotFixture(b)
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(st.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx, err := OpenSnapshot(path, g)
		if err != nil {
			b.Fatal(err)
		}
		if err := idx.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpenSnapshotSelfContained measures the full serving cold start
// off one snapshot: graph CSR validation plus index assembly, no edge list
// involved. This is the number the hot-reload path pays per swap.
func BenchmarkOpenSnapshotSelfContained(b *testing.B) {
	_, path := snapshotFixture(b)
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(st.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx, err := OpenSnapshot(path, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := idx.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
