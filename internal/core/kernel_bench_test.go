package core

import (
	"testing"

	"prsim/internal/graph"
	"prsim/internal/walk"
)

// The kernel micro-benchmarks cover the two inner loops every query is made
// of — √c-walk sampling and the Variance Bounded Backward Walk — so the CI
// bench-trend gate (cmd/benchjson -compare over BENCH_ci.json) catches
// regressions in the kernels themselves, not just in end-to-end query
// latency where they could hide behind index or cache effects.

// kernelBenchGraph is a 20k-node graph with a skewed in-degree distribution,
// out-adjacency sorted by head in-degree as the backward walk requires.
func kernelBenchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	g := largerTestGraph(20000, 10, 7)
	g.SortOutByInDegree()
	return g
}

// BenchmarkWalkSample measures the batched √c-walk sampling kernel
// (Walker.SampleN): one op is a 256-walk batch from one source, the shape a
// query round uses.
func BenchmarkWalkSample(b *testing.B) {
	g := kernelBenchGraph(b)
	w := walk.MustNewWalker(g, 0.6, 1)
	buf := make([]walk.Result, 0, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = w.SampleN(i%g.N(), 256, buf)
	}
	if len(buf) != 256 {
		b.Fatalf("batch size %d", len(buf))
	}
}

// BenchmarkPairMeet measures the batched pair-meet kernel
// (Walker.PairMeetsFromN): one op is 256 pair-meet indicator samples.
func BenchmarkPairMeet(b *testing.B) {
	g := kernelBenchGraph(b)
	w := walk.MustNewWalker(g, 0.6, 1)
	nodes := make([]int, 256)
	for i := range nodes {
		nodes[i] = (i * 131) % g.N()
	}
	var out []bool
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = w.PairMeetsFromN(nodes, out)
	}
	if len(out) != 256 {
		b.Fatalf("batch size %d", len(out))
	}
}

// BenchmarkBackwardWalk measures one Variance Bounded Backward Walk
// (Algorithm 3) through the zero-allocation query-path entry point, at the
// level depth a typical terminated walk produces, and reports how many
// estimates a walk returns.
func BenchmarkBackwardWalk(b *testing.B) {
	g := kernelBenchGraph(b)
	bw := newBackwardWalker(g, 0.6, walk.NewRNG(2))
	returned := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes, _ := bw.varianceBoundedInto(i%g.N(), 3)
		returned += len(nodes)
	}
	b.ReportMetric(float64(returned)/float64(b.N), "estimates/op")
}

// BenchmarkTopK measures bounded-heap selection of the 50 best nodes from a
// result with a large support, the post-query cost of every /topk request.
func BenchmarkTopK(b *testing.B) {
	scores := make(map[int]float64, 20000)
	rng := walk.NewRNG(5)
	for v := 0; v < 20000; v++ {
		scores[v] = rng.Float64()
	}
	r := &Result{Source: 0, Scores: scores}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := r.TopK(50); len(got) != 50 {
			b.Fatalf("TopK returned %d", len(got))
		}
	}
}
