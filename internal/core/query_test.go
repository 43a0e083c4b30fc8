package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash"
	"math"
	"slices"
	"testing"

	"prsim/internal/powermethod"
)

// query runs a single-source query from u at the index's build options.
func query(idx *Index, u int) (*Result, error) {
	return queryOpts(context.Background(), idx, u, QueryOptions{})
}

// queryOpts runs a single-source query from u at per-request options q.
func queryOpts(ctx context.Context, idx *Index, u int, q QueryOptions) (*Result, error) {
	res := &Result{}
	if err := idx.QueryIntoOpts(ctx, u, res, q); err != nil {
		return nil, err
	}
	return res, nil
}

func TestQueryMatchesExactSimRank(t *testing.T) {
	g := fixtureGraph()
	exact, err := powermethod.Compute(g, powermethod.Options{C: 0.6})
	if err != nil {
		t.Fatalf("powermethod: %v", err)
	}
	idx, err := BuildIndex(g, Options{C: 0.6, Epsilon: 0.1, Delta: 0.01, NumHubs: 2, Seed: 7})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	for u := 0; u < g.N(); u++ {
		res, err := query(idx, u)
		if err != nil {
			t.Fatalf("Query(%d): %v", u, err)
		}
		for v := 0; v < g.N(); v++ {
			got := res.Score(v)
			want := exact.At(u, v)
			if math.Abs(got-want) > 0.1 {
				t.Errorf("s(%d,%d): PRSim %v, exact %v", u, v, got, want)
			}
		}
		if res.Score(u) != 1 {
			t.Errorf("s(%d,%d) = %v, want 1", u, u, res.Score(u))
		}
	}
}

func TestQueryMatchesExactOnLargerGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping larger accuracy test in -short mode")
	}
	g := largerTestGraph(120, 4, 42)
	exact, err := powermethod.Compute(g, powermethod.Options{C: 0.6})
	if err != nil {
		t.Fatalf("powermethod: %v", err)
	}
	idx, err := BuildIndex(g, Options{C: 0.6, Epsilon: 0.15, Delta: 0.01, NumHubs: 12, Seed: 3})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	sources := []int{0, 7, 55, 119}
	for _, u := range sources {
		res, err := query(idx, u)
		if err != nil {
			t.Fatalf("Query(%d): %v", u, err)
		}
		maxErr := 0.0
		for v := 0; v < g.N(); v++ {
			diff := math.Abs(res.Score(v) - exact.At(u, v))
			if diff > maxErr {
				maxErr = diff
			}
		}
		if maxErr > 0.15 {
			t.Errorf("source %d: max additive error %v exceeds epsilon", u, maxErr)
		}
	}
}

func TestQueryInvalidSource(t *testing.T) {
	g := fixtureGraph()
	idx, err := BuildIndex(g, Options{Epsilon: 0.3})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	if _, err := query(idx, -1); err == nil {
		t.Errorf("negative source should be an error")
	}
	if _, err := query(idx, g.N()); err == nil {
		t.Errorf("out-of-range source should be an error")
	}
}

func TestQueryDeterministicForSeed(t *testing.T) {
	g := fixtureGraph()
	build := func(seed uint64) *Result {
		idx, err := BuildIndex(g, Options{Epsilon: 0.25, NumHubs: 2, Seed: seed})
		if err != nil {
			t.Fatalf("BuildIndex: %v", err)
		}
		res, err := query(idx, 1)
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		return res
	}
	a := build(11)
	b := build(11)
	if len(a.Scores) != len(b.Scores) {
		t.Fatalf("same seed produced different support sizes: %d vs %d", len(a.Scores), len(b.Scores))
	}
	for v, s := range a.Scores {
		if b.Scores[v] != s {
			t.Errorf("same seed produced different score for node %d: %v vs %v", v, s, b.Scores[v])
		}
	}
}

func TestQueryStatsPopulated(t *testing.T) {
	g := fixtureGraph()
	idx, err := BuildIndex(g, Options{Epsilon: 0.25, NumHubs: 2, Seed: 5})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	res, err := query(idx, 3)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.Stats.Walks <= 0 {
		t.Errorf("stats.Walks = %d, want > 0", res.Stats.Walks)
	}
	if res.Stats.Time <= 0 {
		t.Errorf("stats.Time = %v, want > 0", res.Stats.Time)
	}
	if res.Stats.HubHits+res.Stats.NonHubHits <= 0 {
		t.Errorf("no walk terminations recorded")
	}
}

func TestTopKOrdering(t *testing.T) {
	r := &Result{Source: 0, Scores: map[int]float64{0: 1, 1: 0.3, 2: 0.7, 3: 0.3, 4: 0.05}}
	top := r.TopK(3)
	if len(top) != 3 {
		t.Fatalf("TopK(3) returned %d items", len(top))
	}
	if top[0].Node != 2 {
		t.Errorf("top[0] = %+v, want node 2", top[0])
	}
	// Ties broken by node id: 1 before 3.
	if top[1].Node != 1 || top[2].Node != 3 {
		t.Errorf("tie-breaking wrong: %+v", top)
	}
	// Source excluded.
	for _, s := range top {
		if s.Node == 0 {
			t.Errorf("TopK must exclude the source")
		}
	}
	// k larger than support.
	if got := len(r.TopK(100)); got != 4 {
		t.Errorf("TopK(100) returned %d items, want 4", got)
	}
}

func TestAsSlice(t *testing.T) {
	r := &Result{Source: 1, Scores: map[int]float64{1: 1, 3: 0.25, 9: 0.5}}
	s := r.AsSlice(5)
	if len(s) != 5 {
		t.Fatalf("AsSlice(5) length = %d", len(s))
	}
	if s[1] != 1 || s[3] != 0.25 {
		t.Errorf("AsSlice values wrong: %v", s)
	}
	// Node 9 is outside the slice and must be silently dropped.
	if s[4] != 0 {
		t.Errorf("unexpected value at index 4: %v", s[4])
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 3}, 2},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// median must not mutate its input.
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median mutated its input: %v", in)
	}
}

func TestSampleScaleReducesWork(t *testing.T) {
	g := fixtureGraph()
	full, err := BuildIndex(g, Options{Epsilon: 0.3, NumHubs: 2, Seed: 1, SampleScale: 1})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	cheap, err := BuildIndex(g, Options{Epsilon: 0.3, NumHubs: 2, Seed: 1, SampleScale: 0.1})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	rFull, _ := query(full, 0)
	rCheap, _ := query(cheap, 0)
	if rCheap.Stats.Walks >= rFull.Stats.Walks {
		t.Errorf("SampleScale=0.1 used %d walks, full used %d; expected fewer",
			rCheap.Stats.Walks, rFull.Stats.Walks)
	}
}

// TestTopKClampsK pins the boundary behavior of Result.TopK: a negative k
// must return an empty slice (slicing nodes[:k] with k < 0 panicked before
// the clamp), zero returns empty, and oversized k returns everything.
func TestTopKClampsK(t *testing.T) {
	r := &Result{Source: 0, Scores: map[int]float64{0: 1, 1: 0.5, 2: 0.25}}
	for _, k := range []int{-1, -1000, 0} {
		if got := r.TopK(k); len(got) != 0 {
			t.Errorf("TopK(%d) returned %d nodes, want 0", k, len(got))
		}
	}
	if got := r.TopK(100); len(got) != 2 { // source excluded
		t.Errorf("TopK(100) returned %d nodes, want 2", len(got))
	}
}

// TestQueryOptsBudgetsScaleWithEpsilon pins the budget derivation of the
// request plane: a per-request epsilon 4x the build epsilon must sample
// substantially fewer walks (d_r scales with 1/eps^2) and do no more
// backward-walk or index-read work, while a clamped request (below the build
// epsilon) must be bit-identical to the default query.
func TestQueryOptsBudgetsScaleWithEpsilon(t *testing.T) {
	g := randomGraph(11, 400, 2400)
	idx, err := BuildIndex(g, Options{Epsilon: 0.15, Seed: 3, SampleScale: 0.2})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	ctx := context.Background()
	def, err := queryOpts(ctx, idx, 5, QueryOptions{})
	if err != nil {
		t.Fatalf("queryOpts default: %v", err)
	}
	if def.Stats.Epsilon != 0.15 {
		t.Fatalf("default effective epsilon = %v, want 0.15", def.Stats.Epsilon)
	}
	coarse, err := queryOpts(ctx, idx, 5, QueryOptions{Epsilon: 0.6})
	if err != nil {
		t.Fatalf("queryOpts coarse: %v", err)
	}
	if coarse.Stats.Epsilon != 0.6 {
		t.Fatalf("coarse effective epsilon = %v, want 0.6", coarse.Stats.Epsilon)
	}
	// 4x epsilon means 16x fewer samples per round; allow slack for the
	// per-round ceiling but insist on a big drop.
	if coarse.Stats.Walks*4 > def.Stats.Walks {
		t.Fatalf("coarse walks = %d vs default %d, want at least 4x fewer", coarse.Stats.Walks, def.Stats.Walks)
	}
	if coarse.Stats.BackwardWalkCost > def.Stats.BackwardWalkCost {
		t.Errorf("coarse backward-walk cost %d exceeds default %d", coarse.Stats.BackwardWalkCost, def.Stats.BackwardWalkCost)
	}
	// Both runs estimate the same quantity: spot-check agreement within the
	// sum of the two error bounds on the strongest default scores.
	for _, sn := range def.TopK(5) {
		if d := coarse.Score(sn.Node) - sn.Score; d > 0.75 || d < -0.75 {
			t.Errorf("node %d: coarse %v vs default %v", sn.Node, coarse.Score(sn.Node), sn.Score)
		}
	}

	// Clamped request: identical to the default query, bit for bit.
	clamped, err := queryOpts(ctx, idx, 5, QueryOptions{Epsilon: 0.05})
	if err != nil {
		t.Fatalf("queryOpts clamped: %v", err)
	}
	if clamped.Stats.Epsilon != 0.15 {
		t.Fatalf("clamped effective epsilon = %v, want build 0.15", clamped.Stats.Epsilon)
	}
	if len(clamped.Scores) != len(def.Scores) {
		t.Fatalf("clamped support %d vs default %d", len(clamped.Scores), len(def.Scores))
	}
	for v, s := range def.Scores {
		if clamped.Scores[v] != s {
			t.Fatalf("clamped query diverged at node %d: %v vs %v", v, clamped.Scores[v], s)
		}
	}

	// EffectiveOptions reports the clamp.
	if eff, cl := idx.EffectiveOptions(QueryOptions{Epsilon: 0.05}); !cl || eff.Epsilon != 0.15 {
		t.Fatalf("EffectiveOptions(0.05) = %v/%v, want 0.15/clamped", eff.Epsilon, cl)
	}
	if eff, cl := idx.EffectiveOptions(QueryOptions{Epsilon: 0.6}); cl || eff.Epsilon != 0.6 {
		t.Fatalf("EffectiveOptions(0.6) = %v/%v, want 0.6/unclamped", eff.Epsilon, cl)
	}

	// Determinism per tier: repeating a coarse query reproduces it exactly.
	again, err := queryOpts(ctx, idx, 5, QueryOptions{Epsilon: 0.6})
	if err != nil {
		t.Fatalf("queryOpts repeat: %v", err)
	}
	if len(again.Scores) != len(coarse.Scores) {
		t.Fatalf("repeat support %d vs %d", len(again.Scores), len(coarse.Scores))
	}
	for v, s := range coarse.Scores {
		if again.Scores[v] != s {
			t.Fatalf("coarse query not deterministic at node %d", v)
		}
	}

	// Invalid per-request epsilons are rejected before any work.
	for _, bad := range []float64{-0.5, 1, 2} {
		if _, err := queryOpts(ctx, idx, 5, QueryOptions{Epsilon: bad}); !errors.Is(err, ErrInvalidEpsilon) {
			t.Errorf("queryOpts(epsilon=%v) error = %v, want ErrInvalidEpsilon", bad, err)
		}
	}
}

// TestResultRebound pins the shallow-copy semantics the engine's
// reload-aware cache relies on.
func TestResultRebound(t *testing.T) {
	g := randomGraph(1, 100, 600)
	g2 := randomGraph(1, 100, 600)
	idx, err := BuildIndex(g, Options{Epsilon: 0.3, Seed: 1, SampleScale: 0.1})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	res, err := query(idx, 4)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	re := res.Rebound(g2)
	if re == res {
		t.Fatal("Rebound returned the same object")
	}
	if re.Graph() != g2 || res.Graph() != g {
		t.Fatal("Rebound must rebind the copy and leave the original untouched")
	}
	if re.Source != res.Source {
		t.Fatal("Rebound must keep metadata")
	}
	// The score map must be shared, not copied: a write through one copy is
	// visible through the other (the engine's rekey path relies on sharing
	// to keep swaps cheap).
	re.Scores[-1] = 42
	if res.Scores[-1] != 42 {
		t.Fatal("Rebound must share the score map with the original")
	}
	delete(re.Scores, -1)
}

// powerLaw5kIndex indexes powerLaw5k at ε = 0.2 with √n hubs and a quarter
// of the paper's sample constants, the benchmark index's configuration.
func powerLaw5kIndex(t *testing.T) *Index {
	t.Helper()
	idx, err := BuildIndex(powerLaw5k(t), Options{Epsilon: 0.2, NumHubs: -1, Seed: 7, SampleScale: 0.25})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	return idx
}

// TestLengthZeroWalksSampleNoPairs: every walk from a source without
// in-neighbors stops at the source before its first step, and such a walk
// feeds only s(u,u), which is 1 by definition — so the walk phase samples no
// η pair and no backward walk for it, and Walks counts exactly the n_r
// √c-walks.
func TestLengthZeroWalksSampleNoPairs(t *testing.T) {
	idx := powerLaw5kIndex(t)
	u := -1
	for v := 0; v < idx.g.N(); v++ {
		if idx.g.InDegree(v) == 0 {
			u = v
			break
		}
	}
	if u < 0 {
		t.Fatal("graph has no node without in-neighbors")
	}
	res, err := query(idx, u)
	if err != nil {
		t.Fatalf("Query(%d): %v", u, err)
	}
	st := res.Stats
	if nr := st.RoundsExecuted * idx.opts.samplesPerRound(); st.Walks != nr {
		t.Errorf("source %d: Walks = %d, want n_r = %d (no pairs)", u, st.Walks, nr)
	}
	if st.HubHits != 0 || st.NonHubHits != 0 || st.BackwardWalkCost != 0 {
		t.Errorf("source %d: hub hits %d, non-hub hits %d, backward-walk cost %d; want all 0",
			u, st.HubHits, st.NonHubHits, st.BackwardWalkCost)
	}
	if len(res.Scores) != 1 || res.Scores[u] != 1 {
		t.Errorf("source %d: scores %v, want {%d: 1}", u, res.Scores, u)
	}
}

// TestWalkPhaseSamplesFewPairs bounds the η pairs the walk phase samples:
// only hub ends and non-hub ends whose backward walk returned estimates get
// one, which on a power-law graph is a small fraction of the n_r walks.
// A pair for every walk that ends at its drawn length would be ~1 per walk
// here (637,033 over these 638,064 walks); the walk phase draws 77,676, so
// the bound of 1 per 5 walks sits between the two.
func TestWalkPhaseSamplesFewPairs(t *testing.T) {
	idx := powerLaw5kIndex(t)
	pairs, nr := 0, 0
	for i := range 8 {
		u := (i * 613) % idx.g.N()
		res, err := query(idx, u)
		if err != nil {
			t.Fatalf("Query(%d): %v", u, err)
		}
		n := res.Stats.RoundsExecuted * idx.opts.samplesPerRound()
		nr += n
		pairs += (res.Stats.Walks - n) / 2
	}
	t.Logf("%d pairs over %d walks (%.3f per walk)", pairs, nr, float64(pairs)/float64(nr))
	if pairs*5 > nr {
		t.Errorf("%d pairs over %d walks, want at most 1 per 5 walks", pairs, nr)
	}
}

// TestQueryScoreDigests pins the bits queries return: on each digest graph,
// eight fixed sources queried at fixed ε, fixed 2ε and adaptive ε, and as
// one fused 8-source batch at 2ε, must hash to the SHA-256 digests recorded
// while every per-query accumulator was still a dense n-sized array, at
// Parallelism 1 and 4. Each source contributes its sorted node ids with
// their score bits and its Walks, BackwardWalkCost and IndexEntriesRead
// counts, so a change to an accumulation order, a random stream or a work
// count shows as a digest mismatch, on 32-bit hosts too.
func TestQueryScoreDigests(t *testing.T) {
	sources := []int{3, 17, 256, 511, 777, 1024, 1500, 1999}
	modes := []struct {
		name  string
		q     QueryOptions
		batch bool
	}{
		{"fixed-eps", QueryOptions{}, false},
		{"fixed-2eps", QueryOptions{Epsilon: 0.2}, false},
		{"adaptive-eps", QueryOptions{Adaptive: true}, false},
		{"batch-2eps", QueryOptions{Epsilon: 0.2}, true},
	}
	want := map[string]string{
		"powerlaw-2.5/fixed-eps":    "5f7247b67f8514605f1d902f055a25dae4612f77ff8171a589b3de29151d2dc0",
		"powerlaw-2.5/fixed-2eps":   "839f9bf53ba9750197294639b3b28fb2a96be91aa276553f1d616db1b962f3a1",
		"powerlaw-2.5/adaptive-eps": "7927713da0b4f66a99496b441dc59a39191b69062f57ad404eaed69fa9775c86",
		"powerlaw-2.5/batch-2eps":   "839f9bf53ba9750197294639b3b28fb2a96be91aa276553f1d616db1b962f3a1",
		"powerlaw-1.2/fixed-eps":    "4d5a663b1e338cebc2d1fff0f4e252397f0907138d1b70d0c3f80947087c6286",
		"powerlaw-1.2/fixed-2eps":   "dce671f3eb4e639da5eabd10aed0e49a3a2b2d1732b95613d9566d9b6580f37d",
		"powerlaw-1.2/adaptive-eps": "6d380946caefc6620869729ca2968f76e737c4cfaf4b91d3bbff1ca78f087485",
		"powerlaw-1.2/batch-2eps":   "dce671f3eb4e639da5eabd10aed0e49a3a2b2d1732b95613d9566d9b6580f37d",
		"erdos-renyi/fixed-eps":     "309ed3abf29bb664c995d8b2b1e78ea8f270e024d3164579aa713246da0b632a",
		"erdos-renyi/fixed-2eps":    "82dcee4cbc18dce09695a9cdfc09e84964c18d960b81dd5bb253e91cb3145d45",
		"erdos-renyi/adaptive-eps":  "8fb9a305cb80458683854b2547db81a7a1e0d3b499e95f2dbee87bca4fd8df2f",
		"erdos-renyi/batch-2eps":    "82dcee4cbc18dce09695a9cdfc09e84964c18d960b81dd5bb253e91cb3145d45",
	}
	ctx := context.Background()
	for _, tc := range digestGraphs {
		g, err := tc.g()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		idx, err := BuildIndex(g, Options{Epsilon: 0.1, NumHubs: -1, Seed: 5, SampleScale: 0.1})
		if err != nil {
			t.Fatalf("%s: BuildIndex: %v", tc.name, err)
		}
		for _, m := range modes {
			for _, p := range []int{1, 4} {
				q := m.q
				q.Parallelism = p
				results := make([]*Result, len(sources))
				for i := range results {
					results[i] = &Result{}
				}
				if m.batch {
					err = idx.QueryBatchIntoOpts(ctx, sources, results, q)
				} else {
					for i, u := range sources {
						if err = idx.QueryIntoOpts(ctx, u, results[i], q); err != nil {
							break
						}
					}
				}
				if err != nil {
					t.Fatalf("%s %s p=%d: %v", tc.name, m.name, p, err)
				}
				h := sha256.New()
				for _, r := range results {
					hashResult(h, r)
				}
				key := tc.name + "/" + m.name
				if got := hex.EncodeToString(h.Sum(nil)); got != want[key] {
					t.Errorf("%s at Parallelism %d: query SHA-256 %s, want %s", key, p, got, want[key])
				}
			}
		}
	}
}

// hashResult writes r's source, its scores as (node id, score bits) pairs in
// ascending node order, and its Walks, BackwardWalkCost and IndexEntriesRead
// counts to h, each as a little-endian uint64.
func hashResult(h hash.Hash, r *Result) {
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	put(uint64(r.Source))
	nodes := make([]int, 0, len(r.Scores))
	for v := range r.Scores {
		nodes = append(nodes, v)
	}
	slices.Sort(nodes)
	for _, v := range nodes {
		put(uint64(v))
		put(math.Float64bits(r.Scores[v]))
	}
	put(uint64(r.Stats.Walks))
	put(uint64(r.Stats.BackwardWalkCost))
	put(uint64(r.Stats.IndexEntriesRead))
}
