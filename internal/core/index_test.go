package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"sort"
	"testing"

	"prsim/internal/gen"
	"prsim/internal/graph"
	"prsim/internal/pagerank"
)

func TestBuildIndexValidation(t *testing.T) {
	g := fixtureGraph()
	if _, err := BuildIndex(nil, Options{}); err == nil {
		t.Errorf("nil graph should be an error")
	}
	if _, err := BuildIndex(g, Options{C: 2}); err == nil {
		t.Errorf("invalid decay should be an error")
	}
	if _, err := BuildIndex(g, Options{Epsilon: -1}); err == nil {
		t.Errorf("negative epsilon should be an error")
	}
	if _, err := BuildIndex(g, Options{Delta: 3}); err == nil {
		t.Errorf("invalid delta should be an error")
	}
	if _, err := BuildIndex(g, Options{SampleScale: -0.5}); err == nil {
		t.Errorf("negative sample scale should be an error")
	}
}

func TestBuildIndexDefaults(t *testing.T) {
	g := fixtureGraph()
	idx, err := BuildIndex(g, Options{NumHubs: -1})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	if idx.Options().C != DefaultDecay {
		t.Errorf("default C = %v, want %v", idx.Options().C, DefaultDecay)
	}
	wantHubs := defaultNumHubs(g.N())
	if idx.NumHubs() != wantHubs {
		t.Errorf("NumHubs = %d, want %d", idx.NumHubs(), wantHubs)
	}
	if !g.OutSortedByInDegree() {
		t.Errorf("BuildIndex must leave the graph with sorted out-adjacency")
	}
}

func TestHubSelectionByReversePageRank(t *testing.T) {
	g := fixtureGraph()
	idx, err := BuildIndex(g, Options{NumHubs: 2, Epsilon: 0.1})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	pi, _ := pagerank.ReversePageRank(g, pagerank.Options{C: DefaultDecay})
	order := pagerank.RankNodesByScore(pi)
	hubs := idx.Hubs()
	if len(hubs) != 2 {
		t.Fatalf("expected 2 hubs, got %d", len(hubs))
	}
	if hubs[0] != order[0] || hubs[1] != order[1] {
		t.Errorf("hubs = %v, want top-2 by reverse PageRank %v", hubs, order[:2])
	}
	for _, w := range hubs {
		if !idx.IsHub(w) {
			t.Errorf("IsHub(%d) = false for a hub", w)
		}
	}
	nonHubs := 0
	for v := 0; v < g.N(); v++ {
		if !idx.IsHub(v) {
			nonHubs++
		}
	}
	if nonHubs != g.N()-2 {
		t.Errorf("non-hub count = %d, want %d", nonHubs, g.N()-2)
	}
}

func TestIndexReservesMatchExactRPPR(t *testing.T) {
	// Every stored reserve ψ_ℓ(v, w) must be within rmax of the exact ℓ-hop
	// RPPR π_ℓ(v, w) (Lemma 3.1).
	g := fixtureGraph()
	opts := Options{NumHubs: g.N(), Epsilon: 0.05}
	idx, err := BuildIndex(g, opts)
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	filled, _ := opts.fill()
	rmax := filled.rmax()
	for _, w := range idx.Hubs() {
		for level := 0; level < 10; level++ {
			for _, e := range idx.HubEntries(w, level) {
				exactLevels, _ := pagerank.LHopRPPR(g, int(e.Node), level, pagerank.Options{C: filled.C})
				want := exactLevels[level][w]
				if math.Abs(e.Reserve-want) > rmax+1e-12 {
					t.Errorf("hub %d level %d node %d: reserve %v, exact %v (rmax %v)",
						w, level, e.Node, e.Reserve, want, rmax)
				}
			}
		}
	}
}

func TestIndexFreeMode(t *testing.T) {
	g := fixtureGraph()
	idx, err := BuildIndex(g, Options{NumHubs: 0, Epsilon: 0.2})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	if idx.NumHubs() != 0 {
		t.Errorf("NumHubs = %d, want 0", idx.NumHubs())
	}
	if idx.SizeEntries() != 0 {
		t.Errorf("index-free mode stored %d entries", idx.SizeEntries())
	}
	for v := 0; v < g.N(); v++ {
		if idx.IsHub(v) {
			t.Errorf("node %d is a hub in index-free mode", v)
		}
	}
	// Queries must still work.
	res, err := query(idx, 0)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.Score(0) != 1 {
		t.Errorf("s(u,u) = %v, want 1", res.Score(0))
	}
}

func TestIndexStats(t *testing.T) {
	g := fixtureGraph()
	idx, err := BuildIndex(g, Options{NumHubs: 3, Epsilon: 0.05})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	s := idx.Stats()
	if s.NumHubs != 3 {
		t.Errorf("stats.NumHubs = %d, want 3", s.NumHubs)
	}
	if s.Entries <= 0 {
		t.Errorf("stats.Entries = %d, want > 0", s.Entries)
	}
	if s.Pushes <= 0 {
		t.Errorf("stats.Pushes = %d, want > 0", s.Pushes)
	}
	if s.SecondMoment <= 0 || s.SecondMoment > 1 {
		t.Errorf("stats.SecondMoment = %v, want in (0,1]", s.SecondMoment)
	}
	if s.TotalTime <= 0 {
		t.Errorf("stats.TotalTime = %v, want > 0", s.TotalTime)
	}
	if idx.SizeBytes() <= 0 {
		t.Errorf("SizeBytes = %d, want > 0", idx.SizeBytes())
	}
	if idx.SecondMoment() != s.SecondMoment {
		t.Errorf("SecondMoment accessor mismatch")
	}
}

func TestNumHubsCappedAtN(t *testing.T) {
	g := fixtureGraph()
	idx, err := BuildIndex(g, Options{NumHubs: 1000, Epsilon: 0.2})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	if idx.NumHubs() != g.N() {
		t.Errorf("NumHubs = %d, want capped at %d", idx.NumHubs(), g.N())
	}
}

func TestIndexSizeShrinksWithLargerEpsilon(t *testing.T) {
	g := largerTestGraph(400, 3, 99)
	small, err := BuildIndex(g, Options{NumHubs: 50, Epsilon: 0.01})
	if err != nil {
		t.Fatalf("BuildIndex(eps=0.01): %v", err)
	}
	large, err := BuildIndex(g, Options{NumHubs: 50, Epsilon: 0.2})
	if err != nil {
		t.Fatalf("BuildIndex(eps=0.2): %v", err)
	}
	if small.SizeEntries() < large.SizeEntries() {
		t.Errorf("index entries: eps=0.01 has %d, eps=0.2 has %d; smaller epsilon must not store fewer",
			small.SizeEntries(), large.SizeEntries())
	}
}

// largerTestGraph builds a deterministic pseudo-random graph with n nodes and
// roughly n*degree edges, biased so that low node ids become hubs.
func largerTestGraph(n, degree int, seed uint64) *graph.Graph {
	b := graph.NewBuilderN(n)
	state := seed
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for u := 0; u < n; u++ {
		for d := 0; d < degree; d++ {
			// Square the uniform variate to bias targets toward small ids,
			// creating a skewed in-degree distribution.
			r := float64(next()%1000000) / 1000000.0
			v := int(r * r * float64(n))
			if v >= n {
				v = n - 1
			}
			if v != u {
				b.AddEdge(u, v)
			}
		}
	}
	return b.MustBuild()
}

// TestBuildIndexRejectsPendingOverlay pins that a graph with journaled edge
// updates is refused before any build work: the build reads the CSR arrays,
// which do not hold the updates, and it used to panic only after reverse
// PageRank and every hub search had run. Both a graph already sorted by head
// in-degree and an unsorted one are refused, and neither is touched.
func TestBuildIndexRejectsPendingOverlay(t *testing.T) {
	sorted := largerTestGraph(400, 4, 7)
	var edges []graph.Edge
	sorted.Edges(func(u, v int) bool {
		edges = append(edges, graph.Edge{From: u, To: v})
		return true
	})
	unsorted := graph.MustFromEdges(sorted.N(), edges)
	for _, g := range []*graph.Graph{sorted, unsorted} {
		wasSorted := g.OutSortedByInDegree()
		if err := g.ApplyUpdates([]graph.EdgeUpdate{{From: 3, To: 250}}); err != nil {
			t.Fatalf("ApplyUpdates: %v", err)
		}
		if _, err := BuildIndex(g, Options{Epsilon: 0.2}); err == nil {
			t.Errorf("BuildIndex on a graph with a pending overlay (sorted %v) should be an error", wasSorted)
		}
		if !g.HasOverlay() || g.OutSortedByInDegree() != wasSorted {
			t.Errorf("the refused build changed the graph (sorted %v)", wasSorted)
		}
	}
}

// referenceHubLevels is the conversion searchHubLevels replaced: it reads
// each level as a map, sums the activation masses in a map and orders the
// entries and the activation ids with sort.Slice.
func referenceHubLevels(res *pagerank.BackwardResult, rmax float64) ([][]IndexEntry, []int32, []float32) {
	levels := make([][]IndexEntry, len(res.Reserves))
	actSet := make(map[int32]float64)
	for l, reserves := range res.Reserves {
		lvl := make(map[int]float64, len(reserves))
		for _, e := range reserves {
			lvl[int(e.Node)] = e.Value
		}
		for v, psi := range lvl {
			actSet[int32(v)] += psi
			if psi > rmax {
				levels[l] = append(levels[l], IndexEntry{Node: int32(v), Reserve: psi})
			}
		}
		sort.Slice(levels[l], func(a, b int) bool { return levels[l][a].Node < levels[l][b].Node })
	}
	acts := make([]int32, 0, len(actSet))
	for v := range actSet {
		acts = append(acts, v)
	}
	sort.Slice(acts, func(a, b int) bool { return acts[a] < acts[b] })
	mass := make([]float32, len(acts))
	for i, v := range acts {
		mass[i] = float32(actSet[v])
	}
	return levels, acts, mass
}

// TestSearchHubLevelsMatchesReference pins the dense conversion of a hub's
// search to the map-based one: the same levels (empty ones included), the
// same entries with the same reserve bits, the same activation ids and the
// same float32 masses, from one reused search state across hubs and graphs.
func TestSearchHubLevelsMatchesReference(t *testing.T) {
	pl := func(gamma float64, seed uint64) *graph.Graph {
		g, err := gen.PowerLaw(gen.PowerLawOptions{N: 1500, AvgDegree: 6, Gamma: gamma, Directed: true, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	er, err := gen.ErdosRenyi(gen.EROptions{N: 1000, AvgDegree: 5, Directed: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var s hubSearch
	for _, g := range []*graph.Graph{pl(1.2, 7), pl(2.5, 8), er} {
		for _, eps := range []float64{0.05, 0.2} {
			opts, err := Options{Epsilon: eps}.fill()
			if err != nil {
				t.Fatal(err)
			}
			rmax := opts.rmax()
			pi, err := pagerank.ReversePageRank(g, pagerank.Options{C: opts.C})
			if err != nil {
				t.Fatal(err)
			}
			order := pagerank.RankNodesByScore(pi)
			for _, w := range []int{order[0], order[1], order[2], order[len(order)/3]} {
				res, err := new(pagerank.BackwardScratch).Search(g, w, opts.C, rmax, opts.MaxLevels)
				if err != nil {
					t.Fatal(err)
				}
				wantLevels, wantActs, wantMass := referenceHubLevels(res, rmax)
				levels, acts, mass, pushes, err := s.searchHubLevels(g, w, opts, rmax)
				if err != nil {
					t.Fatal(err)
				}
				if pushes != res.Pushes {
					t.Errorf("n=%d eps=%v hub %d: %d pushes, reference %d", g.N(), eps, w, pushes, res.Pushes)
				}
				if len(levels) != len(wantLevels) {
					t.Fatalf("n=%d eps=%v hub %d: %d levels, reference %d", g.N(), eps, w, len(levels), len(wantLevels))
				}
				for l := range levels {
					if len(levels[l]) != len(wantLevels[l]) {
						t.Fatalf("n=%d eps=%v hub %d level %d: %d entries, reference %d", g.N(), eps, w, l, len(levels[l]), len(wantLevels[l]))
					}
					for i, e := range levels[l] {
						if want := wantLevels[l][i]; e.Node != want.Node || math.Float64bits(e.Reserve) != math.Float64bits(want.Reserve) {
							t.Fatalf("n=%d eps=%v hub %d level %d entry %d: %+v, reference %+v", g.N(), eps, w, l, i, e, want)
						}
					}
				}
				if len(acts) != len(wantActs) || len(mass) != len(acts) {
					t.Fatalf("n=%d eps=%v hub %d: %d activation ids and %d masses, reference %d", g.N(), eps, w, len(acts), len(mass), len(wantActs))
				}
				for i := range acts {
					if acts[i] != wantActs[i] || math.Float32bits(mass[i]) != math.Float32bits(wantMass[i]) {
						t.Fatalf("n=%d eps=%v hub %d activation %d: (%d, %v), reference (%d, %v)", g.N(), eps, w, i, acts[i], mass[i], wantActs[i], wantMass[i])
					}
				}
			}
		}
	}
}

// digestGraphs are the three fixed generated graphs whose builds
// (TestBuildSnapshotDigests) and queries (TestQueryScoreDigests) are pinned
// by recorded SHA-256 digests.
var digestGraphs = []struct {
	name string
	g    func() (*graph.Graph, error)
}{
	{"powerlaw-2.5", func() (*graph.Graph, error) {
		return gen.PowerLaw(gen.PowerLawOptions{N: 3000, AvgDegree: 8, Gamma: 2.5, Directed: true, Seed: 21})
	}},
	{"powerlaw-1.2", func() (*graph.Graph, error) {
		return gen.PowerLaw(gen.PowerLawOptions{N: 2000, AvgDegree: 6, Gamma: 1.2, Directed: true, Seed: 22})
	}},
	{"erdos-renyi", func() (*graph.Graph, error) {
		return gen.ErdosRenyi(gen.EROptions{N: 2000, AvgDegree: 6, Directed: true, Seed: 23})
	}},
}

// TestBuildSnapshotDigests pins the bytes a build saves: indexes built from
// the three digest graphs must hash to the SHA-256 digests recorded while
// the backward search still ran on maps, at Parallelism 1, 2 and 4, so a
// change to the search's scratch, its visiting order or the per-worker state
// shows as a digest mismatch, on 32-bit hosts too.
func TestBuildSnapshotDigests(t *testing.T) {
	want := map[string]string{
		"powerlaw-2.5": "f02bf3eadf228f88e0da79438145b551849a8097981dbbf80c13905bf8fd2337",
		"powerlaw-1.2": "01734e584b7d18b79792a52e71e2dc593ea0e90c87184f09c438f55e8edeac72",
		"erdos-renyi":  "8f5a62510e7c288f2490f55066845bd15df9f84625adcb7b1f39fc3407d75b66",
	}
	for _, tc := range digestGraphs {
		for _, p := range []int{1, 2, 4} {
			g, err := tc.g()
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			idx, err := BuildIndex(g, Options{Epsilon: 0.1, NumHubs: -1, Seed: 5, Parallelism: p})
			if err != nil {
				t.Fatalf("%s: BuildIndex: %v", tc.name, err)
			}
			var buf bytes.Buffer
			if err := idx.Save(&buf); err != nil {
				t.Fatalf("%s: Save: %v", tc.name, err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != want[tc.name] {
				t.Errorf("%s at Parallelism %d: snapshot SHA-256 %s, want %s", tc.name, p, got, want[tc.name])
			}
		}
	}
}
