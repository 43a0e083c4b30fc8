package core

import (
	"math"
	"testing"

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
