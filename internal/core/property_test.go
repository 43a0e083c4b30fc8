package core

import (
	"testing"
	"testing/quick"

	"prsim/internal/graph"
	"prsim/internal/walk"
)

// randomGraph builds a pseudo-random directed graph from a seed for property
// tests.
func randomGraph(seed uint64, n, edges int) *graph.Graph {
	rng := walk.NewRNG(seed)
	b := graph.NewBuilderN(n)
	for i := 0; i < edges; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(u, v)
		}
	}
	return b.MustBuild()
}

func TestQueryScoresWithinRangeProperty(t *testing.T) {
	// Property: for arbitrary graphs and seeds, every PRSim estimate stays
	// within [0, 1] plus the additive error budget, and the source scores 1.
	f := func(seed uint64) bool {
		g := randomGraph(seed, 30, 120)
		idx, err := BuildIndex(g, Options{Epsilon: 0.3, Delta: 0.05, NumHubs: 5, Seed: seed, SampleScale: 0.2})
		if err != nil {
			return false
		}
		u := int(seed % 30)
		res, err := query(idx, u)
		if err != nil {
			return false
		}
		if res.Score(u) != 1 {
			return false
		}
		for _, s := range res.Scores {
			if s < 0 || s > 1.3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestVarianceBoundedEstimatesNonNegativeProperty(t *testing.T) {
	// Property: backward-walk estimates are always non-negative and only
	// touch nodes that can actually reach the target.
	f := func(seed uint64) bool {
		g := randomGraph(seed, 25, 80)
		bw := newBackwardWalker(g, 0.6, walk.NewRNG(seed))
		w := int(seed % 25)
		for level := 0; level <= 3; level++ {
			for v, p := range bw.VarianceBounded(w, level) {
				if p < 0 {
					return false
				}
				if v < 0 || v >= g.N() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestIndexEntriesAboveThresholdProperty(t *testing.T) {
	// Property: Algorithm 1 only stores reserves strictly above rmax, for any
	// graph and epsilon.
	f := func(seed uint64) bool {
		g := randomGraph(seed, 40, 150)
		eps := 0.05 + float64(seed%5)*0.05
		opts := Options{Epsilon: eps, NumHubs: 8, Seed: seed}
		idx, err := BuildIndex(g, opts)
		if err != nil {
			return false
		}
		filled, _ := opts.fill()
		rmax := filled.rmax()
		for _, w := range idx.Hubs() {
			for level := 0; level < 20; level++ {
				for _, e := range idx.HubEntries(w, level) {
					if e.Reserve <= rmax {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
