package pagerank

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"prsim/internal/gen"
	"prsim/internal/graph"
)

// reserveAt returns ψ_ℓ(v, w) from one level of a search result, or 0 when v
// holds no reserve there.
func reserveAt(lvl []Reserve, v int) float64 {
	i := sort.Search(len(lvl), func(i int) bool { return int(lvl[i].Node) >= v })
	if i < len(lvl) && int(lvl[i].Node) == v {
		return lvl[i].Value
	}
	return 0
}

func TestBackwardSearchMatchesExactRPPR(t *testing.T) {
	g := smallGraph()
	const rmax = 1e-7 // tiny rmax: reserves should be nearly exact
	for w := 0; w < g.N(); w++ {
		res, err := new(BackwardScratch).Search(g, w, testC, rmax, 80)
		if err != nil {
			t.Fatalf("Search(%d): %v", w, err)
		}
		// Compare ψ_ℓ(v,w) against exact π_ℓ(v,w) for every source v.
		for v := 0; v < g.N(); v++ {
			exactLevels, _ := LHopRPPR(g, v, len(res.Reserves)-1, Options{C: testC})
			for l := 0; l < len(res.Reserves); l++ {
				got := reserveAt(res.Reserves[l], v)
				// ψ_ℓ(v,w) approximates π_ℓ(v,w): the probability a walk FROM v
				// terminates at w in ℓ steps.
				if math.Abs(got-exactLevels[l][w]) > 1e-4 {
					t.Errorf("w=%d v=%d l=%d: reserve %v, exact %v", w, v, l, got, exactLevels[l][w])
				}
			}
		}
	}
}

func TestBackwardSearchErrorBound(t *testing.T) {
	// With a coarse rmax the reserves must still be within rmax of the exact
	// values (Lemma 3.1).
	g := smallGraph()
	const rmax = 0.05
	for w := 0; w < g.N(); w++ {
		res, err := new(BackwardScratch).Search(g, w, testC, rmax, 80)
		if err != nil {
			t.Fatalf("Search(%d): %v", w, err)
		}
		for v := 0; v < g.N(); v++ {
			exactLevels, _ := LHopRPPR(g, v, maxInt(len(res.Reserves)-1, 0), Options{C: testC})
			for l := 0; l < len(res.Reserves); l++ {
				got := reserveAt(res.Reserves[l], v)
				want := exactLevels[l][w]
				if math.Abs(got-want) >= rmax+1e-9 {
					t.Errorf("w=%d v=%d l=%d: |%v - %v| >= rmax", w, v, l, got, want)
				}
			}
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestBackwardSearchLevelZero(t *testing.T) {
	g := smallGraph()
	res, err := new(BackwardScratch).Search(g, 2, testC, 1e-6, 80)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	alpha := 1 - math.Sqrt(testC)
	if math.Abs(reserveAt(res.Reserves[0], 2)-alpha) > 1e-12 {
		t.Errorf("psi_0(w,w) = %v, want %v", reserveAt(res.Reserves[0], 2), alpha)
	}
	if len(res.Reserves[0]) != 1 {
		t.Errorf("level 0 should only contain the target, got %v", res.Reserves[0])
	}
}

func TestBackwardSearchResiduesBelowRMax(t *testing.T) {
	g := smallGraph()
	const rmax = 0.01
	res, err := new(BackwardScratch).Search(g, 0, testC, rmax, 80)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if res.MaxResidue >= rmax || res.MaxResidue <= 0 {
		t.Errorf("largest residue left is %v, want in (0, rmax=%v)", res.MaxResidue, rmax)
	}
	if res.Pushes <= 0 {
		t.Errorf("expected at least one push")
	}
	entries := 0
	for _, lvl := range res.Reserves {
		entries += len(lvl)
	}
	if entries <= 0 {
		t.Errorf("expected at least one reserve entry")
	}
}

func TestBackwardSearchValidation(t *testing.T) {
	g := smallGraph()
	if _, err := new(BackwardScratch).Search(g, 100, testC, 0.01, 10); err == nil {
		t.Errorf("invalid target should be an error")
	}
	if _, err := new(BackwardScratch).Search(g, 0, 0, 0.01, 10); err == nil {
		t.Errorf("invalid c should be an error")
	}
	if _, err := new(BackwardScratch).Search(g, 0, testC, 0, 10); err == nil {
		t.Errorf("non-positive rmax should be an error")
	}
}

// TestExactComputationsRejectPendingOverlay pins that the searches reading
// CSR arrays refuse a graph whose journaled edge updates those arrays do not
// hold, instead of answering for the graph without them.
func TestExactComputationsRejectPendingOverlay(t *testing.T) {
	g := smallGraph()
	if err := g.ApplyUpdates([]graph.EdgeUpdate{{From: 4, To: 5}}); err != nil {
		t.Fatalf("ApplyUpdates: %v", err)
	}
	if _, err := new(BackwardScratch).Search(g, 2, testC, 0.01, 10); err == nil {
		t.Errorf("Search on a graph with a pending overlay should be an error")
	}
	if _, err := ReversePageRank(g, Options{C: testC}); err == nil {
		t.Errorf("ReversePageRank on a graph with a pending overlay should be an error")
	}
	if _, err := ReversePPR(g, 0, Options{C: testC}); err == nil {
		t.Errorf("ReversePPR on a graph with a pending overlay should be an error")
	}
	if _, err := LHopRPPR(g, 0, 3, Options{C: testC}); err == nil {
		t.Errorf("LHopRPPR on a graph with a pending overlay should be an error")
	}
}

// mapBackwardSearch is the map-based backward search the dense one replaced,
// kept as its reference: per level, it sorts the residue map's keys and
// visits them in ascending order, accumulating into fresh maps.
func mapBackwardSearch(g *graph.Graph, w int, c, rmax float64, maxLevels int) (reserves, residues []map[int]float64, pushes int) {
	sqrtC := math.Sqrt(c)
	alpha := 1 - sqrtC
	residue := map[int]float64{w: 1}
	for level := 0; level < maxLevels && len(residue) > 0; level++ {
		reserved := make(map[int]float64)
		nextResidue := make(map[int]float64)
		leftover := make(map[int]float64)
		order := make([]int, 0, len(residue))
		for v := range residue {
			order = append(order, v)
		}
		sort.Ints(order)
		for _, v := range order {
			r := residue[v]
			if r < rmax {
				leftover[v] = r
				continue
			}
			reserved[v] += alpha * r
			for _, z := range g.OutNeighbors(v) {
				zi := int(z)
				din := g.InDegree(zi)
				if din == 0 {
					continue
				}
				nextResidue[zi] += sqrtC * r / float64(din)
				pushes++
			}
		}
		reserves = append(reserves, reserved)
		residues = append(residues, leftover)
		residue = nextResidue
	}
	for len(reserves) > 0 && len(reserves[len(reserves)-1]) == 0 &&
		len(residues[len(residues)-1]) == 0 {
		reserves = reserves[:len(reserves)-1]
		residues = residues[:len(residues)-1]
	}
	return reserves, residues, pushes
}

// TestBackwardSearchMatchesMapReference pins the dense search to the map
// search bit for bit — level count (trailing levels that hold only sub-rmax
// residues included), every reserve's node and bits, the push count and the
// largest residue left — on skewed, mild and uniform random graphs. One
// scratch serves every search, graph sizes and level cut-offs included, so
// state a search leaves behind would show in the next one.
func TestBackwardSearchMatchesMapReference(t *testing.T) {
	pl := func(gamma float64, seed uint64) *graph.Graph {
		g, err := gen.PowerLaw(gen.PowerLawOptions{N: 1200, AvgDegree: 6, Gamma: gamma, Directed: true, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	er, err := gen.ErdosRenyi(gen.EROptions{N: 900, AvgDegree: 5, Directed: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{{"powerlaw-1.2", pl(1.2, 3)}, {"powerlaw-2.5", pl(2.5, 4)}, {"erdos-renyi", er}}
	var s BackwardScratch
	trailing := 0
	for _, tc := range graphs {
		g := tc.g
		pi, err := ReversePageRank(g, Options{C: testC})
		if err != nil {
			t.Fatal(err)
		}
		order := RankNodesByScore(pi)
		targets := []int{order[0], order[1], order[len(order)/2], order[len(order)-1]}
		for _, rmax := range []float64{1e-2, 1e-3, 1e-4} {
			for _, maxLevels := range []int{64, 3} {
				for _, w := range targets {
					wantRes, wantLeft, wantPushes := mapBackwardSearch(g, w, testC, rmax, maxLevels)
					got, err := s.Search(g, w, testC, rmax, maxLevels)
					if err != nil {
						t.Fatalf("%s w=%d: %v", tc.name, w, err)
					}
					label := fmt.Sprintf("%s w=%d rmax=%g levels=%d", tc.name, w, rmax, maxLevels)
					if got.Pushes != wantPushes {
						t.Errorf("%s: %d pushes, reference %d", label, got.Pushes, wantPushes)
					}
					if len(got.Reserves) != len(wantRes) {
						t.Fatalf("%s: %d levels, reference %d", label, len(got.Reserves), len(wantRes))
					}
					wantMax := 0.0
					for _, lvl := range wantLeft {
						for _, r := range lvl {
							wantMax = math.Max(wantMax, r)
						}
					}
					if math.Float64bits(got.MaxResidue) != math.Float64bits(wantMax) {
						t.Errorf("%s: max residue %v, reference %v", label, got.MaxResidue, wantMax)
					}
					if last := len(wantRes) - 1; len(wantRes[last]) == 0 {
						trailing++
					}
					for l, lvl := range got.Reserves {
						if len(lvl) != len(wantRes[l]) {
							t.Fatalf("%s level %d: %d reserves, reference %d", label, l, len(lvl), len(wantRes[l]))
						}
						for i, e := range lvl {
							if i > 0 && lvl[i-1].Node >= e.Node {
								t.Fatalf("%s level %d: nodes %d, %d not ascending", label, l, lvl[i-1].Node, e.Node)
							}
							want, ok := wantRes[l][int(e.Node)]
							if !ok || math.Float64bits(e.Value) != math.Float64bits(want) {
								t.Fatalf("%s level %d node %d: reserve %v, reference %v (present %v)", label, l, e.Node, e.Value, want, ok)
							}
						}
					}
				}
			}
		}
	}
	if trailing == 0 {
		t.Errorf("no search ended on a level holding only sub-rmax residues; the cases no longer cover it")
	}
}
