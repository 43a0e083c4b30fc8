package core

import (
	"math"
	"slices"
	"testing"

	"prsim/internal/gen"
	"prsim/internal/graph"
	"prsim/internal/pagerank"
	"prsim/internal/walk"
)

// fixtureGraph is a small graph with a hub (node 2), a cycle and a dangling
// source; the same shape is used across the core tests.
func fixtureGraph() *graph.Graph {
	g := graph.MustFromEdges(6, []graph.Edge{
		{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 2}, {From: 2, To: 3},
		{From: 3, To: 0}, {From: 3, To: 4}, {From: 4, To: 2}, {From: 1, To: 5},
		{From: 5, To: 2},
	})
	g.SortOutByInDegree()
	return g
}

// powerLaw5k is a 5,000-node directed power-law graph (average degree 8,
// γ = 2.5) with out-adjacency sorted by head in-degree, the shape the
// backward walk and the walk phase are tuned for.
func powerLaw5k(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.PowerLaw(gen.PowerLawOptions{N: 5000, AvgDegree: 8, Gamma: 2.5, Directed: true, Seed: 11})
	if err != nil {
		t.Fatalf("PowerLaw: %v", err)
	}
	g.SortOutByInDegree()
	return g
}

// referenceVarianceBoundedInto is Algorithm 3 without the expansion
// precheck: every surviving frontier node loads its adjacency, scans the
// deterministic part, and only then draws r for the randomized part. The
// query kernel must match it bit for bit.
func referenceVarianceBoundedInto(b *backwardWalker, w, level int) (touched []int, values []float64) {
	b.ensureScratch()
	b.clearScratch()
	b.cur[w] = b.alpha
	b.curTouched = append(b.curTouched, w)
	for i := 0; i < level; i++ {
		cur, next := b.cur, b.next
		nextTouched := b.nextTouched
		for _, x := range b.curTouched {
			px := cur[x]
			cur[x] = 0
			if b.rng.Float64() >= b.sqrtC {
				continue
			}
			j, end := b.outOff[x], b.outOff[x+1]
			detThreshold := px / b.alpha
			for ; j < end; j++ {
				e := b.edges[j]
				if float64(e.din) > detThreshold {
					break
				}
				y := int(e.node)
				if next[y] == 0 {
					nextTouched = append(nextTouched, y)
				}
				next[y] += px * b.recipIn[y]
				b.cost++
			}
			r := b.rng.Float64Open()
			randThreshold := px / (r * b.alpha)
			for ; j < end; j++ {
				e := b.edges[j]
				if float64(e.din) > randThreshold {
					break
				}
				y := int(e.node)
				if next[y] == 0 {
					nextTouched = append(nextTouched, y)
				}
				next[y] += b.alpha
				b.cost++
			}
		}
		b.cur, b.next = next, cur
		b.curTouched, b.nextTouched = nextTouched, b.curTouched[:0]
		if len(b.curTouched) == 0 {
			break
		}
	}
	return b.curTouched, b.cur
}

// TestVarianceBoundedMatchesReference pins the expansion precheck as exact:
// over many (w, ℓ, seed) triples the query kernel returns the reference's
// touched order and value bits, keeps its random stream in step (the
// walkers run each seed's walks back to back), and reports the same Cost().
func TestVarianceBoundedMatchesReference(t *testing.T) {
	g := powerLaw5k(t)
	nonEmpty, walks := 0, 0
	for seed := uint64(1); seed <= 6; seed++ {
		ref := newBackwardWalker(g, 0.6, walk.NewRNG(seed))
		got := newBackwardWalker(g, 0.6, walk.NewRNG(seed))
		for w := int(seed); w < g.N(); w += 3 {
			level := 1 + (w/3)%8
			rt, rv := referenceVarianceBoundedInto(ref, w, level)
			gt, gv := got.varianceBoundedInto(w, level)
			walks++
			if !slices.Equal(rt, gt) {
				t.Fatalf("seed %d w=%d level %d: touched %v, reference %v", seed, w, level, gt, rt)
			}
			for _, v := range rt {
				if math.Float64bits(gv[v]) != math.Float64bits(rv[v]) {
					t.Fatalf("seed %d w=%d level %d: node %d value %v, reference %v", seed, w, level, v, gv[v], rv[v])
				}
			}
			if got.Cost() != ref.Cost() {
				t.Fatalf("seed %d w=%d level %d: cost %d, reference %d", seed, w, level, got.Cost(), ref.Cost())
			}
			if len(rt) > 0 {
				nonEmpty++
			}
		}
	}
	if nonEmpty < walks/20 {
		t.Fatalf("only %d of %d walks returned estimates; the comparison needs expanding walks", nonEmpty, walks)
	}
	t.Logf("%d walks, %d non-empty", walks, nonEmpty)
}

func TestVarianceBoundedBackwardWalkUnbiased(t *testing.T) {
	// Average many independent runs of Algorithm 3 and compare with the exact
	// ℓ-hop RPPR values (Lemma 3.3).
	g := fixtureGraph()
	const c = 0.6
	const trials = 200000
	const maxLevel = 3
	for _, w := range []int{0, 2, 3} {
		sums := make([]map[int]float64, maxLevel+1)
		for l := range sums {
			sums[l] = make(map[int]float64)
		}
		rng := walk.NewRNG(777)
		for l := 0; l <= maxLevel; l++ {
			bw := newBackwardWalker(g, c, rng.Split())
			for i := 0; i < trials; i++ {
				for v, p := range bw.VarianceBounded(w, l) {
					sums[l][v] += p / trials
				}
			}
		}
		for l := 0; l <= maxLevel; l++ {
			for v := 0; v < g.N(); v++ {
				exactLevels, _ := pagerank.LHopRPPR(g, v, l, pagerank.Options{C: c})
				want := exactLevels[l][w]
				got := sums[l][v]
				if math.Abs(got-want) > 0.02 {
					t.Errorf("w=%d level=%d v=%d: mean estimate %v, exact %v", w, l, v, got, want)
				}
			}
		}
	}
}

func TestSimpleBackwardWalkUnbiased(t *testing.T) {
	g := fixtureGraph()
	const c = 0.6
	const trials = 200000
	const level = 2
	w := 2
	sums := make(map[int]float64)
	bw := newBackwardWalker(g, c, walk.NewRNG(31337))
	for i := 0; i < trials; i++ {
		for v, p := range bw.Simple(w, level) {
			sums[v] += p / trials
		}
	}
	for v := 0; v < g.N(); v++ {
		exactLevels, _ := pagerank.LHopRPPR(g, v, level, pagerank.Options{C: c})
		want := exactLevels[level][w]
		if math.Abs(sums[v]-want) > 0.02 {
			t.Errorf("v=%d: mean estimate %v, exact %v", v, sums[v], want)
		}
	}
}

func TestBackwardWalkLevelZero(t *testing.T) {
	g := fixtureGraph()
	bw := newBackwardWalker(g, 0.6, walk.NewRNG(5))
	est := bw.VarianceBounded(3, 0)
	alpha := 1 - math.Sqrt(0.6)
	if len(est) != 1 || math.Abs(est[3]-alpha) > 1e-12 {
		t.Errorf("level-0 estimate = %v, want {3: %v}", est, alpha)
	}
	est = bw.Simple(3, 0)
	if len(est) != 1 || math.Abs(est[3]-alpha) > 1e-12 {
		t.Errorf("simple level-0 estimate = %v, want {3: %v}", est, alpha)
	}
}

func TestBackwardWalkCostCounting(t *testing.T) {
	g := fixtureGraph()
	bw := newBackwardWalker(g, 0.6, walk.NewRNG(2))
	if bw.Cost() != 0 {
		t.Fatalf("fresh walker has non-zero cost")
	}
	for i := 0; i < 100; i++ {
		bw.VarianceBounded(2, 3)
	}
	if bw.Cost() == 0 {
		t.Errorf("cost should be positive after 100 walks from a reachable hub")
	}
}

func TestVarianceBoundedSecondMoment(t *testing.T) {
	// Lemma 3.5: E[π̂_ℓ(v,w)²] <= π_ℓ(v,w). Check empirically on the hub node.
	g := fixtureGraph()
	const c = 0.6
	const trials = 200000
	const level = 2
	w := 2
	sq := make(map[int]float64)
	bw := newBackwardWalker(g, c, walk.NewRNG(91))
	for i := 0; i < trials; i++ {
		for v, p := range bw.VarianceBounded(w, level) {
			sq[v] += p * p / trials
		}
	}
	for v := 0; v < g.N(); v++ {
		exactLevels, _ := pagerank.LHopRPPR(g, v, level, pagerank.Options{C: c})
		bound := exactLevels[level][w]
		// Allow Monte Carlo slack proportional to the bound.
		if sq[v] > bound+0.02 {
			t.Errorf("v=%d: E[est²] = %v exceeds bound π_ℓ = %v", v, sq[v], bound)
		}
	}
}

func TestBackwardWalkOnStarGraph(t *testing.T) {
	// Star into a single sink: w -> x_i -> sink (the worst case discussed
	// after Lemma 3.4). The variance-bounded walk must still be unbiased.
	const fan = 20
	edges := []graph.Edge{}
	for i := 0; i < fan; i++ {
		x := 2 + i
		edges = append(edges, graph.Edge{From: 0, To: x}, graph.Edge{From: x, To: 1})
	}
	g := graph.MustFromEdges(fan+2, edges)
	g.SortOutByInDegree()
	const c = 0.6
	const trials = 300000
	bw := newBackwardWalker(g, c, walk.NewRNG(4242))
	sum := 0.0
	for i := 0; i < trials; i++ {
		est := bw.VarianceBounded(0, 2)
		sum += est[1]
	}
	exactLevels, _ := pagerank.LHopRPPR(g, 1, 2, pagerank.Options{C: c})
	want := exactLevels[2][0]
	got := sum / trials
	if math.Abs(got-want) > 0.01 {
		t.Errorf("π̂_2(sink, w): mean %v, exact %v", got, want)
	}
}
