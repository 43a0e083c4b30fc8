package core

import (
	"math"
	"sort"

	"prsim/internal/graph"
	"prsim/internal/walk"
)

// backwardWalker runs the sampling-based ℓ-hop RPPR estimators of Section 3.4:
// the simple Backward Walk (Algorithm 2) and the Variance Bounded Backward
// Walk (Algorithm 3). Both produce, for a target node w and level ℓ, an
// unbiased estimator π̂_ℓ(v, w) for every v, touching only O(n·π(w)) entries in
// expectation. They rely on the graph's out-adjacency lists being sorted by
// head in-degree so that scans can stop at the first node whose in-degree
// exceeds the current threshold.
//
// The walker owns two dense frontier buffers (value slice + touched list) so
// that repeated walks perform no per-call allocation beyond growth of the
// touched lists; a queryState reuses one walker across every walk of a query
// and across queries.
type backwardWalker struct {
	g     *graph.Graph
	alpha float64 // 1-√c
	sqrtC float64
	rng   *walk.RNG

	// outOff indexes the walk tables' packed out-adjacency. Query states
	// share the Index's tables; a standalone walker builds its own on first
	// use.
	outOff []int
	walkTables

	// cur/next are dense frontier values indexed by node; curTouched and
	// nextTouched list the nodes with non-zero entries. Outside a call, next is
	// all-zero and cur holds the previous result at curTouched (zeroed lazily
	// at the start of the next call).
	cur, next               []float64
	curTouched, nextTouched []int

	// cost counts the number of estimator increments performed, the quantity
	// bounded by O(nπ(w)) in Lemma 3.4. Exposed for the experiment harness.
	cost int
}

func newBackwardWalker(g *graph.Graph, c float64, rng *walk.RNG) *backwardWalker {
	opts := Options{C: c}
	b := &backwardWalker{g: g, alpha: opts.alpha(), sqrtC: opts.sqrtC(), rng: rng}
	b.outOff, _, _, _ = g.CSR()
	return b
}

// outEdge is one packed out-adjacency record: the head node and its
// in-degree (exact — in-degrees are bounded by the edge count, which the
// int32 CSR adjacency already caps).
type outEdge struct {
	node int32
	din  int32
}

// walkRec is one node's walk record: its hub rank (-1 for non-hubs), which
// the walk phase reads once per walk end, and minDin, the in-degree of the
// head of its first out-edge (math.MaxInt32 when it has none), which the
// backward walk reads once per expanded frontier node. Out-adjacency is
// sorted by head in-degree, so minDin is the smallest head in-degree, and a
// node whose minDin exceeds both expansion thresholds expands nothing.
type walkRec struct {
	hubRank int32
	minDin  int32
}

// walkTables are the read-only per-index tables the walk kernels share.
// edges[k] carries the head node of the k-th CSR out-edge together with that
// head's in-degree, so the backward walk's threshold scans stream one 8-byte
// record per edge instead of chasing a random in-degree lookup per neighbor;
// recipIn[y] holds 1/InDegree(y), replacing the deterministic part's division
// with a multiply; recs[v] is node v's walkRec.
type walkTables struct {
	edges   []outEdge
	recipIn []float64
	recs    []walkRec
}

// buildWalkTables computes the packed out-adjacency, the node-indexed
// reciprocal-in-degree table and the walk records, taking hub ranks from
// hubRank (nil: no hubs). Nodes with in-degree zero get reciprocal zero;
// they can never be an out-neighbor, so the walk loops never read those
// slots.
func buildWalkTables(g *graph.Graph, hubRank []int) walkTables {
	outOff, outAdj, inOff, _ := g.CSR()
	n := g.N()
	t := walkTables{
		edges:   make([]outEdge, len(outAdj)),
		recipIn: make([]float64, n),
		recs:    make([]walkRec, n),
	}
	for k, y := range outAdj {
		t.edges[k] = outEdge{node: y, din: int32(inOff[y+1] - inOff[y])}
	}
	for v := 0; v < n; v++ {
		if d := g.InDegree(v); d > 0 {
			t.recipIn[v] = 1 / float64(d)
		}
		rec := walkRec{hubRank: -1, minDin: math.MaxInt32}
		if hubRank != nil {
			rec.hubRank = int32(hubRank[v])
		}
		if outOff[v] < outOff[v+1] {
			rec.minDin = t.edges[outOff[v]].din
		}
		t.recs[v] = rec
	}
	return t
}

// reset re-seeds the walker's generator as if it were freshly constructed with
// walk.NewRNG(seed), so a pooled walker replays the exact random stream a
// per-query walker would have consumed.
func (b *backwardWalker) reset(seed uint64) {
	b.rng.Reseed(seed)
}

func (b *backwardWalker) ensureScratch() {
	if b.cur == nil {
		n := b.g.N()
		b.cur = make([]float64, n)
		b.next = make([]float64, n)
	}
	if b.edges == nil {
		b.walkTables = buildWalkTables(b.g, nil)
	}
}

// clearScratch zeroes the result left behind by the previous call, restoring
// the all-zero invariant on both dense buffers.
func (b *backwardWalker) clearScratch() {
	for _, v := range b.curTouched {
		b.cur[v] = 0
	}
	b.curTouched = b.curTouched[:0]
	b.nextTouched = b.nextTouched[:0]
}

// varianceBoundedInto runs Algorithm 3 from node w with target level ℓ and
// returns the nodes with non-zero estimates together with the dense value
// buffer they index into. Both are owned by the walker's scratch and are valid
// only until the next walk.
//
// Canonical frontier order: each level's frontier is visited in first-touch
// order — the order nodes were discovered while expanding the previous level
// (the target node alone at level 0). That order is fully determined by the
// graph and the random stream, so a fixed seed reproduces every estimate
// without the per-level sort the historical sorted-frontier contract paid
// for. (The two contracts consume different random streams; see the package
// determinism notes in Options.)
//
// Each surviving frontier node x draws its randomized-part variate r right
// after its stop coin — the deterministic part consumes no randomness, so
// this is the stream Algorithm 3 reads in its own order — and is then
// prechecked against its walk record: the randomized threshold
// π̂/(r(1-√c)) is at least the deterministic one π̂/(1-√c), so when x's
// first-head in-degree exceeds it both scans would stop at their first
// edge, and x is skipped without loading its adjacency. Estimates, stream
// and Cost() are those of the unchecked scans.
func (b *backwardWalker) varianceBoundedInto(w, level int) (touched []int, values []float64) {
	b.ensureScratch()
	b.clearScratch()
	b.cur[w] = b.alpha
	b.curTouched = append(b.curTouched, w)
	outOff := b.outOff
	edges, recipIn, recs := b.edges, b.recipIn, b.recs
	rng, alpha, sqrtC := b.rng, b.alpha, b.sqrtC
	cost := b.cost
	for i := 0; i < level; i++ {
		cur, next := b.cur, b.next
		nextTouched := b.nextTouched
		for _, x := range b.curTouched {
			px := cur[x]
			cur[x] = 0
			// Stop the walk at x with probability 1-√c.
			if rng.Float64() >= sqrtC {
				continue
			}
			r := rng.Float64Open()
			randThreshold := px / (r * alpha)
			if float64(recs[x].minDin) > randThreshold {
				continue
			}
			j, end := outOff[x], outOff[x+1]
			// Deterministic part: out-neighbors with din(y) <= π̂/(1-√c) get
			// the exact share π̂/din(y).
			detThreshold := px / alpha
			for ; j < end; j++ {
				e := edges[j]
				if float64(e.din) > detThreshold {
					break
				}
				y := int(e.node)
				if next[y] == 0 {
					nextTouched = append(nextTouched, y)
				}
				next[y] += px * recipIn[y]
				cost++
			}
			// Randomized part: out-neighbors with din(y) <= π̂/(r(1-√c)) get a
			// fixed increment 1-√c, turning the tail into a bounded-variance
			// Bernoulli contribution.
			for ; j < end; j++ {
				e := edges[j]
				if float64(e.din) > randThreshold {
					break
				}
				y := int(e.node)
				if next[y] == 0 {
					nextTouched = append(nextTouched, y)
				}
				next[y] += alpha
				cost++
			}
		}
		b.cur, b.next = next, cur
		b.curTouched, b.nextTouched = nextTouched, b.curTouched[:0]
		if len(b.curTouched) == 0 {
			break
		}
	}
	b.cost = cost
	return b.curTouched, b.cur
}

// VarianceBounded runs Algorithm 3 and returns the non-zero estimates
// π̂_ℓ(v, w) as a freshly allocated map. It is the map-allocating
// compatibility wrapper used by the ablation harness; the query path uses
// varianceBoundedInto, which returns the walker-owned scratch without
// allocating.
func (b *backwardWalker) VarianceBounded(w, level int) map[int]float64 {
	touched, values := b.varianceBoundedInto(w, level)
	if len(touched) == 0 {
		return nil
	}
	est := make(map[int]float64, len(touched))
	for _, v := range touched {
		est[v] = values[v]
	}
	return est
}

// Simple runs Algorithm 2 (the simple Backward Walk with unbounded variance)
// from node w with target level ℓ. It is retained for the ablation benchmarks
// comparing it against the variance-bounded version; it is not on the query
// hot path, so it keeps the historical map-based, sorted-iteration
// implementation.
func (b *backwardWalker) Simple(w, level int) map[int]float64 {
	cur := map[int]float64{w: b.alpha}
	if level == 0 {
		return cur
	}
	for i := 0; i < level; i++ {
		next := make(map[int]float64)
		for _, x := range sortedKeys(cur) {
			px := cur[x]
			r := b.rng.Float64Open()
			threshold := b.sqrtC / r
			for _, yy := range b.g.OutNeighbors(x) {
				y := int(yy)
				din := float64(b.g.InDegree(y))
				if din > threshold {
					break
				}
				next[y] += px
				b.cost++
			}
		}
		cur = next
		if len(cur) == 0 {
			break
		}
	}
	if len(cur) == 0 {
		return nil
	}
	return cur
}

// Cost returns the number of estimator increments performed so far.
func (b *backwardWalker) Cost() int { return b.cost }

// sortedKeys returns the keys of m in ascending order. The simple backward
// walk iterates nodes in this fixed order so that, for a fixed seed, the
// sequence of random numbers consumed (and hence the whole run) is
// deterministic.
func sortedKeys(m map[int]float64) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
