package pagerank

import (
	"fmt"
	"math"
	"math/bits"

	"prsim/internal/graph"
)

// Reserve is one (v, ψ_ℓ(v,w)) pair of a backward search level.
type Reserve struct {
	Node  int32
	Value float64
}

// BackwardResult holds the outcome of a level-by-level backward search (push)
// from a target node w: per-level reserves ψ_ℓ(v,w) approximating the ℓ-hop
// RPPR π_ℓ(v,w) with additive error at most RMax.
type BackwardResult struct {
	Target int
	RMax   float64
	// Reserves[ℓ] lists, in ascending node order, every node v whose level-ℓ
	// residue reached RMax, with its reserve ψ_ℓ(v, Target). A level whose
	// residues all stayed below RMax is present and empty; the slice ends at
	// the last level that held any residue.
	Reserves [][]Reserve
	// MaxResidue is the largest residue left unpushed on a searched level
	// (always below RMax); 0 when the search pushed every residue it held.
	MaxResidue float64
	// Pushes is the number of edge relaxations performed; it is the dominant
	// cost term and is reported for the preprocessing-time experiments.
	Pushes int
}

// BackwardScratch is the reusable dense state of a backward search: the
// residue vectors of the current and next level and one touched-node bitset
// per level. A search leaves it zeroed, so one scratch serves any number of
// searches over graphs of any size. The zero value is ready to use; a scratch
// must not be shared by concurrent searches.
type BackwardScratch struct {
	residue, next []float64
	cur, nxt      []uint64 // bit v set: node v holds residue at that level
	reserves      []Reserve
	ends          []int // ends[ℓ]: end of level ℓ's reserves
}

// Search runs the levelwise backward search of Algorithm 1 (lines 6-17) from
// target node w: starting from residue r_0(w,w) = 1, any residue of at least
// rmax is converted into reserve ((1-√c) r) and pushed to the out-neighbors
// of its node at the next level with weight √c·r/din(z).
//
// The resulting reserves satisfy |ψ_ℓ(v,w) − π_ℓ(v,w)| < rmax for every node v
// and level ℓ (Lemma 3.1). Each level visits its residues in ascending node
// order, so floating-point accumulation, and with it the stored index, is
// bit-for-bit reproducible across runs and across parallel builds. The graph
// must carry no pending edge overlay: the search reads its CSR arrays.
func (s *BackwardScratch) Search(g *graph.Graph, w int, c, rmax float64, maxLevels int) (*BackwardResult, error) {
	if err := g.CheckNode(w); err != nil {
		return nil, err
	}
	if c <= 0 || c >= 1 {
		return nil, fmt.Errorf("pagerank: decay factor c=%v outside (0,1)", c)
	}
	if rmax <= 0 {
		return nil, fmt.Errorf("pagerank: rmax=%v must be positive", rmax)
	}
	if err := checkNoOverlay(g); err != nil {
		return nil, err
	}
	if maxLevels <= 0 {
		maxLevels = 256
	}
	n := g.N()
	words := (n + 63) / 64
	if len(s.residue) < n {
		s.residue, s.next = make([]float64, n), make([]float64, n)
		s.cur, s.nxt = make([]uint64, words), make([]uint64, words)
	}
	outOff, outAdj, inOff, _ := g.CSR()
	sqrtC := math.Sqrt(c)
	alpha := 1 - sqrtC

	res := &BackwardResult{Target: w, RMax: rmax}
	residue, next := s.residue, s.next
	cur, nxt := s.cur[:words], s.nxt[:words]
	reserves, ends := s.reserves[:0], s.ends[:0]
	pushes, maxResidue := 0, 0.0
	residue[w] = 1
	cur[w>>6] = 1 << (w & 63)
	for level := 0; level < maxLevels; level++ {
		held := false
		for wi, word := range cur {
			if word == 0 {
				continue
			}
			held = true
			cur[wi] = 0
			for ; word != 0; word &= word - 1 {
				v := wi<<6 | bits.TrailingZeros64(word)
				r := residue[v]
				residue[v] = 0
				if r < rmax {
					maxResidue = math.Max(maxResidue, r)
					continue
				}
				// Convert to reserve and push to out-neighbors at the next level.
				reserves = append(reserves, Reserve{Node: int32(v), Value: alpha * r})
				for _, z := range outAdj[outOff[v]:outOff[v+1]] {
					din := inOff[z+1] - inOff[z]
					if din == 0 {
						continue
					}
					next[z] += sqrtC * r / float64(din)
					nxt[z>>6] |= 1 << (z & 63)
					pushes++
				}
			}
		}
		if !held {
			break
		}
		ends = append(ends, len(reserves))
		residue, next = next, residue
		cur, nxt = nxt, cur
	}
	// A search cut off by maxLevels leaves the unsearched level's residue.
	for wi, word := range cur {
		cur[wi] = 0
		for ; word != 0; word &= word - 1 {
			residue[wi<<6|bits.TrailingZeros64(word)] = 0
		}
	}
	s.reserves, s.ends = reserves, ends
	res.Pushes, res.MaxResidue = pushes, maxResidue

	flat := append([]Reserve(nil), reserves...)
	res.Reserves = make([][]Reserve, len(ends))
	start := 0
	for l, end := range ends {
		res.Reserves[l] = flat[start:end:end]
		start = end
	}
	return res, nil
}

// checkNoOverlay rejects graphs with journaled edge mutations: the exact
// computations here read the base CSR arrays, which do not reflect them.
func checkNoOverlay(g *graph.Graph) error {
	if g.HasOverlay() {
		return fmt.Errorf("pagerank: graph has %d pending edge updates; compact it first", g.PendingUpdates())
	}
	return nil
}
