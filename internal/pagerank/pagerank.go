// Package pagerank implements the reverse PageRank and reverse Personalized
// PageRank (RPPR) machinery that PRSim is built on: exact computation by level
// iteration, Monte Carlo estimation from √c-walks, and the backward search
// (push) algorithm that underlies both the PRSim index and SLING.
//
// All quantities follow the paper's √c-walk semantics: a walk terminates at
// the current node with probability α = 1-√c and otherwise moves to a uniform
// random in-neighbor; a walk at a node with no in-neighbors dies, losing its
// remaining probability mass.
package pagerank

import (
	"fmt"
	"math"
	"sort"

	"prsim/internal/graph"
)

// Options configures exact reverse PageRank / RPPR computation.
type Options struct {
	// C is the SimRank decay factor; the walk continuation probability is √C.
	C float64
	// Tolerance stops the level iteration once the remaining alive mass drops
	// below it. Defaults to 1e-12.
	Tolerance float64
	// MaxLevels caps the number of levels. Defaults to 256.
	MaxLevels int
}

func (o *Options) fill() error {
	if o.C <= 0 || o.C >= 1 {
		return fmt.Errorf("pagerank: decay factor c=%v outside (0,1)", o.C)
	}
	if o.Tolerance <= 0 {
		o.Tolerance = 1e-12
	}
	if o.MaxLevels <= 0 {
		o.MaxLevels = 256
	}
	return nil
}

// ReversePageRank computes the exact reverse PageRank vector π: π(w) is the
// probability that a √c-walk from a uniformly chosen source terminates at w.
// Because walks can die at dangling nodes, the entries may sum to less than 1.
func ReversePageRank(g *graph.Graph, opts Options) ([]float64, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	if err := checkNoOverlay(g); err != nil {
		return nil, err
	}
	n := g.N()
	pi := make([]float64, n)
	if n == 0 {
		return pi, nil
	}
	mass := make([]float64, n)
	for v := range mass {
		mass[v] = 1 / float64(n)
	}
	iterateTermination(g, opts, mass, func(level int, term []float64) {
		for v, t := range term {
			pi[v] += t
		}
	})
	return pi, nil
}

// ReversePPR computes the exact reverse Personalized PageRank vector
// π(u, ·): π(u, w) is the probability that a √c-walk from u terminates at w.
func ReversePPR(g *graph.Graph, u int, opts Options) ([]float64, error) {
	if err := g.CheckNode(u); err != nil {
		return nil, err
	}
	if err := opts.fill(); err != nil {
		return nil, err
	}
	if err := checkNoOverlay(g); err != nil {
		return nil, err
	}
	ppr := make([]float64, g.N())
	mass := make([]float64, g.N())
	mass[u] = 1
	iterateTermination(g, opts, mass, func(level int, term []float64) {
		for v, t := range term {
			ppr[v] += t
		}
	})
	return ppr, nil
}

// LHopRPPR computes the exact ℓ-hop reverse Personalized PageRank values
// π_ℓ(u, w) for ℓ = 0..maxLevel. The result is indexed [level][node].
func LHopRPPR(g *graph.Graph, u int, maxLevel int, opts Options) ([][]float64, error) {
	if err := g.CheckNode(u); err != nil {
		return nil, err
	}
	if err := opts.fill(); err != nil {
		return nil, err
	}
	if maxLevel < 0 {
		return nil, fmt.Errorf("pagerank: negative maxLevel %d", maxLevel)
	}
	if err := checkNoOverlay(g); err != nil {
		return nil, err
	}
	opts.MaxLevels = maxLevel + 1
	opts.Tolerance = 0 // run all requested levels
	levels := make([][]float64, maxLevel+1)
	mass := make([]float64, g.N())
	mass[u] = 1
	iterateTermination(g, opts, mass, func(level int, term []float64) {
		if level <= maxLevel {
			levels[level] = append([]float64(nil), term...)
		}
	})
	for l := range levels {
		if levels[l] == nil {
			levels[l] = make([]float64, g.N())
		}
	}
	return levels, nil
}

// iterateTermination runs the √c-walk mass propagation starting from the given
// source mass. At every level it reports the termination mass per node
// ((1-√c) times the alive mass) via emit, then moves the surviving √c fraction
// of each node's mass to that node's in-neighbors (uniformly). It reads the
// in-adjacency CSR arrays directly, so callers reject graphs with a pending
// overlay first.
func iterateTermination(g *graph.Graph, opts Options, mass []float64, emit func(level int, term []float64)) {
	n := g.N()
	_, _, inOff, inAdj := g.CSR()
	alpha := 1 - math.Sqrt(opts.C)
	sqrtC := math.Sqrt(opts.C)
	term := make([]float64, n)
	next := make([]float64, n)
	for level := 0; level < opts.MaxLevels; level++ {
		total := 0.0
		for v := range term {
			term[v] = alpha * mass[v]
			total += mass[v]
		}
		emit(level, term)
		if total < opts.Tolerance {
			return
		}
		clear(next)
		for x, mx := range mass[:n] {
			lo, hi := inOff[x], inOff[x+1]
			if mx == 0 || lo == hi {
				continue // no mass, or the walk dies and its mass is lost
			}
			share := sqrtC * mx / float64(hi-lo)
			for _, y := range inAdj[lo:hi] {
				next[y] += share
			}
		}
		mass, next = next, mass
	}
}

// RankNodesByScore returns node ids sorted by descending score, breaking ties
// by ascending id so that the ordering is deterministic.
func RankNodesByScore(scores []float64) []int {
	order := make([]int, len(scores))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if scores[order[a]] != scores[order[b]] {
			return scores[order[a]] > scores[order[b]]
		}
		return order[a] < order[b]
	})
	return order
}

// SecondMoment returns Σ_w π(w)², the quantity that governs PRSim's
// worst-case query cost (Theorem 3.11).
func SecondMoment(pi []float64) float64 {
	var s float64
	for _, p := range pi {
		s += p * p
	}
	return s
}
