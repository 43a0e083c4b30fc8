// Package sling implements SLING [Tian & Xiao, SIGMOD 2016], the
// index-based single-source SimRank baseline the paper compares against.
//
// SLING precomputes, for every node, the hitting probabilities h_ℓ(u, w) with
// additive error ε_a (via backward search from every target) together with the
// last-meeting probability η(w) of every node (via sampled pairs of √c-walks),
// and answers queries with
//
//	s(u, v) = Σ_ℓ Σ_w h_ℓ(u, w) · h_ℓ(v, w) · η(w).
//
// Its index is Θ(n/ε) and its preprocessing samples walks from every node,
// which is exactly the scalability weakness PRSim removes (Section 2).
package sling

import (
	"fmt"
	"math"
	"time"

	"prsim/internal/graph"
	"prsim/internal/pagerank"
	"prsim/internal/walk"
)

// Options configures SLING index construction.
type Options struct {
	// C is the SimRank decay factor.
	C float64
	// EpsilonA is the absolute error parameter ε_a of the paper's experiments
	// (default 0.05): hitting probabilities below it are not stored.
	EpsilonA float64
	// Delta is the failure probability used to size the η(w) sampling.
	Delta float64
	// MaxLevels caps the number of stored levels.
	MaxLevels int
	// Seed makes η(w) estimation deterministic.
	Seed uint64
	// MaxEtaSamples caps the per-node sample count for η(w); 0 means the
	// theoretical Θ(log(n/δ)/ε²) count capped at 100000. The cap keeps
	// preprocessing tractable at laptop scale and is documented in DESIGN.md.
	MaxEtaSamples int
}

func (o Options) fill(n int) (Options, error) {
	if o.C == 0 {
		o.C = 0.6
	}
	if o.C <= 0 || o.C >= 1 {
		return o, fmt.Errorf("sling: decay factor c=%v outside (0,1)", o.C)
	}
	if o.EpsilonA == 0 {
		o.EpsilonA = 0.05
	}
	if o.EpsilonA <= 0 || o.EpsilonA >= 1 {
		return o, fmt.Errorf("sling: epsilonA=%v outside (0,1)", o.EpsilonA)
	}
	if o.Delta == 0 {
		o.Delta = 1e-4
	}
	if o.Delta <= 0 || o.Delta >= 1 {
		return o, fmt.Errorf("sling: delta=%v outside (0,1)", o.Delta)
	}
	if o.MaxLevels <= 0 {
		o.MaxLevels = 64
	}
	if o.MaxEtaSamples == 0 {
		want := 3 * math.Log(float64(maxInt(n, 2))/o.Delta) / (o.EpsilonA * o.EpsilonA)
		o.MaxEtaSamples = int(math.Ceil(math.Min(want, 100000)))
	}
	if o.MaxEtaSamples < 1 {
		o.MaxEtaSamples = 1
	}
	return o, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// sourceEntry is one (target w, level ℓ, hitting probability h) triple stored
// for a source node.
type sourceEntry struct {
	Target int32
	Level  int32
	H      float64
}

// targetKey identifies the inverted list for a (target, level) pair.
type targetKey struct {
	Target int32
	Level  int32
}

// nodeValue is one (source v, hitting probability h) pair in an inverted list.
type nodeValue struct {
	Node int32
	H    float64
}

// Index is a SLING index.
type Index struct {
	g    *graph.Graph
	opts Options

	eta      []float64
	bySource [][]sourceEntry
	byTarget map[targetKey][]nodeValue

	stats Stats
}

// Stats reports SLING preprocessing cost and index size.
type Stats struct {
	Entries   int
	EtaWalks  int
	Pushes    int
	TotalTime time.Duration
}

// SizeBytes estimates the in-memory index size.
func (s Stats) SizeBytes() int64 { return int64(s.Entries) * 2 * 16 }

// BuildIndex constructs the SLING index: η(w) for every node by Monte Carlo
// walk pairs and the hitting-probability lists by a backward search from every
// node.
func BuildIndex(g *graph.Graph, opts Options) (*Index, error) {
	if g == nil {
		return nil, fmt.Errorf("sling: nil graph")
	}
	opts, err := opts.fill(g.N())
	if err != nil {
		return nil, err
	}
	start := time.Now()
	idx := &Index{
		g:        g,
		opts:     opts,
		eta:      make([]float64, g.N()),
		bySource: make([][]sourceEntry, g.N()),
		byTarget: make(map[targetKey][]nodeValue),
	}

	// Last-meeting probabilities η(w): the fraction of sampled pairs of
	// √c-walks from w that never meet again.
	walker, err := walk.NewWalker(g, opts.C, opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("sling: %w", err)
	}
	for w := 0; w < g.N(); w++ {
		noMeet := 0
		for i := 0; i < opts.MaxEtaSamples; i++ {
			if !walker.PairMeetsFrom(w) {
				noMeet++
			}
		}
		idx.eta[w] = float64(noMeet) / float64(opts.MaxEtaSamples)
		idx.stats.EtaWalks += 2 * opts.MaxEtaSamples
	}

	// Hitting probabilities: backward search from every target node. A
	// reserve ψ_ℓ(v, w) approximates π_ℓ(v, w) = (1-√c)·h_ℓ(v, w), so the
	// store threshold for h > ε_a is ψ > ε_a(1-√c).
	alpha := 1 - math.Sqrt(opts.C)
	rmax := opts.EpsilonA * alpha
	var scratch pagerank.BackwardScratch
	for w := 0; w < g.N(); w++ {
		res, err := scratch.Search(g, w, opts.C, rmax, opts.MaxLevels)
		if err != nil {
			return nil, fmt.Errorf("sling: backward search from %d: %w", w, err)
		}
		idx.stats.Pushes += res.Pushes
		for level, lvl := range res.Reserves {
			for _, e := range lvl {
				h := e.Value / alpha
				if h <= opts.EpsilonA {
					continue
				}
				idx.bySource[e.Node] = append(idx.bySource[e.Node], sourceEntry{Target: int32(w), Level: int32(level), H: h})
				key := targetKey{Target: int32(w), Level: int32(level)}
				idx.byTarget[key] = append(idx.byTarget[key], nodeValue{Node: e.Node, H: h})
				idx.stats.Entries++
			}
		}
	}
	idx.stats.TotalTime = time.Since(start)
	return idx, nil
}

// Graph returns the indexed graph.
func (idx *Index) Graph() *graph.Graph { return idx.g }

// Stats returns preprocessing statistics.
func (idx *Index) Stats() Stats { return idx.stats }

// Eta returns the estimated last-meeting probability η(w).
func (idx *Index) Eta(w int) float64 { return idx.eta[w] }

// SingleSource answers a single-source SimRank query from u using Equation
// (5) of the paper.
func (idx *Index) SingleSource(u int) (map[int]float64, error) {
	if err := idx.g.CheckNode(u); err != nil {
		return nil, err
	}
	scores := make(map[int]float64)
	for _, e := range idx.bySource[u] {
		key := targetKey{Target: e.Target, Level: e.Level}
		eta := idx.eta[e.Target]
		if eta == 0 {
			continue
		}
		for _, nv := range idx.byTarget[key] {
			v := int(nv.Node)
			if v == u {
				continue
			}
			scores[v] += e.H * nv.H * eta
		}
	}
	scores[u] = 1
	return scores, nil
}
