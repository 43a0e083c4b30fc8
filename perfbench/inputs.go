package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"prsim/internal/core"
	"prsim/internal/gen"
	"prsim/internal/graph"
)

// Fixed inputs shared by every workload: the graph shape and the index
// configuration of `prsimbench -experiment adaptive -full`, so the README's
// tables and this benchmark stay comparable.
const (
	avgDegree   = 10
	gamma       = 2.5
	decay       = 0.6
	buildEps    = 0.2
	delta       = 1e-4
	sampleScale = 0.25

	topK        = 20  // k of every /topk request
	zipfS       = 1.3 // skew of interactive sources
	warmKeys    = 512 // hottest /topk requests sent once before the window
	warmUniform = 128 // /topk requests that settle a server before a uniform window
	batchSize   = 8   // sources per batch request
	batchLimit  = 50  // scores returned per batch source
	batchEps    = 2 * buildEps
)

// reqKind is the shape of one read request.
type reqKind uint8

const (
	kindAdaptive   reqKind = iota // /topk, adaptive at the build epsilon
	kindAdaptive2x                // /topk, adaptive at twice the build epsilon
	kindFixed2x                   // /topk, fixed budget at twice the build epsilon
	kindBatch                     // /query, fused fixed-budget batch, no cache
)

var kindNames = [...]string{"topk_adaptive", "topk_adaptive_2eps", "topk_fixed_2eps", "batch"}

func (k reqKind) String() string { return kindNames[k] }

// epsilon is the per-request error bound a request of this kind asks for.
func (k reqKind) epsilon() float64 {
	if k == kindAdaptive {
		return buildEps
	}
	return batchEps
}

func (k reqKind) adaptive() bool { return k == kindAdaptive || k == kindAdaptive2x }

// read is one read request of a workload's seeded sequence.
type read struct {
	kind    reqKind
	sources []int // one source for /topk, batchSize distinct sources for a batch
}

// inputs is everything a run sends, generated from the seed before any
// server starts.
type inputs struct {
	g     *graph.Graph
	warm  []read // sent before the measured window, unmeasured
	reads []read
	edges [][2]int // the writer's single-edge inserts, in order
	hash  string   // sha256 over the graph and the request sequence
}

// indexOptions is the index configuration every workload builds.
func indexOptions(seed uint64) core.Options {
	return core.Options{C: decay, Epsilon: buildEps, Delta: delta, NumHubs: -1, SampleScale: sampleScale, Seed: seed}
}

// makeInputs generates the graph and the request sequences of w. Each
// trial of a run takes an equal slice of every sequence; a slice holds
// several times what the fastest closed loop seen sends in its share of the
// window, and a run that exhausts one ends early and says so.
func makeInputs(w workload, sc scale, seed uint64, seconds float64) (*inputs, error) {
	g, err := gen.PowerLaw(gen.PowerLawOptions{N: sc.nodes, AvgDegree: avgDegree, Gamma: gamma, Directed: true, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("generate graph: %w", err)
	}
	in := &inputs{g: g}
	rng := rand.New(rand.NewPCG(seed, 0x70726273696d))
	n := g.N()
	budget := math.Max(seconds, 1)
	switch {
	case w.batch:
		in.reads = make([]read, int(budget*200))
		for i := range in.reads {
			in.reads[i] = read{kind: kindBatch, sources: distinctUniform(rng, n, batchSize)}
		}
		// Batches bypass the cache: the warm-up, two seconds of batches,
		// only settles the server.
		in.warm = in.reads[:16]
	case w.skew > 0:
		in.reads = topkReads(rng, n, int(budget*10000), w.skew)
		in.warm = hottest(in.reads, warmKeys)
	default:
		in.reads = topkReads(rng, n, int(budget*10000), 0)
		// Uniform sources rarely repeat, so there is no hot set to cache:
		// the warm-up, drawn apart from the sequence, only settles the
		// server.
		in.warm = topkReads(rng, n, warmUniform, 0)
	}
	if w.writer {
		in.edges = insertSequence(rng, g, int(budget*40))
	}
	in.hash = hashInputs(in)
	return in, nil
}

// topkReads draws count /topk requests: sources Zipf(skew) over a seeded
// permutation of the node ids (uniform when skew is 0), kinds ½ adaptive at
// ε, ¼ adaptive at 2ε, ¼ fixed at 2ε.
func topkReads(rng *rand.Rand, n, count int, skew float64) []read {
	perm := rng.Perm(n)
	cdf := make([]float64, n)
	sum := 0.0
	for r := range cdf {
		sum += math.Pow(float64(r+1), -skew)
		cdf[r] = sum
	}
	reads := make([]read, count)
	for i := range reads {
		r := sort.SearchFloat64s(cdf, rng.Float64()*sum)
		if r >= n {
			r = n - 1
		}
		kind := kindAdaptive
		switch rng.IntN(4) {
		case 2:
			kind = kindAdaptive2x
		case 3:
			kind = kindFixed2x
		}
		reads[i] = read{kind: kind, sources: []int{perm[r]}}
	}
	return reads
}

// hottest returns the k most frequent requests of reads, each once, hottest
// last. Sent before the window, they put the engine caches close to their
// steady state (an LRU of 2×1024 entries reaches a hit ratio of ~0.88 under
// this mix), which a cold start only nears after ~10,000 requests; without
// them a faster run climbs further up that ramp and its throughput gain is
// amplified.
func hottest(reads []read, k int) []read {
	type key struct {
		kind reqKind
		u    int
	}
	freq := map[key]int{}
	for _, r := range reads {
		freq[key{r.kind, r.sources[0]}]++
	}
	keys := make([]key, 0, len(freq))
	for k := range freq {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if freq[a] != freq[b] {
			return freq[a] < freq[b]
		}
		return a.u < b.u || (a.u == b.u && a.kind < b.kind)
	})
	keys = keys[max(0, len(keys)-k):]
	out := make([]read, len(keys))
	for i, k := range keys {
		out[i] = read{kind: k.kind, sources: []int{k.u}}
	}
	return out
}

// distinctUniform draws k distinct node ids uniformly.
func distinctUniform(rng *rand.Rand, n, k int) []int {
	out := make([]int, 0, k)
	for len(out) < k {
		v := rng.IntN(n)
		dup := false
		for _, u := range out {
			dup = dup || u == v
		}
		if !dup {
			out = append(out, v)
		}
	}
	return out
}

// insertSequence draws count new edges: the tail is uniform, the head is the
// head of a uniformly drawn existing edge, so heads are drawn in proportion
// to in-degree (preferential attachment, how power-law graphs grow). Self
// loops, edges already in g and repeats are redrawn.
func insertSequence(rng *rand.Rand, g *graph.Graph, count int) [][2]int {
	_, outAdj, _, _ := g.CSR()
	seen := make(map[[2]int]bool, count)
	edges := make([][2]int, 0, count)
	for len(edges) < count {
		e := [2]int{rng.IntN(g.N()), int(outAdj[rng.IntN(len(outAdj))])}
		if e[0] == e[1] || seen[e] || g.HasEdge(e[0], e[1]) {
			continue
		}
		seen[e] = true
		edges = append(edges, e)
	}
	return edges
}

// hashInputs digests the graph's adjacency and every request, so two runs
// (of the parent and of a change) can show they replayed the same inputs.
func hashInputs(in *inputs) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	outOff, outAdj, _, _ := in.g.CSR()
	put(in.g.N())
	for _, o := range outOff {
		put(o)
	}
	for _, v := range outAdj {
		put(int(v))
	}
	for _, seq := range [][]read{in.warm, in.reads} {
		for _, r := range seq {
			put(int(r.kind))
			for _, u := range r.sources {
				put(u)
			}
		}
	}
	for _, e := range in.edges {
		put(e[0])
		put(e[1])
	}
	return hex.EncodeToString(h.Sum(nil))
}
