package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"prsim/internal/graph"
	"prsim/internal/montecarlo"
)

// Oracle accuracy: the pooled Monte Carlo ground truth of Section 5.1 at
// ε 0.02, δ 0.01, an order of magnitude tighter than any request's ε.
const (
	oracleEps   = 0.02
	oracleDelta = 0.01
	// precisionFloor fails a run whose mean Precision@10 over the checked
	// answers falls below it. True top scores here are 0.015–0.045, so an
	// all-zero or unrelated answer passes |error| ≤ ε; this floor is what
	// rejects it. One answer's Precision@10 against an oracle of ±0.02 swings
	// between 0.2 and 0.9, so the floor applies to the mean; the seed commit
	// measures a mean near 0.6 (see README.md), well above the floor.
	precisionFloor = 0.25
	precisionK     = 10
)

type scoredJSON struct {
	Node  int     `json:"node"`
	Score float64 `json:"score"`
}

// topkJSON is the body of GET /v1/graphs/default/topk.
type topkJSON struct {
	Source    int          `json:"source"`
	K         int          `json:"k"`
	Top       []scoredJSON `json:"top"`
	Cached    bool         `json:"cached"`
	Coalesced bool         `json:"coalesced"`
}

// batchJSON is the body of POST /v1/graphs/default/query.
type batchJSON struct {
	Results []*struct {
		Source int          `json:"source"`
		Scores []scoredJSON `json:"scores"`
	} `json:"results"`
}

// checkRanked checks one ranked answer for source u over n nodes: entries in
// descending score order with ties by ascending node id, scores in (0, 1],
// node ids in range, and the source absent.
func checkRanked(top []scoredJSON, u, n int) error {
	for i, e := range top {
		if e.Node < 0 || e.Node >= n {
			return fmt.Errorf("entry %d: node %d out of range [0,%d)", i, e.Node, n)
		}
		if !(e.Score > 0 && e.Score <= 1) {
			return fmt.Errorf("entry %d: score %v outside (0,1]", i, e.Score)
		}
		if e.Node == u {
			return fmt.Errorf("entry %d: source %d ranks itself", i, u)
		}
		if i > 0 {
			p := top[i-1]
			if p.Score < e.Score || (p.Score == e.Score && p.Node >= e.Node) {
				return fmt.Errorf("entries %d,%d out of order: (%d,%v) before (%d,%v)", i-1, i, p.Node, p.Score, e.Node, e.Score)
			}
		}
	}
	return nil
}

// checkTopK parses and checks a /topk answer for source u.
func checkTopK(body []byte, u, n int) (topkJSON, error) {
	var r topkJSON
	if err := json.Unmarshal(body, &r); err != nil {
		return r, fmt.Errorf("topk: %v", err)
	}
	if r.Source != u || r.K != topK || len(r.Top) > topK {
		return r, fmt.Errorf("topk: source %d k %d with %d entries, asked source %d k %d", r.Source, r.K, len(r.Top), u, topK)
	}
	if err := checkRanked(r.Top, u, n); err != nil {
		return r, fmt.Errorf("topk source %d: %v", u, err)
	}
	return r, nil
}

// checkBatch parses and checks a batch /query answer: one result per
// requested source, in order, each led by the source itself at score 1 and
// followed by a ranked answer of at most batchLimit-1 entries.
func checkBatch(body []byte, sources []int, n int) ([][]scoredJSON, error) {
	var r batchJSON
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("batch: %v", err)
	}
	if len(r.Results) != len(sources) {
		return nil, fmt.Errorf("batch: %d results for %d sources", len(r.Results), len(sources))
	}
	out := make([][]scoredJSON, len(sources))
	for i, res := range r.Results {
		u := sources[i]
		if res == nil || res.Source != u {
			return nil, fmt.Errorf("batch: result %d is not for source %d", i, u)
		}
		if len(res.Scores) == 0 || len(res.Scores) > batchLimit || res.Scores[0] != (scoredJSON{Node: u, Score: 1}) {
			return nil, fmt.Errorf("batch source %d: %d scores, want 1..%d led by the source at 1", u, len(res.Scores), batchLimit)
		}
		if err := checkRanked(res.Scores[1:], u, n); err != nil {
			return nil, fmt.Errorf("batch source %d: %v", u, err)
		}
		out[i] = res.Scores[1:]
	}
	return out, nil
}

// answer is one ranked answer whose accuracy is checked against the oracle.
type answer struct {
	kind string
	u    int
	eps  float64 // the error bound the request asked for
	top  []scoredJSON
}

// accuracy is the outcome of checking answers against the pooled oracle.
type accuracy struct {
	checked          int
	failures         []string // one per answer whose error exceeds its ε
	precisionFailure string   // set when the mean Precision@10 is under the floor
	maxAbsError      float64
	precision        float64   // mean Precision@10 over answers with a defined one
	precisions       []float64 // each answer's Precision@10, -1 where undefined
	precisionN       int
}

// checkAccuracy compares each answer with the Monte Carlo oracle over a
// pool: every node the answers for that source return, plus the source's
// co-citation candidates (nodes sharing an in-neighbour with it). An answer
// fails when a returned score is off by more than its ε, or when a pooled
// node it left out scores more than ε above its lowest returned score. The
// answers fail together when their mean Precision@10 is below
// precisionFloor.
func checkAccuracy(g *graph.Graph, seed uint64, answers []answer) (*accuracy, error) {
	mc, err := montecarlo.New(g, decay, seed)
	if err != nil {
		return nil, err
	}
	bySource := map[int][]answer{}
	var order []int
	for _, a := range answers {
		if _, ok := bySource[a.u]; !ok {
			order = append(order, a.u)
		}
		bySource[a.u] = append(bySource[a.u], a)
	}
	acc := &accuracy{}
	for _, u := range order {
		pool := coCitation(g, u)
		for _, a := range bySource[u] {
			for _, e := range a.top {
				pool[e.Node] = true
			}
		}
		targets := make([]int, 0, len(pool))
		for v := range pool {
			targets = append(targets, v)
		}
		sort.Ints(targets)
		truth, err := mc.GroundTruthPairs(u, targets, oracleEps, oracleDelta)
		if err != nil {
			return nil, err
		}
		for _, a := range bySource[u] {
			acc.checked++
			errMax, prec, ok := score(a, truth)
			acc.maxAbsError = math.Max(acc.maxAbsError, errMax)
			if ok {
				acc.precision += prec
				acc.precisionN++
			} else {
				prec = -1
			}
			acc.precisions = append(acc.precisions, prec)
			if errMax > a.eps {
				acc.failures = append(acc.failures, fmt.Sprintf("%s source %d: |error| %.4f > ε %.2f", a.kind, u, errMax, a.eps))
			}
		}
	}
	if acc.precisionN > 0 {
		acc.precision /= float64(acc.precisionN)
		if acc.precision < precisionFloor {
			acc.precisionFailure = fmt.Sprintf("mean Precision@%d %.2f over %d answers < floor %.2f", precisionK, acc.precision, acc.precisionN, precisionFloor)
		}
	}
	return acc, nil
}

// score returns an answer's largest error against truth and its
// Precision@10; ok is false when the pool holds no node of positive true
// score, so precision is undefined.
func score(a answer, truth map[int]float64) (errMax, prec float64, ok bool) {
	returned := map[int]bool{}
	lowest := 0.0
	for _, e := range a.top {
		returned[e.Node] = true
		errMax = math.Max(errMax, math.Abs(e.Score-truth[e.Node]))
		lowest = e.Score
	}
	if len(a.top) < topK {
		lowest = 0 // every node not returned was estimated at zero
	}
	type tv struct {
		v int
		s float64
	}
	var ranked []tv
	for v, s := range truth {
		if !returned[v] {
			errMax = math.Max(errMax, s-lowest)
		}
		if s > 0 {
			ranked = append(ranked, tv{v, s})
		}
	}
	if len(ranked) == 0 {
		return errMax, 0, false
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].s != ranked[j].s {
			return ranked[i].s > ranked[j].s
		}
		return ranked[i].v < ranked[j].v
	})
	if len(ranked) > precisionK {
		ranked = ranked[:precisionK]
	}
	hits := 0
	for i, e := range a.top {
		if i == precisionK {
			break
		}
		for _, t := range ranked {
			if t.v == e.Node {
				hits++
			}
		}
	}
	return errMax, float64(hits) / float64(len(ranked)), true
}

// coCitation returns the nodes other than u that share an in-neighbour with
// u.
func coCitation(g *graph.Graph, u int) map[int]bool {
	pool := map[int]bool{}
	for _, w := range g.InNeighbors(u) {
		for _, v := range g.OutNeighbors(int(w)) {
			if int(v) != u {
				pool[int(v)] = true
			}
		}
	}
	return pool
}
