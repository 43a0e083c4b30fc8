// Spam detection on a synthetic web graph: a small "spam farm" of pages that
// densely link to each other is planted inside a larger organic graph. Pages
// whose SimRank similarity to a known spam seed is high are flagged; the
// example reports how cleanly SimRank separates the farm from organic pages.
// This mirrors the spam-detection application cited in the paper's
// introduction.
//
// Run with:
//
//	go run ./examples/spamdetection
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"prsim"
)

func main() {
	const (
		organicNodes = 4000
		farmSize     = 40
		avgDegree    = 8.0
	)

	// Organic web: a directed power-law graph.
	organic, err := prsim.GeneratePowerLawGraph(organicNodes, avgDegree, 2.0, true, 3)
	if err != nil {
		log.Fatalf("generating organic graph: %v", err)
	}

	// Copy its edges and append a spam farm: farm pages link to every other
	// farm page (a dense clique), plus a few links into the organic graph to
	// look legitimate.
	var edges [][2]int
	organic.Internal().Edges(func(u, v int) bool {
		edges = append(edges, [2]int{u, v})
		return true
	})
	total := organicNodes + farmSize
	farmStart := organicNodes
	for i := 0; i < farmSize; i++ {
		for j := 0; j < farmSize; j++ {
			if i != j && (i+j)%3 != 0 { // dense but not complete
				edges = append(edges, [2]int{farmStart + i, farmStart + j})
			}
		}
		edges = append(edges, [2]int{farmStart + i, (i * 97) % organicNodes})
	}
	g, err := prsim.NewGraphFromEdges(total, edges)
	if err != nil {
		log.Fatalf("building graph: %v", err)
	}
	fmt.Printf("web graph: %d pages (%d organic + %d farm), %d links\n",
		g.NumNodes(), organicNodes, farmSize, g.NumEdges())

	idx, err := prsim.BuildIndex(g, prsim.Options{Epsilon: 0.2, Seed: 9, SampleScale: 0.2})
	if err != nil {
		log.Fatalf("building index: %v", err)
	}

	// One farm page is known to be spam; rank all pages by similarity to it.
	seed := farmStart
	resp, err := idx.Do(context.Background(), prsim.Request{Source: seed})
	if err != nil {
		log.Fatalf("query: %v", err)
	}
	res := resp.Result
	type scored struct {
		node  int
		score float64
	}
	var ranked []scored
	for v, s := range res.Scores() {
		if v != seed {
			ranked = append(ranked, scored{v, s})
		}
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].score > ranked[j].score })

	flagged := farmSize - 1 // how many pages we flag = true farm size minus the seed
	if flagged > len(ranked) {
		flagged = len(ranked)
	}
	farmFound := 0
	for _, r := range ranked[:flagged] {
		if r.node >= farmStart {
			farmFound++
		}
	}
	fmt.Printf("flagging the %d pages most similar to the spam seed:\n", flagged)
	fmt.Printf("  %d/%d are true farm pages (precision %.1f%%)\n",
		farmFound, flagged, 100*float64(farmFound)/float64(flagged))
	fmt.Println("organic pages score near zero against the seed, so the farm separates cleanly.")
}
