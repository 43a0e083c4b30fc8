// Quickstart: build a PRSim index over a small citation-style graph and run a
// single-source SimRank query.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"prsim"
)

func main() {
	// A small "paper citation" graph: an edge a -> b means a cites b. Two
	// papers are SimRank-similar when they are cited by similar papers.
	edges := [][2]string{
		{"survey", "foundations"},
		{"survey", "randomwalks"},
		{"simrank", "foundations"},
		{"simrank", "randomwalks"},
		{"pagerank", "randomwalks"},
		{"personalized-pr", "pagerank"},
		{"personalized-pr", "randomwalks"},
		{"sling", "simrank"},
		{"sling", "personalized-pr"},
		{"probesim", "simrank"},
		{"probesim", "sling"},
		{"prsim", "sling"},
		{"prsim", "probesim"},
		{"prsim", "personalized-pr"},
	}
	g, err := prsim.NewGraphFromLabelledEdges(edges)
	if err != nil {
		log.Fatalf("building graph: %v", err)
	}
	fmt.Printf("graph: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())

	// Build the PRSim index with a 0.05 additive error target.
	idx, err := prsim.BuildIndex(g, prsim.Options{Epsilon: 0.05, Seed: 42})
	if err != nil {
		log.Fatalf("building index: %v", err)
	}
	stats := idx.Stats()
	fmt.Printf("index: %d hubs, %d entries, built in %.3fs, hardness sum pi^2 = %.4f\n",
		stats.NumHubs, stats.Entries, stats.BuildTime, stats.SecondMoment)

	// Which papers are most similar to "simrank"?
	source := -1
	for v := 0; v < g.NumNodes(); v++ {
		if g.Label(v) == "simrank" {
			source = v
		}
	}
	resp, err := idx.Do(context.Background(), prsim.Request{Source: source, K: 5})
	if err != nil {
		log.Fatalf("query: %v", err)
	}
	fmt.Printf("\npapers most similar to %q:\n", g.Label(source))
	for rank, s := range resp.Top {
		fmt.Printf("%d. %-16s s = %.4f\n", rank+1, s.Label, s.Score)
	}
	q := resp.Result.Stats()
	fmt.Printf("\nquery cost: %d walks, %d backward-walk increments, %d index reads, %.4fs\n",
		q.Walks, q.BackwardWalkCost, q.IndexEntriesRead, q.Seconds)
}
