// Link prediction on a synthetic social network with community structure:
// hide a fraction of the within-community friendships, rank candidate
// partners by single-source SimRank, and measure how many hidden friendships
// appear among the top predictions. This mirrors the link-prediction
// application the paper's introduction motivates (Liben-Nowell & Kleinberg).
//
// Run with:
//
//	go run ./examples/linkprediction
package main

import (
	"context"
	"fmt"
	"log"

	"prsim"
)

const (
	numCommunities = 120
	communitySize  = 20
	withinDegree   = 6   // average within-community friends per person
	crossDegree    = 2   // average cross-community friends per person
	holdout        = 150 // number of friendships hidden from the index
	topK           = 10
)

func main() {
	nodes := numCommunities * communitySize
	edges, hidden := buildSocialNetwork(nodes)

	train, err := prsim.NewGraphFromEdges(nodes, edges)
	if err != nil {
		log.Fatalf("building training graph: %v", err)
	}
	fmt.Printf("training graph: %d people, %d friendship arcs (%d friendships held out)\n",
		train.NumNodes(), train.NumEdges(), len(hidden))

	idx, err := prsim.BuildIndex(train, prsim.Options{
		Epsilon: 0.25, Seed: 11, SampleScale: 0.1,
	})
	if err != nil {
		log.Fatalf("building index: %v", err)
	}

	// For every person with a hidden friendship, check whether the hidden
	// friend shows up among the SimRank top-k suggestions.
	hits := 0
	for _, e := range hidden {
		resp, err := idx.Do(context.Background(), prsim.Request{Source: e[0], K: topK})
		if err != nil {
			log.Fatalf("query: %v", err)
		}
		for _, cand := range resp.Top {
			if cand.Node == e[1] {
				hits++
				break
			}
		}
	}
	recall := 100 * float64(hits) / float64(len(hidden))
	fmt.Printf("hidden-friendship recall@%d: %d/%d = %.1f%%\n", topK, hits, len(hidden), recall)
	fmt.Printf("(guessing %d of %d strangers at random would recover about %.2f%%)\n",
		topK, nodes, 100*float64(topK)/float64(nodes))
}

// buildSocialNetwork creates a planted-partition friendship graph: dense
// within communities, sparse across them. It returns the directed training
// arcs (both directions of every kept friendship) and the held-out pairs.
func buildSocialNetwork(nodes int) (edges [][2]int, hidden [][2]int) {
	state := uint64(20240616)
	next := func(n int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(n))
	}
	addFriendship := func(a, b int) {
		edges = append(edges, [2]int{a, b}, [2]int{b, a})
	}
	for c := 0; c < numCommunities; c++ {
		base := c * communitySize
		for i := 0; i < communitySize; i++ {
			u := base + i
			// Within-community friendships.
			for d := 0; d < withinDegree/2; d++ {
				v := base + next(communitySize)
				if v == u {
					continue
				}
				if len(hidden) < holdout && next(10) == 0 {
					hidden = append(hidden, [2]int{u, v})
					continue
				}
				addFriendship(u, v)
			}
			// A couple of cross-community acquaintances.
			for d := 0; d < crossDegree/2; d++ {
				v := next(nodes)
				if v != u {
					addFriendship(u, v)
				}
			}
		}
	}
	return edges, hidden
}
