package prsim

import (
	"math"
	"testing"

	"prsim/internal/powermethod"
)

// TestIntegrationAlgorithmsAgree builds a moderately sized power-law graph,
// computes exact SimRank with the power method, and checks that PRSim and
// ProbeSim stay within their error budgets end to end through the public API.
func TestIntegrationAlgorithmsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping integration test in -short mode")
	}
	g, err := GeneratePowerLawGraph(800, 6, 2.2, true, 77)
	if err != nil {
		t.Fatalf("GeneratePowerLawGraph: %v", err)
	}
	exact, err := powermethod.Compute(g.Internal(), powermethod.Options{C: DefaultDecay, Iterations: 25})
	if err != nil {
		t.Fatalf("powermethod: %v", err)
	}

	const source = 42
	prsimIdx, err := BuildIndex(g, Options{Epsilon: 0.1, Seed: 5, SampleScale: 0.5})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	res, err := query(prsimIdx, source)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	maxErr := 0.0
	for v := 0; v < g.NumNodes(); v++ {
		if v == source {
			continue
		}
		if diff := math.Abs(res.Score(v) - exact.At(source, v)); diff > maxErr {
			maxErr = diff
		}
	}
	if maxErr > 0.1 {
		t.Errorf("PRSim deviates from exact SimRank by %v, budget 0.1", maxErr)
	}

	probe, err := NewAlgorithm("ProbeSim", g, BaselineConfig{Epsilon: 0.1, Seed: 5, SampleScale: 0.5})
	if err != nil {
		t.Fatalf("ProbeSim: %v", err)
	}
	probeScores, err := probe.SingleSource(source)
	if err != nil {
		t.Fatalf("ProbeSim query: %v", err)
	}
	for v := 0; v < g.NumNodes(); v++ {
		if v == source {
			continue
		}
		if math.Abs(probeScores[v]-exact.At(source, v)) > 0.12 {
			t.Errorf("ProbeSim deviates at node %d: %v vs %v", v, probeScores[v], exact.At(source, v))
		}
	}
}

// TestIntegrationSimRankSymmetry checks the SimRank symmetry property
// s(u, v) = s(v, u) through two independent PRSim single-source queries.
func TestIntegrationSimRankSymmetry(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping symmetry test in -short mode")
	}
	g, err := GeneratePowerLawGraph(400, 6, 2.0, false, 9)
	if err != nil {
		t.Fatalf("GeneratePowerLawGraph: %v", err)
	}
	idx, err := BuildIndex(g, Options{Epsilon: 0.1, Seed: 2})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	pairs := [][2]int{{3, 17}, {50, 120}, {200, 399}}
	for _, p := range pairs {
		a, err := query(idx, p[0])
		if err != nil {
			t.Fatalf("Query(%d): %v", p[0], err)
		}
		b, err := query(idx, p[1])
		if err != nil {
			t.Fatalf("Query(%d): %v", p[1], err)
		}
		if diff := math.Abs(a.Score(p[1]) - b.Score(p[0])); diff > 0.2 {
			t.Errorf("symmetry violated for (%d,%d): %v vs %v", p[0], p[1], a.Score(p[1]), b.Score(p[0]))
		}
	}
}

// TestIntegrationIndexPersistence round-trips an index through serialization
// on a non-trivial graph and checks that a loaded index answers queries
// identically to the original for the same seed.
func TestIntegrationIndexPersistence(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping persistence test in -short mode")
	}
	g, err := GeneratePowerLawGraph(800, 8, 2.3, true, 13)
	if err != nil {
		t.Fatalf("GeneratePowerLawGraph: %v", err)
	}
	idx, err := BuildIndex(g, Options{Epsilon: 0.2, Seed: 21, SampleScale: 0.2})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	path := t.TempDir() + "/index.prsim"
	if err := idx.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	loaded, err := LoadIndexFile(path, g)
	if err != nil {
		t.Fatalf("LoadIndexFile: %v", err)
	}
	orig, err := query(idx, 10)
	if err != nil {
		t.Fatalf("Query original: %v", err)
	}
	restored, err := query(loaded, 10)
	if err != nil {
		t.Fatalf("Query loaded: %v", err)
	}
	if len(orig.Scores()) != len(restored.Scores()) {
		t.Fatalf("support size changed after reload: %d vs %d", len(orig.Scores()), len(restored.Scores()))
	}
	for v, s := range orig.Scores() {
		if restored.Score(v) != s {
			t.Errorf("score for node %d changed after reload: %v vs %v", v, s, restored.Score(v))
		}
	}
}
