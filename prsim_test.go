package prsim

import (
	"bytes"
	"context"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

// paperGraph is the small fixture used across the public API tests.
func paperGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := NewGraphFromEdges(6, [][2]int{
		{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 0}, {3, 4}, {4, 2}, {1, 5}, {5, 2},
	})
	if err != nil {
		t.Fatalf("NewGraphFromEdges: %v", err)
	}
	return g
}

func TestGraphConstruction(t *testing.T) {
	g := paperGraph(t)
	if g.NumNodes() != 6 || g.NumEdges() != 9 {
		t.Fatalf("graph size = %d/%d, want 6/9", g.NumNodes(), g.NumEdges())
	}
	if g.AverageDegree() != 1.5 {
		t.Errorf("AverageDegree = %v, want 1.5", g.AverageDegree())
	}
	if g.OutDegree(0) != 2 || g.InDegree(2) != 4 {
		t.Errorf("degrees wrong: out(0)=%d in(2)=%d", g.OutDegree(0), g.InDegree(2))
	}
	if g.Label(3) != "3" {
		t.Errorf("Label(3) = %q, want \"3\"", g.Label(3))
	}
}

func TestParseGraphAndLabels(t *testing.T) {
	g, err := ParseGraph(strings.NewReader("alice bob\nbob carol\ncarol alice\n"))
	if err != nil {
		t.Fatalf("ParseGraph: %v", err)
	}
	if g.NumNodes() != 3 {
		t.Errorf("NumNodes = %d, want 3", g.NumNodes())
	}
	lg, err := NewGraphFromLabelledEdges([][2]string{{"a", "b"}, {"b", "c"}})
	if err != nil {
		t.Fatalf("NewGraphFromLabelledEdges: %v", err)
	}
	if lg.Label(0) != "a" || lg.Label(2) != "c" {
		t.Errorf("labels wrong: %q %q", lg.Label(0), lg.Label(2))
	}
}

func TestLoadGraphFileRoundTrip(t *testing.T) {
	g := paperGraph(t)
	path := filepath.Join(t.TempDir(), "g.txt")
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatalf("WriteEdgeList: %v", err)
	}
	if err := writeFile(path, buf.Bytes()); err != nil {
		t.Fatalf("writeFile: %v", err)
	}
	loaded, err := LoadGraphFile(path)
	if err != nil {
		t.Fatalf("LoadGraphFile: %v", err)
	}
	if loaded.NumNodes() != g.NumNodes() || loaded.NumEdges() != g.NumEdges() {
		t.Errorf("round trip changed size")
	}
	if _, err := LoadGraphFile(filepath.Join(t.TempDir(), "missing.txt")); err == nil {
		t.Errorf("missing file should be an error")
	}
}

func TestBuildIndexAndQuery(t *testing.T) {
	g := paperGraph(t)
	idx, err := BuildIndex(g, Options{Epsilon: 0.15, Seed: 7})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	if idx.NumHubs() <= 0 {
		t.Errorf("NumHubs = %d, want > 0", idx.NumHubs())
	}
	if idx.SizeBytes() <= 0 {
		t.Errorf("SizeBytes = %d, want > 0", idx.SizeBytes())
	}
	if sm := idx.SecondMoment(); sm <= 0 || sm > 1 {
		t.Errorf("SecondMoment = %v, want in (0,1]", sm)
	}
	st := idx.Stats()
	if st.BuildTime <= 0 || st.NumHubs != idx.NumHubs() {
		t.Errorf("Stats inconsistent: %+v", st)
	}
	res, err := query(idx, 0)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.Source() != 0 {
		t.Errorf("Source = %d, want 0", res.Source())
	}
	if res.Score(0) != 1 {
		t.Errorf("s(u,u) = %v, want 1", res.Score(0))
	}
	slice := res.AsSlice()
	if len(slice) != g.NumNodes() {
		t.Errorf("AsSlice length = %d", len(slice))
	}
	top := res.TopK(3)
	for i := 1; i < len(top); i++ {
		if top[i].Score > top[i-1].Score {
			t.Errorf("TopK not sorted: %+v", top)
		}
	}
	qs := res.Stats()
	if qs.Walks <= 0 || qs.Seconds <= 0 {
		t.Errorf("query stats not populated: %+v", qs)
	}
	if _, err := query(idx, -1); err == nil {
		t.Errorf("invalid query node should be an error")
	}
}

func TestQueryPairPublicAPI(t *testing.T) {
	g := paperGraph(t)
	idx, err := BuildIndex(g, Options{Epsilon: 0.1, Seed: 2})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	s, err := idx.QueryPairCtx(context.Background(), 1, 1)
	if err != nil || s != 1 {
		t.Errorf("QueryPairCtx(v,v) = %v, %v", s, err)
	}
	pair, err := idx.QueryPairCtx(context.Background(), 0, 1)
	if err != nil {
		t.Fatalf("QueryPairCtx: %v", err)
	}
	res, err := query(idx, 0)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if math.Abs(pair-res.Score(1)) > 0.2 {
		t.Errorf("pair query %v and single-source score %v disagree badly", pair, res.Score(1))
	}
	if _, err := idx.QueryPairCtx(context.Background(), 0, 100); err == nil {
		t.Errorf("invalid node should be an error")
	}
}

func TestIndexFreeOption(t *testing.T) {
	g := paperGraph(t)
	idx, err := BuildIndex(g, Options{Epsilon: 0.3, IndexFree: true})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	if idx.NumHubs() != 0 {
		t.Errorf("IndexFree index has %d hubs", idx.NumHubs())
	}
	if _, err := query(idx, 1); err != nil {
		t.Errorf("index-free query failed: %v", err)
	}
}

func TestIndexSaveLoad(t *testing.T) {
	g := paperGraph(t)
	idx, err := BuildIndex(g, Options{Epsilon: 0.2, Seed: 3})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := LoadIndex(&buf, g)
	if err != nil {
		t.Fatalf("LoadIndex: %v", err)
	}
	if loaded.NumHubs() != idx.NumHubs() {
		t.Errorf("hub count changed on round trip")
	}
	path := filepath.Join(t.TempDir(), "idx.prsim")
	if err := idx.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	if _, err := LoadIndexFile(path, g); err != nil {
		t.Fatalf("LoadIndexFile: %v", err)
	}
	if _, err := LoadIndex(&bytes.Buffer{}, nil); err == nil {
		t.Errorf("nil graph should be an error")
	}
}

func TestBuildIndexValidation(t *testing.T) {
	if _, err := BuildIndex(nil, Options{}); err == nil {
		t.Errorf("nil graph should be an error")
	}
	g := paperGraph(t)
	if _, err := BuildIndex(g, Options{Epsilon: 3}); err == nil {
		t.Errorf("invalid epsilon should be an error")
	}
	if _, err := BuildIndex(g, Options{Decay: 1.5}); err == nil {
		t.Errorf("invalid decay should be an error")
	}
}

func TestGenerators(t *testing.T) {
	pl, err := GeneratePowerLawGraph(1000, 8, 2.2, false, 5)
	if err != nil {
		t.Fatalf("GeneratePowerLawGraph: %v", err)
	}
	if pl.NumNodes() != 1000 {
		t.Errorf("power-law graph has %d nodes", pl.NumNodes())
	}
	if _, err := GeneratePowerLawGraph(0, 8, 2, false, 5); err == nil {
		t.Errorf("invalid generator parameters should be an error")
	}
	er, err := GenerateERGraph(500, 6, true, 5)
	if err != nil {
		t.Fatalf("GenerateERGraph: %v", err)
	}
	if er.NumNodes() != 500 {
		t.Errorf("ER graph has %d nodes", er.NumNodes())
	}
	if _, err := GenerateERGraph(10, 0, true, 5); err == nil {
		t.Errorf("invalid ER parameters should be an error")
	}
}

func TestDatasets(t *testing.T) {
	names := DatasetNames()
	if len(names) != 5 {
		t.Fatalf("DatasetNames returned %d names", len(names))
	}
	g, err := LoadDataset("DB")
	if err != nil {
		t.Fatalf("LoadDataset(DB): %v", err)
	}
	if g.NumNodes() <= 0 {
		t.Errorf("empty dataset graph")
	}
	if _, err := LoadDataset("nope"); err == nil {
		t.Errorf("unknown dataset should be an error")
	}
}

func TestNewAlgorithm(t *testing.T) {
	g := paperGraph(t)
	cfg := BaselineConfig{Epsilon: 0.25, Seed: 2, SampleScale: 0.2}
	for _, name := range AlgorithmNames() {
		a, err := NewAlgorithm(name, g, cfg)
		if err != nil {
			t.Fatalf("NewAlgorithm(%q): %v", name, err)
		}
		scores, err := a.SingleSource(0)
		if err != nil {
			t.Fatalf("%s SingleSource: %v", name, err)
		}
		if scores[0] != 1 {
			t.Errorf("%s: s(u,u) = %v, want 1", name, scores[0])
		}
		for v, s := range scores {
			if s < -1e-9 || s > 1+1e-9 {
				t.Errorf("%s: score s(0,%d) = %v outside [0,1]", name, v, s)
			}
		}
	}
	if _, err := NewAlgorithm("bogus", g, cfg); err == nil {
		t.Errorf("unknown algorithm should be an error")
	}
	if _, err := NewAlgorithm("PRSim", nil, cfg); err == nil {
		t.Errorf("nil graph should be an error")
	}
}

func TestPRSimMatchesBaselineEstimates(t *testing.T) {
	// PRSim and the exact-leaning baselines (SLING with tight epsilon) must
	// agree within the additive error budget on the fixture graph.
	g := paperGraph(t)
	pr, err := NewAlgorithm("PRSim", g, BaselineConfig{Epsilon: 0.1, Seed: 4})
	if err != nil {
		t.Fatalf("PRSim: %v", err)
	}
	sl, err := NewAlgorithm("SLING", g, BaselineConfig{Epsilon: 0.02, Seed: 4})
	if err != nil {
		t.Fatalf("SLING: %v", err)
	}
	prScores, _ := pr.SingleSource(3)
	slScores, _ := sl.SingleSource(3)
	for v := 0; v < g.NumNodes(); v++ {
		if math.Abs(prScores[v]-slScores[v]) > 0.15 {
			t.Errorf("node %d: PRSim %v vs SLING %v", v, prScores[v], slScores[v])
		}
	}
}
