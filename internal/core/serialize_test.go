package core

import (
	"bytes"
	"path/filepath"
	"testing"

	"prsim/internal/graph"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	g := fixtureGraph()
	idx, err := BuildIndex(g, Options{Epsilon: 0.05, NumHubs: 3, Seed: 2})
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
		t.Errorf("hub count mismatch: %d vs %d", loaded.NumHubs(), idx.NumHubs())
	}
	if loaded.SizeEntries() != idx.SizeEntries() {
		t.Errorf("entry count mismatch: %d vs %d", loaded.SizeEntries(), idx.SizeEntries())
	}
	for _, w := range idx.Hubs() {
		if !loaded.IsHub(w) {
			t.Errorf("hub %d lost on round trip", w)
		}
		for level := 0; level < 10; level++ {
			a := idx.HubEntries(w, level)
			b := loaded.HubEntries(w, level)
			if len(a) != len(b) {
				t.Errorf("hub %d level %d: %d vs %d entries", w, level, len(a), len(b))
				continue
			}
			for i := range a {
				if a[i] != b[i] {
					t.Errorf("hub %d level %d entry %d mismatch: %+v vs %+v", w, level, i, a[i], b[i])
				}
			}
		}
	}
	for v := 0; v < g.N(); v++ {
		if loaded.ReversePageRank(v) != idx.ReversePageRank(v) {
			t.Errorf("reverse PageRank of %d changed on round trip", v)
		}
	}
	// Loaded index must answer queries.
	res, err := query(loaded, 0)
	if err != nil {
		t.Fatalf("Query on loaded index: %v", err)
	}
	if res.Score(0) != 1 {
		t.Errorf("loaded index: s(u,u) = %v", res.Score(0))
	}
}

func TestSaveLoadFile(t *testing.T) {
	g := fixtureGraph()
	idx, err := BuildIndex(g, Options{Epsilon: 0.1, NumHubs: 2})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	path := filepath.Join(t.TempDir(), "index.prsim")
	if err := idx.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	if _, err := LoadIndexFile(path, g); err != nil {
		t.Fatalf("LoadIndexFile: %v", err)
	}
	if _, err := LoadIndexFile(filepath.Join(t.TempDir(), "missing.prsim"), g); err == nil {
		t.Errorf("missing file should be an error")
	}
}

func TestLoadIndexWrongGraph(t *testing.T) {
	g := fixtureGraph()
	idx, err := BuildIndex(g, Options{Epsilon: 0.1, NumHubs: 2})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	other := graph.MustFromEdges(3, []graph.Edge{{From: 0, To: 1}})
	if _, err := LoadIndex(&buf, other); err == nil {
		t.Errorf("loading with a different-sized graph should fail")
	}
}

func TestLoadIndexCorrupt(t *testing.T) {
	g := fixtureGraph()
	if _, err := LoadIndex(bytes.NewReader([]byte("not an index")), g); err == nil {
		t.Errorf("garbage input should be an error")
	}
	if _, err := LoadIndex(bytes.NewReader(nil), g); err == nil {
		t.Errorf("empty input should be an error")
	}
}

// TestLoadSelfContained reconstructs graph and index from one snapshot and
// checks the graph structure and label table survive byte-for-byte.
func TestLoadSelfContained(t *testing.T) {
	b := graph.NewBuilder()
	b.AddEdgeLabels("u", "v")
	b.AddEdgeLabels("v", "w")
	b.AddEdgeLabels("w", "u")
	b.AddEdgeLabels("x", "u")
	g := b.MustBuild()
	idx, err := BuildIndex(g, Options{Epsilon: 0.2, Seed: 4})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	lg, lidx, err := LoadSelfContained(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("LoadSelfContained: %v", err)
	}
	if lg.N() != g.N() || lg.M() != g.M() {
		t.Fatalf("graph shape %d/%d, want %d/%d", lg.N(), lg.M(), g.N(), g.M())
	}
	for v := 0; v < g.N(); v++ {
		a, bNbrs := g.OutNeighbors(v), lg.OutNeighbors(v)
		if len(a) != len(bNbrs) {
			t.Fatalf("node %d out-degree %d vs %d", v, len(a), len(bNbrs))
		}
		for i := range a {
			if a[i] != bNbrs[i] {
				t.Errorf("node %d out[%d] = %d, want %d", v, i, bNbrs[i], a[i])
			}
		}
		ai, bi := g.InNeighbors(v), lg.InNeighbors(v)
		if len(ai) != len(bi) {
			t.Fatalf("node %d in-degree %d vs %d", v, len(ai), len(bi))
		}
		for i := range ai {
			if ai[i] != bi[i] {
				t.Errorf("node %d in[%d] = %d, want %d", v, i, bi[i], ai[i])
			}
		}
	}
	want := []string{"u", "v", "w", "x"}
	labels := lg.Labels()
	if len(labels) != len(want) {
		t.Fatalf("labels = %v, want %v", labels, want)
	}
	for i := range want {
		if labels[i] != want[i] {
			t.Errorf("label %d = %q, want %q", i, labels[i], want[i])
		}
	}
	if lidx.NumHubs() != idx.NumHubs() {
		t.Errorf("hubs %d, want %d", lidx.NumHubs(), idx.NumHubs())
	}
	if _, err := query(lidx, 0); err != nil {
		t.Fatalf("query on self-loaded index: %v", err)
	}
}

// TestSaveDeterministic pins the byte-for-byte reproducibility of the
// writer: saving the same index twice must produce identical files (CI's
// snapshot round-trip smoke diff relies on this).
func TestSaveDeterministic(t *testing.T) {
	g := fixtureGraph()
	idx, err := BuildIndex(g, Options{Epsilon: 0.1, NumHubs: 2, Seed: 9})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	var a, b bytes.Buffer
	if err := idx.Save(&a); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := idx.Save(&b); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("two saves of one index differ (%d vs %d bytes)", a.Len(), b.Len())
	}
}
