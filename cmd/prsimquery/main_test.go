package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestLoadGraphModes(t *testing.T) {
	// Generated modes.
	if g, err := loadGraph(config{generate: "powerlaw", n: 200, avgDeg: 5, gamma: 2}); err != nil || g.NumNodes() != 200 {
		t.Errorf("powerlaw mode: g=%v err=%v", g, err)
	}
	if g, err := loadGraph(config{generate: "er", n: 100, avgDeg: 4}); err != nil || g.NumNodes() != 100 {
		t.Errorf("er mode: g=%v err=%v", g, err)
	}
	// Dataset mode.
	if _, err := loadGraph(config{dataset: "DB"}); err != nil {
		t.Errorf("dataset mode: %v", err)
	}
	// File mode.
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, []byte("0 1\n1 2\n2 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if g, err := loadGraph(config{graphPath: path}); err != nil || g.NumNodes() != 3 {
		t.Errorf("file mode: g=%v err=%v", g, err)
	}
	// No source specified at all.
	if _, err := loadGraph(config{}); err == nil {
		t.Errorf("empty config should be an error")
	}
}

func TestRunEndToEnd(t *testing.T) {
	cfg := config{
		generate: "powerlaw", n: 300, avgDeg: 5, gamma: 2.2, directed: true,
		epsilon: 0.3, decay: 0.6, seed: 1, scale: 0.1,
		source: 3, topK: 5, algorithm: "PRSim",
	}
	if err := run(cfg); err != nil {
		t.Fatalf("run PRSim: %v", err)
	}
	cfg.algorithm = "READS"
	if err := run(cfg); err != nil {
		t.Fatalf("run READS: %v", err)
	}
	cfg.algorithm = "does-not-exist"
	if err := run(cfg); err == nil {
		t.Errorf("unknown algorithm should be an error")
	}
}

func TestRunSaveAndLoadIndex(t *testing.T) {
	dir := t.TempDir()
	idxPath := filepath.Join(dir, "idx.prsim")
	base := config{
		generate: "powerlaw", n: 200, avgDeg: 5, gamma: 2.2, directed: true,
		epsilon: 0.3, decay: 0.6, seed: 4, scale: 0.1, topK: 5, algorithm: "PRSim",
		source: -1,
	}
	save := base
	save.saveIndex = idxPath
	if err := run(save); err != nil {
		t.Fatalf("run save: %v", err)
	}
	if _, err := os.Stat(idxPath); err != nil {
		t.Fatalf("index file missing: %v", err)
	}
	// The snapshot carries its own graph; a second graph source is refused.
	load := config{loadIndex: idxPath, source: 7, topK: 5, algorithm: "PRSim"}
	if err := run(load); err != nil {
		t.Fatalf("run load: %v", err)
	}
	withGraph := base
	withGraph.loadIndex = idxPath
	withGraph.source = 7
	if err := run(withGraph); err == nil || !strings.Contains(err.Error(), "carry their own graph") {
		t.Errorf("run with -loadindex and -generate = %v, want a refusal", err)
	}
}
