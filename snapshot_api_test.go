package prsim

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// TestOpenSnapshotAPI drives the public snapshot workflow end to end:
// build → SaveFile → OpenSnapshot → query parity with LoadIndexFile →
// Verify → Close.
func TestOpenSnapshotAPI(t *testing.T) {
	g, err := GeneratePowerLawGraph(300, 6, 2.5, true, 11)
	if err != nil {
		t.Fatalf("GeneratePowerLawGraph: %v", err)
	}
	built, err := BuildIndex(g, Options{Epsilon: 0.2, Seed: 5, SampleScale: 0.2})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	if built.Backing() != "heap" {
		t.Errorf("built index backing = %q, want heap", built.Backing())
	}
	if err := built.Close(); err != nil {
		t.Errorf("Close on heap-backed index: %v", err)
	}
	path := filepath.Join(t.TempDir(), "index.prsim")
	if err := built.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}

	streamed, err := LoadIndexFile(path, g)
	if err != nil {
		t.Fatalf("LoadIndexFile: %v", err)
	}
	snap, err := OpenSnapshot(path, g)
	if err != nil {
		t.Fatalf("OpenSnapshot: %v", err)
	}
	if b := snap.Backing(); b != "mmap" && b != "heap" {
		t.Errorf("snapshot backing = %q, want mmap (or heap on fallback platforms)", b)
	}
	if err := snap.Verify(); err != nil {
		t.Errorf("Verify on intact snapshot: %v", err)
	}

	for _, u := range []int{0, 42, 299} {
		a, err := query(streamed, u)
		if err != nil {
			t.Fatalf("streamed query %d: %v", u, err)
		}
		b, err := query(snap, u)
		if err != nil {
			t.Fatalf("snapshot query %d: %v", u, err)
		}
		as, bs := a.Scores(), b.Scores()
		if len(as) != len(bs) {
			t.Fatalf("query %d: support %d vs %d", u, len(as), len(bs))
		}
		for v, s := range as {
			if math.Float64bits(bs[v]) != math.Float64bits(s) {
				t.Fatalf("query %d node %d: %v vs %v", u, v, s, bs[v])
			}
		}
	}
	if err := snap.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := snap.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestOpenSnapshotErrors covers the public error paths.
func TestOpenSnapshotErrors(t *testing.T) {
	g, err := GeneratePowerLawGraph(100, 4, 2.5, true, 1)
	if err != nil {
		t.Fatalf("GeneratePowerLawGraph: %v", err)
	}
	if _, err := OpenSnapshot(filepath.Join(t.TempDir(), "missing.prsim"), g); err == nil {
		t.Errorf("missing file should fail")
	}
	if _, err := OpenSnapshot("", nil); err == nil {
		t.Errorf("nil graph should fail")
	}
	idx, err := BuildIndex(g, Options{Epsilon: 0.3, Seed: 1, SampleScale: 0.1})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	path := filepath.Join(t.TempDir(), "index.prsim")
	if err := idx.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	other, err := GeneratePowerLawGraph(50, 4, 2.5, true, 2)
	if err != nil {
		t.Fatalf("GeneratePowerLawGraph: %v", err)
	}
	if _, err := OpenSnapshot(path, other); err == nil {
		t.Errorf("snapshot for a different graph should fail")
	}
}

// TestOpenSnapshotSelfContainedAPI drives the self-contained open through the
// public API: Save embeds the graph, OpenSnapshot(path, nil) needs no graph at
// all, labels survive, and queries match an index over the original graph.
func TestOpenSnapshotSelfContainedAPI(t *testing.T) {
	g, err := NewGraphFromLabelledEdges([][2]string{
		{"a", "b"}, {"b", "c"}, {"c", "a"}, {"d", "a"}, {"c", "d"},
	})
	if err != nil {
		t.Fatalf("NewGraphFromLabelledEdges: %v", err)
	}
	built, err := BuildIndex(g, Options{Epsilon: 0.2, Seed: 5})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	path := filepath.Join(t.TempDir(), "selfcontained.prsim")
	if err := built.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}

	snap, err := OpenSnapshot(path, nil)
	if err != nil {
		t.Fatalf("OpenSnapshot(nil graph): %v", err)
	}
	defer snap.Close()
	sg := snap.Graph()
	if sg.NumNodes() != g.NumNodes() || sg.NumEdges() != g.NumEdges() {
		t.Fatalf("embedded graph %d/%d, want %d/%d",
			sg.NumNodes(), sg.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for v, want := range []string{"a", "b", "c", "d"} {
		if got := sg.Label(v); got != want {
			t.Errorf("Label(%d) = %q, want %q", v, got, want)
		}
	}
	if b := snap.GraphBacking(); b != "mmap" && b != "heap" {
		t.Errorf("GraphBacking = %q, want mmap or heap", b)
	}
	for u := 0; u < g.NumNodes(); u++ {
		want, err := query(built, u)
		if err != nil {
			t.Fatalf("built query %d: %v", u, err)
		}
		got, err := query(snap, u)
		if err != nil {
			t.Fatalf("snapshot query %d: %v", u, err)
		}
		ws, gs := want.Scores(), got.Scores()
		if len(ws) != len(gs) {
			t.Fatalf("query %d support %d vs %d", u, len(ws), len(gs))
		}
		for v, s := range ws {
			if math.Float64bits(gs[v]) != math.Float64bits(s) {
				t.Fatalf("query %d node %d: %v vs %v", u, v, s, gs[v])
			}
		}
	}
	// Top-k through a mounted engine resolves labels from the embedded table.
	resp, err := mountIndex(t, snap, EngineOptions{Workers: 2}).Do(context.Background(), Request{Source: 0, K: 3})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	for _, s := range resp.Top {
		if s.Label == "" {
			t.Errorf("top-k entry missing label: %+v", s)
		}
	}
}

// TestOpenSnapshotClosedIsLoud checks the public Close contract: Verify on a
// closed snapshot returns ErrSnapshotClosed instead of a silent nil.
func TestOpenSnapshotClosedIsLoud(t *testing.T) {
	g, err := GeneratePowerLawGraph(120, 5, 2.5, true, 3)
	if err != nil {
		t.Fatalf("GeneratePowerLawGraph: %v", err)
	}
	built, err := BuildIndex(g, Options{Epsilon: 0.3, Seed: 1, SampleScale: 0.1})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	path := filepath.Join(t.TempDir(), "index.prsim")
	if err := built.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	snap, err := OpenSnapshot(path, g)
	if err != nil {
		t.Fatalf("OpenSnapshot: %v", err)
	}
	if err := snap.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := snap.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := snap.Verify(); !errors.Is(err, ErrSnapshotClosed) {
		t.Errorf("Verify after Close = %v, want ErrSnapshotClosed", err)
	}
}

// TestPublicAPISurface pins the serving tier's public API: the method sets of
// the registry types and the field names of the request/response bundles.
// These names are the contract clients and the HTTP layer compile against —
// additions are fine (extend the snapshot deliberately), renames and removals
// are breaks this test exists to catch. Index.Do and the Registry are the one
// query plane, so the single-source shims it replaced must stay gone.
func TestPublicAPISurface(t *testing.T) {
	methods := func(v any) []string {
		rt := reflect.TypeOf(v)
		out := make([]string, 0, rt.NumMethod())
		for i := 0; i < rt.NumMethod(); i++ {
			out = append(out, rt.Method(i).Name)
		}
		return out
	}
	fields := func(v any) []string {
		rt := reflect.TypeOf(v)
		out := make([]string, 0, rt.NumField())
		for i := 0; i < rt.NumField(); i++ {
			out = append(out, rt.Field(i).Name)
		}
		return out
	}
	absent := func(name string, got, gone []string) {
		t.Helper()
		for _, m := range got {
			if slices.Contains(gone, m) {
				t.Errorf("%s regrew %s: Do is the one single-source entry point", name, m)
			}
		}
	}
	check := func(name string, got, want []string) {
		t.Helper()
		missing := []string{}
		have := map[string]bool{}
		for _, m := range got {
			have[m] = true
		}
		for _, m := range want {
			if !have[m] {
				missing = append(missing, m)
			}
		}
		if len(missing) > 0 {
			t.Errorf("%s lost surface: missing %v (have %v)", name, missing, got)
		}
	}

	check("Registry", methods(&Registry{}), []string{
		"MountOpener", "MountSnapshot", "MountIndex", "Unmount", "Get", "Names", "Do",
	})
	check("Served", methods(&Served{}), []string{
		"Current", "Generation", "NumShards", "Do", "DoBatch", "TopKMerged",
		"Pair", "Reload", "Stats", "StatsAggregate",
	})
	check("Index", methods(&Index{}), []string{
		"Do", "QueryPairCtx", "SaveFile",
		"Verify", "Close", "Backing", "GraphBacking", "Graph", "Stats",
	})
	absent("Index", methods(&Index{}), []string{"Query", "QueryCtx", "QueryBatch", "QueryPair"})
	check("Request", fields(Request{}), []string{
		"Source", "Epsilon", "K", "NoCache", "Parallelism", "Graph", "Class",
	})
	check("Response", fields(Response{}), []string{
		"Result", "Top", "Epsilon", "Clamped", "CacheHit", "Coalesced",
	})
	check("EngineStats", fields(EngineStats{}), []string{
		"Workers", "MaxQueue", "Generation", "Swaps", "CacheReuses", "Queries",
		"CacheHits", "Coalesced", "Shed", "QueueDepth", "Interactive", "Batch",
		"CacheEntries", "PairQueries", "Errors", "ParallelQueries",
		"ChunksExecuted", "ChunksMerged",
	})
	check("ClassStats", fields(ClassStats{}), []string{
		"Queries", "Shed", "QueueDepth", "AvgServiceNs",
	})
	check("GraphConfig", fields(GraphConfig{}), []string{"Shards", "Engine"})

	// The admission classes and their wire names.
	if ClassInteractive.String() != "interactive" || ClassBatch.String() != "batch" {
		t.Errorf("class names = %q/%q", ClassInteractive, ClassBatch)
	}
	if c, err := ParseClass("batch"); err != nil || c != ClassBatch {
		t.Errorf("ParseClass(batch) = %v, %v", c, err)
	}
	if c, err := ParseClass(""); err != nil || c != ClassInteractive {
		t.Errorf("ParseClass(\"\") = %v, %v", c, err)
	}
	if _, err := ParseClass("bulk"); err == nil {
		t.Error("ParseClass accepted an unknown class")
	}

	// Sentinel errors servers classify on.
	for name, sentinel := range map[string]error{
		"ErrOverloaded":     ErrOverloaded,
		"ErrUnknownGraph":   ErrUnknownGraph,
		"ErrInvalidNode":    ErrInvalidNode,
		"ErrInvalidEpsilon": ErrInvalidEpsilon,
	} {
		if sentinel == nil {
			t.Errorf("%s is nil", name)
		}
	}
}
