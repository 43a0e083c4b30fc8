package snapshot

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"prsim/internal/core"
	"prsim/internal/gen"
	"prsim/internal/graph"
)

// deltaFixture saves a base snapshot, applies a mutation batch, and writes
// both the delta against the base and the successor's full snapshot.
func deltaFixture(t *testing.T) (updated *core.Index, basePath, deltaPath, fullPath string) {
	t.Helper()
	g, err := gen.PowerLaw(gen.PowerLawOptions{N: 400, AvgDegree: 6, Gamma: 2.5, Directed: true, Seed: 7})
	if err != nil {
		t.Fatalf("PowerLaw: %v", err)
	}
	// Label the graph: labels are the classic section edge updates never
	// touch, so they are what a delta visibly leaves out of the wire format.
	labels := make([]string, g.N())
	for i := range labels {
		labels[i] = fmt.Sprintf("entity-%06d.example.com/profile", i)
	}
	if err := g.SetLabels(labels); err != nil {
		t.Fatalf("SetLabels: %v", err)
	}
	// Hubs and entries, so the delta-mapped open reads a real entry slab.
	idx, err := core.BuildIndex(g, core.Options{Epsilon: 0.05, NumHubs: 20, Seed: 3, SampleScale: 0.05})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	dir := t.TempDir()
	basePath = filepath.Join(dir, "base.prsim")
	if err := idx.SaveFile(basePath); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	updated, _, err = idx.ApplyUpdates([]graph.EdgeUpdate{{From: 1, To: 200}, {From: 42, To: 7}})
	if err != nil {
		t.Fatalf("ApplyUpdates: %v", err)
	}
	deltaPath = filepath.Join(dir, "base.prsim.delta")
	if err := updated.WriteDeltaFile(deltaPath, idx.Gens()); err != nil {
		t.Fatalf("WriteDeltaFile: %v", err)
	}
	fullPath = filepath.Join(dir, "full.prsim")
	if err := updated.SaveFile(fullPath); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	return updated, basePath, deltaPath, fullPath
}

// requireSameServingState asserts that a loaded index carries want's
// generation stamps and answers queries bit-identically to it.
func requireSameServingState(t *testing.T, idx *core.Index, want *core.Index) {
	t.Helper()
	if got, wantG := idx.Gens(), want.Gens(); got != wantG {
		t.Fatalf("gens %+v, want %+v", got, wantG)
	}
	for _, src := range []int{0, 1, 42, 200, 399} {
		res, err := query(idx, src)
		if err != nil {
			t.Fatalf("Query(%d): %v", src, err)
		}
		wantRes, err := query(want, src)
		if err != nil {
			t.Fatalf("Query(%d): %v", src, err)
		}
		if len(res.Scores) != len(wantRes.Scores) {
			t.Fatalf("source %d: score support %d, want %d", src, len(res.Scores), len(wantRes.Scores))
		}
		for v, sc := range wantRes.Scores {
			if got := res.Scores[v]; math.Float64bits(got) != math.Float64bits(sc) {
				t.Fatalf("source %d: score of %d is %v, want %v", src, v, got, sc)
			}
		}
	}
}

func TestOpenDeltaMapped(t *testing.T) {
	updated, basePath, deltaPath, _ := deltaFixture(t)
	snap, err := OpenDelta(basePath, deltaPath, Options{VerifyChecksum: true})
	if err != nil {
		t.Fatalf("OpenDelta: %v", err)
	}
	defer snap.Close()
	if snap.Mapped() != hostViews() || snap.GraphMapped() != hostViews() {
		t.Fatalf("Mapped=%v GraphMapped=%v, want both %v on this platform", snap.Mapped(), snap.GraphMapped(), hostViews())
	}
	requireSameServingState(t, mustIndex(t, snap), updated)
	if err := snap.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
	snap.WarmUp()
	base, _ := os.Stat(basePath)
	delta, _ := os.Stat(deltaPath)
	if delta.Size() >= base.Size() {
		t.Errorf("delta (%d bytes) is not smaller than the base snapshot (%d bytes)", delta.Size(), base.Size())
	}
}

// spliceDelta is the reference side of the delta tests: it splices the delta
// onto its base in memory and loads the result with core's heap loader.
func spliceDelta(basePath, deltaPath string) (*core.Index, error) {
	base, err := os.ReadFile(basePath)
	if err != nil {
		return nil, err
	}
	delta, err := os.ReadFile(deltaPath)
	if err != nil {
		return nil, err
	}
	full, err := core.SpliceDelta(base, delta)
	if err != nil {
		return nil, err
	}
	_, idx, err := core.LoadSelfContained(bytes.NewReader(full))
	return idx, err
}

// TestOpenDeltaSpliceParity pins loader parity for one successor state: the
// two-file OpenDelta, SpliceDelta followed by core's heap loader, and Open and
// the heap loader on the successor's full snapshot all answer like the
// updated index.
func TestOpenDeltaSpliceParity(t *testing.T) {
	updated, basePath, deltaPath, fullPath := deltaFixture(t)
	spliced, err := spliceDelta(basePath, deltaPath)
	if err != nil {
		t.Fatalf("SpliceDelta + heap load: %v", err)
	}
	requireSameServingState(t, spliced, updated)

	delta, err := OpenDelta(basePath, deltaPath, Options{})
	if err != nil {
		t.Fatalf("OpenDelta: %v", err)
	}
	defer delta.Close()
	requireSameServingState(t, mustIndex(t, delta), spliced)

	full, err := Open(fullPath, nil, Options{})
	if err != nil {
		t.Fatalf("Open(full): %v", err)
	}
	defer full.Close()
	requireSameServingState(t, mustIndex(t, full), spliced)
	_, heap, err := loadSelfContained(fullPath)
	if err != nil {
		t.Fatalf("core.LoadSelfContained(full): %v", err)
	}
	requireSameServingState(t, heap, spliced)
}

func TestOpenDeltaRejectsWrongBase(t *testing.T) {
	_, _, deltaPath, fullPath := deltaFixture(t)
	// The successor's own full snapshot has the delta's target generation,
	// not its base generation.
	if _, err := OpenDelta(fullPath, deltaPath, Options{}); err == nil {
		t.Errorf("OpenDelta onto the wrong generation succeeded")
	}
	if _, err := spliceDelta(fullPath, deltaPath); err == nil {
		t.Errorf("SpliceDelta onto the wrong generation succeeded")
	}
}

func TestOpenDeltaDetectsCorruption(t *testing.T) {
	_, basePath, deltaPath, _ := deltaFixture(t)
	data, err := os.ReadFile(deltaPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-16] ^= 0x01 // shipped payload byte; invalidates the CRC
	if err := os.WriteFile(deltaPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDelta(basePath, deltaPath, Options{VerifyChecksum: true}); err == nil {
		t.Errorf("OpenDelta with corrupt payload succeeded")
	}
	// Splicing always verifies both files.
	if _, err := spliceDelta(basePath, deltaPath); err == nil {
		t.Errorf("SpliceDelta with corrupt payload succeeded")
	}
}

// FuzzOpenDelta asserts OpenDelta returns clean errors — never panics — on
// arbitrary delta bytes layered over a fixed, valid base: each input either
// fails to open or yields an index that answers a query from node 0. Inputs
// go through a real file, as FuzzOpenMapped's do.
func FuzzOpenDelta(f *testing.F) {
	// The same small index as FuzzOpenMapped's, so each input is cheap to
	// write, open and query.
	g, err := gen.PowerLaw(gen.PowerLawOptions{N: 60, AvgDegree: 4, Gamma: 2.5, Directed: true, Seed: 7})
	if err != nil {
		f.Fatalf("PowerLaw: %v", err)
	}
	built, err := core.BuildIndex(g, core.Options{Epsilon: 0.1, NumHubs: 4, Seed: 3, SampleScale: 0.05})
	if err != nil {
		f.Fatalf("BuildIndex: %v", err)
	}
	dir := f.TempDir()
	basePath := filepath.Join(dir, "base.prsim")
	if err := built.SaveFile(basePath); err != nil {
		f.Fatalf("SaveFile: %v", err)
	}
	updated, _, err := built.ApplyUpdates([]graph.EdgeUpdate{{From: 1, To: 30}, {From: 42, To: 7}})
	if err != nil {
		f.Fatalf("ApplyUpdates: %v", err)
	}
	wantOpts := updated.Options()
	var buf bytes.Buffer
	if err := updated.WriteDelta(&buf, built.Gens()); err != nil {
		f.Fatalf("WriteDelta: %v", err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add(good[:64])
	f.Add(good[:len(good)/2])
	f.Add([]byte("not a delta at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := os.CreateTemp(dir, "fuzz-*.delta")
		if err != nil {
			t.Fatal(err)
		}
		defer os.Remove(file.Name())
		if _, err := file.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := file.Close(); err != nil {
			t.Fatal(err)
		}
		snap, err := OpenDelta(basePath, file.Name(), Options{})
		if err != nil {
			return
		}
		defer snap.Close()
		// Query only when the options survived untampered: the embedded
		// prefix is not checksummed on a mapped open, and a mutated epsilon
		// can legitimately parse yet make the (correct) query astronomically
		// expensive.
		idx := mustIndex(t, snap)
		if idx.Options() != wantOpts {
			return
		}
		if _, err := query(idx, 0); err != nil {
			t.Fatalf("opened index cannot query: %v", err)
		}
	})
}

func BenchmarkDeltaOpen(b *testing.B) {
	g, err := gen.PowerLaw(gen.PowerLawOptions{N: 20000, AvgDegree: 8, Gamma: 2.5, Directed: true, Seed: 7})
	if err != nil {
		b.Fatalf("PowerLaw: %v", err)
	}
	idx, err := core.BuildIndex(g, core.Options{Epsilon: 0.5, Seed: 3})
	if err != nil {
		b.Fatalf("BuildIndex: %v", err)
	}
	dir := b.TempDir()
	basePath := filepath.Join(dir, "base.prsim")
	if err := idx.SaveFile(basePath); err != nil {
		b.Fatalf("SaveFile: %v", err)
	}
	updated, _, err := idx.ApplyUpdates([]graph.EdgeUpdate{{From: 1, To: 200}})
	if err != nil {
		b.Fatalf("ApplyUpdates: %v", err)
	}
	deltaPath := filepath.Join(dir, "base.prsim.delta")
	if err := updated.WriteDeltaFile(deltaPath, idx.Gens()); err != nil {
		b.Fatalf("WriteDeltaFile: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := OpenDelta(basePath, deltaPath, Options{})
		if err != nil {
			b.Fatalf("OpenDelta: %v", err)
		}
		if _, err := snap.Index(); err != nil {
			b.Fatal(err)
		}
		snap.Close()
	}
}
