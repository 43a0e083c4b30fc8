package snapshot

import (
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

// requireSameServingState asserts that an opened snapshot answers queries
// bit-identically to the in-memory updated index.
func requireSameServingState(t *testing.T, s *Snapshot, want *core.Index) {
	t.Helper()
	idx := mustIndex(t, s)
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
	if !Supported() {
		t.Skip("zero-copy snapshots unsupported on this platform")
	}
	updated, basePath, deltaPath, _ := deltaFixture(t)
	snap, err := OpenDelta(basePath, deltaPath, Options{VerifyChecksum: true})
	if err != nil {
		t.Fatalf("OpenDelta: %v", err)
	}
	defer snap.Close()
	if !snap.Mapped() || !snap.GraphMapped() {
		t.Fatalf("Mapped=%v GraphMapped=%v, want true/true", snap.Mapped(), snap.GraphMapped())
	}
	requireSameServingState(t, snap, updated)
	if err := snap.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
	snap.WarmUp()
	base, _ := os.Stat(basePath)
	delta, _ := os.Stat(deltaPath)
	if snap.SizeBytes() != base.Size()+delta.Size() {
		t.Errorf("SizeBytes = %d, want %d", snap.SizeBytes(), base.Size()+delta.Size())
	}
	if delta.Size() >= base.Size() {
		t.Errorf("delta (%d bytes) is not smaller than the base snapshot (%d bytes)", delta.Size(), base.Size())
	}
}

// TestOpenDeltaStreamParity pins mmap/stream equivalence for delta opens: the
// portable splice-and-stream fallback must reach the same serving state as
// the zero-copy dual mapping.
func TestOpenDeltaStreamParity(t *testing.T) {
	updated, basePath, deltaPath, fullPath := deltaFixture(t)
	stream, err := OpenDelta(basePath, deltaPath, Options{ForceStream: true})
	if err != nil {
		t.Fatalf("OpenDelta (stream): %v", err)
	}
	defer stream.Close()
	if stream.Mapped() {
		t.Fatalf("ForceStream open reports mapped")
	}
	requireSameServingState(t, stream, updated)

	// And both must match a plain open of the successor's full snapshot.
	full, err := Open(fullPath, nil, Options{})
	if err != nil {
		t.Fatalf("Open(full): %v", err)
	}
	defer full.Close()
	requireSameServingState(t, full, mustIndex(t, stream))
}

func TestOpenDeltaRejectsWrongBase(t *testing.T) {
	_, _, deltaPath, fullPath := deltaFixture(t)
	// The successor's own full snapshot has the delta's target generation,
	// not its base generation.
	for _, stream := range []bool{false, true} {
		if _, err := OpenDelta(fullPath, deltaPath, Options{ForceStream: stream}); err == nil {
			t.Errorf("OpenDelta(stream=%v) onto the wrong generation succeeded", stream)
		}
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
		t.Errorf("mapped OpenDelta with corrupt payload succeeded")
	}
	// The streaming path always splices with full verification.
	if _, err := OpenDelta(basePath, deltaPath, Options{ForceStream: true}); err == nil {
		t.Errorf("streaming OpenDelta with corrupt payload succeeded")
	}
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
