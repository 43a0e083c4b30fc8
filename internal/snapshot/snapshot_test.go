package snapshot

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"prsim/internal/core"
	"prsim/internal/gen"
	"prsim/internal/graph"
)

// buildFixture saves an index with hubs and entries, so mapped opens read a
// real entry slab.
func buildFixture(t testing.TB) (*graph.Graph, *core.Index, string) {
	t.Helper()
	g, err := gen.PowerLaw(gen.PowerLawOptions{N: 400, AvgDegree: 6, Gamma: 2.5, Directed: true, Seed: 7})
	if err != nil {
		t.Fatalf("PowerLaw: %v", err)
	}
	idx, err := core.BuildIndex(g, core.Options{Epsilon: 0.05, NumHubs: 20, Seed: 3, SampleScale: 0.05})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	path := filepath.Join(t.TempDir(), "index.prsim")
	if err := idx.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	return g, idx, path
}

// query runs a single-source query from u at the index's build options.
func query(idx *core.Index, u int) (*core.Result, error) {
	res := &core.Result{}
	if err := idx.QueryIntoOpts(context.Background(), u, res, core.QueryOptions{}); err != nil {
		return nil, err
	}
	return res, nil
}

// hostViews reports whether Open views the mapping in place on this
// platform: core.DecodeSnapshot views mapped bytes on 64-bit little-endian
// hosts.
func hostViews() bool {
	return mmapAvailable && strconv.IntSize == 64 && binary.NativeEndian.Uint16([]byte{1, 0}) == 1
}

// mustIndex unwraps Snapshot.Index in tests that know the snapshot is open.
func mustIndex(t *testing.T, s *Snapshot) *core.Index {
	t.Helper()
	idx, err := s.Index()
	if err != nil {
		t.Fatalf("Index: %v", err)
	}
	return idx
}

func TestOpenMapped(t *testing.T) {
	g, built, path := buildFixture(t)
	snap, err := Open(path, g, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer snap.Close()
	if snap.Mapped() != hostViews() {
		t.Fatalf("Mapped = %v, want %v on this platform", snap.Mapped(), hostViews())
	}
	if snap.GraphMapped() {
		t.Errorf("caller-supplied graph must not report as mapped")
	}
	idx := mustIndex(t, snap)
	if idx.NumHubs() != built.NumHubs() {
		t.Errorf("hub count: mapped %d, built %d", idx.NumHubs(), built.NumHubs())
	}
	if idx.SizeEntries() != built.SizeEntries() {
		t.Errorf("entries: mapped %d, built %d", idx.SizeEntries(), built.SizeEntries())
	}
}

// TestOpenSelfContained is the headline capability: no graph supplied, the
// embedded CSR structure is reconstructed from the same mapping, and queries
// are bit-identical to an index over the original in-memory graph.
func TestOpenSelfContained(t *testing.T) {
	g, built, path := buildFixture(t)
	snap, err := Open(path, nil, Options{})
	if err != nil {
		t.Fatalf("Open (self-contained): %v", err)
	}
	defer snap.Close()
	sg, err := snap.Graph()
	if err != nil {
		t.Fatalf("Graph: %v", err)
	}
	if sg.N() != g.N() || sg.M() != g.M() {
		t.Fatalf("embedded graph is %d/%d, want %d/%d", sg.N(), sg.M(), g.N(), g.M())
	}
	if !sg.OutSortedByInDegree() {
		t.Errorf("embedded graph must come back sorted by head in-degree")
	}
	if snap.Mapped() != hostViews() || snap.GraphMapped() != hostViews() {
		t.Errorf("self-contained open: mapped=%v graphMapped=%v, want both %v on this platform",
			snap.Mapped(), snap.GraphMapped(), hostViews())
	}
	// The embedded adjacency must match the original exactly (Save sorts
	// before writing, and the fixture graph is already sorted).
	for v := 0; v < g.N(); v += 37 {
		a, b := g.OutNeighbors(v), sg.OutNeighbors(v)
		if len(a) != len(b) {
			t.Fatalf("node %d: out-degree %d vs %d", v, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d out-neighbor %d: %d vs %d", v, i, a[i], b[i])
			}
		}
	}
	idx := mustIndex(t, snap)
	if idx.NumHubs() != built.NumHubs() {
		t.Errorf("hub count: self-contained %d, built %d", idx.NumHubs(), built.NumHubs())
	}
	for _, u := range []int{0, 57, 399} {
		want, err := query(built, u)
		if err != nil {
			t.Fatalf("built query %d: %v", u, err)
		}
		got, err := query(idx, u)
		if err != nil {
			t.Fatalf("self-contained query %d: %v", u, err)
		}
		if len(want.Scores) != len(got.Scores) {
			t.Fatalf("query %d: support %d vs %d", u, len(want.Scores), len(got.Scores))
		}
		for v, s := range want.Scores {
			if gs, ok := got.Scores[v]; !ok || math.Float64bits(gs) != math.Float64bits(s) {
				t.Fatalf("query %d node %d: %v vs %v", u, v, s, gs)
			}
		}
	}
}

// TestOpenSelfContainedLabels round-trips the label table through a snapshot,
// through Open and through core's heap loader.
func TestOpenSelfContainedLabels(t *testing.T) {
	b := graph.NewBuilder()
	b.AddEdgeLabels("alice", "bob")
	b.AddEdgeLabels("bob", "carol")
	b.AddEdgeLabels("carol", "alice")
	b.AddEdgeLabels("dave", "alice")
	g := b.MustBuild()
	idx, err := core.BuildIndex(g, core.Options{Epsilon: 0.3, Seed: 1})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	path := filepath.Join(t.TempDir(), "labelled.prsim")
	if err := idx.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	requireLabels := func(loader string, sg *graph.Graph) []string {
		t.Helper()
		labels := sg.Labels()
		want := []string{"alice", "bob", "carol", "dave"}
		if len(labels) != len(want) {
			t.Fatalf("%s: labels = %v, want %v", loader, labels, want)
		}
		for i := range want {
			if labels[i] != want[i] {
				t.Errorf("%s: label %d = %q, want %q", loader, i, labels[i], want[i])
			}
		}
		return labels
	}
	snap, err := Open(path, nil, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	sg, err := snap.Graph()
	if err != nil {
		t.Fatalf("Graph: %v", err)
	}
	labels := requireLabels("Open", sg)
	// Labels must survive Close: they are materialized on the heap, not
	// views over the mapping.
	if err := snap.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if labels[0] != "alice" {
		t.Errorf("label after Close = %q, want alice", labels[0])
	}
	hg, _, err := loadSelfContained(path)
	if err != nil {
		t.Fatalf("core.LoadSelfContained: %v", err)
	}
	requireLabels("core.LoadSelfContained", hg)
}

// writeFile writes data to a fresh file in a test temp dir.
func writeFile(t testing.TB, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	return path
}

// loadSelfContained reads a saved file with core's heap loader, the
// reference side of the parity and rejection tests below.
func loadSelfContained(path string) (*graph.Graph, *core.Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return core.LoadSelfContained(f)
}

// loaders opens a saved file both ways: Open, and core's heap loader. g may
// be nil, for a self-contained load. Each returns the index and a release
// function.
var loaders = []struct {
	name string
	load func(path string, g *graph.Graph) (*core.Index, func(), error)
}{
	{"Open", func(path string, g *graph.Graph) (*core.Index, func(), error) {
		snap, err := Open(path, g, Options{})
		if err != nil {
			return nil, nil, err
		}
		idx, err := snap.Index()
		return idx, func() { snap.Close() }, err
	}},
	{"core heap loader", func(path string, g *graph.Graph) (*core.Index, func(), error) {
		if g != nil {
			idx, err := core.LoadIndexFile(path, g)
			return idx, func() {}, err
		}
		_, idx, err := loadSelfContained(path)
		return idx, func() {}, err
	}},
}

// TestOpenV3 opens a real version-3 file — the fixture's v4 snapshot with
// its generation block removed — with Open and with core's heap loader, and
// requires the v4 open's serving state: bit-identical scores and the fresh
// build's generation stamps.
func TestOpenV3(t *testing.T) {
	_, _, path := buildFixture(t)
	v4, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	v3, err := core.SnapshotAsV3(v4)
	if err != nil {
		t.Fatalf("SnapshotAsV3: %v", err)
	}
	v3Path := writeFile(t, "index.v3.prsim", v3)
	full, err := Open(path, nil, Options{})
	if err != nil {
		t.Fatalf("Open (v4): %v", err)
	}
	defer full.Close()
	for _, l := range loaders {
		idx, release, err := l.load(v3Path, nil)
		if err != nil {
			t.Fatalf("%s v3: %v", l.name, err)
		}
		// The v4 file carries the fresh build's stamps, which the v3 load
		// must synthesize.
		requireSameServingState(t, idx, mustIndex(t, full))
		release()
	}
}

// TestOpenRejectsUnsupportedVersions pins the version policy for Open and
// core's heap loader: v1 and v2 files (which never embedded the graph) and unknown
// versions fail to open, with or without a supplied graph, with an error
// naming the version.
func TestOpenRejectsUnsupportedVersions(t *testing.T) {
	g, _, path := buildFixture(t)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	for _, v := range []uint64{1, 2, 99} {
		b := append([]byte(nil), good...)
		binary.LittleEndian.PutUint64(b[8:], v)
		bad := writeFile(t, fmt.Sprintf("index.v%d.prsim", v), b)
		want := fmt.Sprintf("version %d", v)
		for _, l := range loaders {
			for _, sg := range []*graph.Graph{nil, g} {
				if _, release, err := l.load(bad, sg); err == nil {
					release()
					t.Errorf("version-%d file opened (%s, graph supplied=%v)", v, l.name, sg != nil)
				} else if !strings.Contains(err.Error(), want) {
					t.Errorf("version-%d open error %q does not name %q", v, err, want)
				}
			}
		}
	}
}

// TestOpenRejectsOutOfRangeEntryNode corrupts every entry slab record to name
// a node past the graph and fixes up the CRC trailer, so only the entry-id
// check can catch it. Queries index per-node score arrays with entry ids, so
// an open that let the file through would panic on its first query.
func TestOpenRejectsOutOfRangeEntryNode(t *testing.T) {
	_, _, path := buildFixture(t)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	layout, err := core.ParseSnapshotLayout(good)
	if err != nil {
		t.Fatalf("ParseSnapshotLayout: %v", err)
	}
	slab := layout.Sections[layout.EntrySlabIndex()]
	if slab.Len == 0 {
		t.Fatal("fixture index has no entries")
	}
	for _, node := range []uint32{1 << 30, 0xFFFFFFF0} {
		b := append([]byte(nil), good...)
		for off := slab.Off; off < slab.End(); off += 16 {
			binary.LittleEndian.PutUint32(b[off:], node)
		}
		payload := b[layout.Sections[0].Off : len(b)-8]
		binary.LittleEndian.PutUint64(b[len(b)-8:], uint64(crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli))))
		bad := writeFile(t, "entries.prsim", b)
		for _, l := range loaders {
			idx, release, err := l.load(bad, nil)
			if err == nil {
				_, qerr := query(idx, 0)
				release()
				t.Fatalf("entry ids %#x opened (%s); first query: %v", node, l.name, qerr)
			}
			if !strings.Contains(err.Error(), "names node") {
				t.Errorf("entry ids %#x (%s): error %q does not name the entry node", node, l.name, err)
			}
		}
	}
}

// TestMappedQueryParity is the core zero-copy guarantee: for a fixed seed,
// queries answered off the mmap backing are bit-identical to queries answered
// off core's heap loader.
func TestMappedQueryParity(t *testing.T) {
	g, _, path := buildFixture(t)

	heap, err := core.LoadIndexFile(path, g)
	if err != nil {
		t.Fatalf("core.LoadIndexFile: %v", err)
	}
	mapped, err := Open(path, g, Options{})
	if err != nil {
		t.Fatalf("Open (mmap): %v", err)
	}
	defer mapped.Close()

	for _, u := range []int{0, 1, 57, 399} {
		a, err := query(heap, u)
		if err != nil {
			t.Fatalf("heap query %d: %v", u, err)
		}
		b, err := query(mustIndex(t, mapped), u)
		if err != nil {
			t.Fatalf("mapped query %d: %v", u, err)
		}
		if len(a.Scores) != len(b.Scores) {
			t.Fatalf("query %d: score support differs: %d vs %d", u, len(a.Scores), len(b.Scores))
		}
		for v, s := range a.Scores {
			if bs, ok := b.Scores[v]; !ok || math.Float64bits(bs) != math.Float64bits(s) {
				t.Fatalf("query %d node %d: heap %v (%#x) vs mapped %v (%#x)",
					u, v, s, math.Float64bits(s), bs, math.Float64bits(bs))
			}
		}
	}
}

func TestOpenChecksumMismatch(t *testing.T) {
	g, _, path := buildFixture(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	// Flip one byte in the middle of the section payload.
	data[len(data)/2] ^= 0xff
	bad := filepath.Join(t.TempDir(), "corrupt.prsim")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, err := Open(bad, g, Options{VerifyChecksum: true}); err == nil {
		t.Fatalf("corrupted payload should fail checksum validation")
	}
	// The default mapped open skips the payload CRC for O(header) start;
	// structural checks may still catch the flip (it can land in an offset
	// array). It must never panic, and an explicit Verify must flag the
	// corruption. An open that copies the sections checks the CRC itself.
	if snap, err := Open(bad, g, Options{}); err == nil {
		if verr := snap.Verify(); snap.Mapped() && verr == nil {
			t.Errorf("Verify accepted a corrupted payload")
		}
		snap.Close()
	}
	// The heap loader always checksums the payload.
	if _, err := core.LoadIndexFile(bad, g); err == nil {
		t.Fatalf("heap load of corrupted payload should fail")
	}
}

func TestOpenTruncated(t *testing.T) {
	g, _, path := buildFixture(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	for _, keep := range []int{0, 8, 100, len(data) / 2, len(data) - 1} {
		bad := filepath.Join(t.TempDir(), "trunc.prsim")
		if err := os.WriteFile(bad, data[:keep], 0o644); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		if _, err := Open(bad, g, Options{}); err == nil {
			t.Errorf("truncation to %d bytes should fail", keep)
		}
		if _, err := Open(bad, nil, Options{}); err == nil {
			t.Errorf("self-contained truncation to %d bytes should fail", keep)
		}
	}
}

// hostileCountPrefix is a 408-byte v4 snapshot prefix — header, section
// table and generation block, no payload — declaring 2^46 nodes and nothing
// else, with a section table and file size consistent with that count.
func hostileCountPrefix() []byte {
	const nodes = 1 << 46
	b := make([]byte, 408)
	put := func(slot int, v uint64) { binary.LittleEndian.PutUint64(b[slot*8:], v) }
	// Section table, slots 16-37: pi, hubOrder, hubLevelPos, entryOffsets,
	// entrySlab, the four CSR arrays, and the two absent label sections.
	off := uint64(len(b))
	for i, n := range []uint64{nodes * 8, 0, 8, 8, 0, (nodes + 1) * 8, 0, (nodes + 1) * 8, 0, 0, 0} {
		put(16+2*i, off)
		put(17+2*i, n)
		off = (off + n + 7) &^ 7
	}
	// Header: magic, version, sections start, node count, file size and the
	// out-sorted flag; options and every other count stay zero.
	for slot, v := range map[int]uint64{0: 0x5052534d, 1: 4, 2: 408, 3: nodes, 13: off + 8, 14: 1} {
		put(slot, v)
	}
	// Generation block, slots 38-50: lineage, generation 1, and every
	// section stamped 1.
	for slot := 38; slot <= 50; slot++ {
		put(slot, 1)
	}
	return b
}

// TestOpenRejectsHostileNodeCount feeds a payload-free prefix declaring 2^46
// nodes to every loader. Each must return an error: sizing an allocation from
// the header before the bytes arrive panics with "cap out of range".
func TestOpenRejectsHostileNodeCount(t *testing.T) {
	prefix := hostileCountPrefix()
	path := writeFile(t, "hostile.prsim", prefix)
	if _, ok, err := core.ReadSnapshotGens(path); err != nil || !ok {
		t.Fatalf("prefix is not a well-formed v4 prefix: ok %v, err %v", ok, err)
	}
	if snap, err := Open(path, nil, Options{}); err == nil {
		snap.Close()
		t.Errorf("Open accepted the prefix")
	}
	if _, _, err := core.LoadSelfContained(bytes.NewReader(prefix)); err == nil {
		t.Errorf("core.LoadSelfContained accepted the prefix")
	}
	g := graph.MustFromEdges(2, []graph.Edge{{From: 0, To: 1}})
	if _, err := core.LoadIndex(bytes.NewReader(prefix), g); err == nil {
		t.Errorf("core.LoadIndex accepted the prefix")
	}
}

func TestOpenMissingFile(t *testing.T) {
	g, _, _ := buildFixture(t)
	if _, err := Open(filepath.Join(t.TempDir(), "missing.prsim"), g, Options{}); err == nil {
		t.Fatalf("missing file should fail")
	}
}

// TestOpenParityWithLoadIndex requires Open and core's heap loader to
// restore the built index's hub set, with the caller's graph.
func TestOpenParityWithLoadIndex(t *testing.T) {
	g, built, path := buildFixture(t)
	for _, l := range loaders {
		idx, release, err := l.load(path, g)
		if err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		if idx.NumHubs() != built.NumHubs() {
			t.Errorf("%s: %d hubs, built %d", l.name, idx.NumHubs(), built.NumHubs())
		}
		release()
	}
}

// TestOpenIndexFree round-trips an index with zero hubs (index-free mode):
// its hubOrder and entrySlab sections are zero-length, exercising the nil
// view edge of the zero-copy path.
func TestOpenIndexFree(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawOptions{N: 200, AvgDegree: 5, Gamma: 2.5, Directed: true, Seed: 9})
	if err != nil {
		t.Fatalf("PowerLaw: %v", err)
	}
	idx, err := core.BuildIndex(g, core.Options{Epsilon: 0.3, NumHubs: 0, Seed: 1})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	path := filepath.Join(t.TempDir(), "indexfree.prsim")
	if err := idx.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	snap, err := Open(path, g, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer snap.Close()
	if mustIndex(t, snap).NumHubs() != 0 {
		t.Errorf("index-free snapshot has %d hubs", mustIndex(t, snap).NumHubs())
	}
	if _, err := query(mustIndex(t, snap), 0); err != nil {
		t.Errorf("query on index-free snapshot: %v", err)
	}
}

func TestCloseIdempotent(t *testing.T) {
	g, _, path := buildFixture(t)
	snap, err := Open(path, g, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := snap.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := snap.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestClosedHandleFailsLoudly pins the ErrClosed contract: a closed snapshot
// must refuse to hand out its index, its graph, or a "verified OK".
func TestClosedHandleFailsLoudly(t *testing.T) {
	g, _, path := buildFixture(t)
	snap, err := Open(path, g, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := snap.Verify(); err != nil {
		t.Fatalf("Verify while open: %v", err)
	}
	if err := snap.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := snap.Index(); !errors.Is(err, ErrClosed) {
		t.Errorf("Index after Close = %v, want ErrClosed", err)
	}
	if _, err := snap.Graph(); !errors.Is(err, ErrClosed) {
		t.Errorf("Graph after Close = %v, want ErrClosed", err)
	}
	if err := snap.Verify(); !errors.Is(err, ErrClosed) {
		t.Errorf("Verify after Close = %v, want ErrClosed", err)
	}
	if snap.Retain() {
		t.Errorf("Retain after Close succeeded")
	}
}

// TestCloseDefersUnmapUntilRelease drives the reload-safety core: queries
// that retained the snapshot keep using the mapping after Close, and the
// unmap happens only when the last reference is released. (Run under -race
// in CI; touching unmapped memory would fault outright.)
func TestCloseDefersUnmapUntilRelease(t *testing.T) {
	g, _, path := buildFixture(t)
	snap, err := Open(path, g, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	idx := mustIndex(t, snap)

	const queries = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, queries)
	for i := 0; i < queries; i++ {
		if !snap.Retain() {
			t.Fatalf("Retain %d failed on open snapshot", i)
		}
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			defer snap.Release()
			<-start
			// The mapping must still be valid here even though Close has
			// (likely) already run on the main goroutine.
			if _, err := query(idx, u); err != nil {
				errs <- err
			}
		}(i * 31 % g.N())
	}
	close(start)
	if err := snap.Close(); err != nil {
		t.Fatalf("Close with retained refs: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("query after Close (retained): %v", err)
	}
	if snap.Retain() {
		t.Fatalf("Retain after full drain should fail")
	}
}

// TestWarmUp exercises the madvise warmup hint on snapshots with and without
// an embedded graph (a no-op where the sections were copied onto the heap),
// and on closed snapshots (must not fault or retain). The hint has no
// observable result beyond not crashing and not breaking queries, so the
// test pins exactly that.
func TestWarmUp(t *testing.T) {
	g, _, path := buildFixture(t)
	for _, tc := range []struct {
		name string
		open func() (*Snapshot, error)
	}{
		{"mapped with graph", func() (*Snapshot, error) { return Open(path, g, Options{}) }},
		{"self-contained", func() (*Snapshot, error) { return Open(path, nil, Options{}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap, err := tc.open()
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			snap.WarmUp()
			idx := mustIndex(t, snap)
			if _, err := query(idx, 0); err != nil {
				t.Fatalf("query after WarmUp: %v", err)
			}
			if err := snap.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			snap.WarmUp() // must be a safe no-op on a closed snapshot
		})
	}
}

// FuzzOpenMapped asserts Open returns clean errors — never panics — on
// arbitrary file contents: each input either fails to open or yields an
// index that answers Query(0). Inputs go through a real file and mapping,
// because Close unmaps what Open mapped.
func FuzzOpenMapped(f *testing.F) {
	// A small index with hubs keeps each input cheap to write, map and query,
	// so the fuzzer spends its time on mutations rather than I/O.
	g, err := gen.PowerLaw(gen.PowerLawOptions{N: 60, AvgDegree: 4, Gamma: 2.5, Directed: true, Seed: 7})
	if err != nil {
		f.Fatalf("PowerLaw: %v", err)
	}
	built, err := core.BuildIndex(g, core.Options{Epsilon: 0.1, NumHubs: 4, Seed: 3, SampleScale: 0.05})
	if err != nil {
		f.Fatalf("BuildIndex: %v", err)
	}
	wantOpts := built.Options()
	var buf bytes.Buffer
	if err := built.Save(&buf); err != nil {
		f.Fatalf("Save: %v", err)
	}
	good := buf.Bytes()
	v3, err := core.SnapshotAsV3(good)
	if err != nil {
		f.Fatalf("SnapshotAsV3: %v", err)
	}
	f.Add(good)
	f.Add(v3)
	f.Add(good[:16])
	f.Add(good[:len(good)/2])
	f.Add([]byte("not an index at all"))
	dir := f.TempDir()

	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := os.CreateTemp(dir, "fuzz-*.prsim")
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
		snap, err := Open(file.Name(), nil, Options{})
		if err != nil {
			return
		}
		defer snap.Close()
		// Query only when the options survived untampered: the header is not
		// checksummed, and a mutated epsilon can legitimately parse yet make
		// the (correct) query astronomically expensive.
		idx := mustIndex(t, snap)
		if idx.Options() != wantOpts {
			return
		}
		if _, err := query(idx, 0); err != nil {
			t.Fatalf("opened index cannot query: %v", err)
		}
	})
}
