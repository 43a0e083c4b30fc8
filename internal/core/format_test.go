package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// saveV4 returns a fixture index and its v4 snapshot bytes.
func saveV4(t testing.TB) (*Index, []byte) {
	t.Helper()
	g := fixtureGraph()
	idx, err := BuildIndex(g, Options{Epsilon: 0.05, NumHubs: 3, Seed: 2, SampleScale: 0.1})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return idx, buf.Bytes()
}

// requireSameScores asserts two indexes answer queries with bit-identical
// scores.
func requireSameScores(t *testing.T, want, got *Index) {
	t.Helper()
	for _, u := range []int{0, 3} {
		a, err := query(want, u)
		if err != nil {
			t.Fatalf("Query(%d): %v", u, err)
		}
		b, err := query(got, u)
		if err != nil {
			t.Fatalf("Query(%d): %v", u, err)
		}
		if len(a.Scores) != len(b.Scores) {
			t.Fatalf("source %d: support %d vs %d", u, len(a.Scores), len(b.Scores))
		}
		for v, s := range a.Scores {
			if s2, ok := b.Scores[v]; !ok || math.Float64bits(s) != math.Float64bits(s2) {
				t.Fatalf("source %d: score of %d is %v vs %v", u, v, s, s2)
			}
		}
	}
}

// TestLoadV3 reads a real version-3 file — the v4 snapshot with its
// generation block removed — and requires the same index as the v4 load:
// bit-identical scores and the generation stamps a fresh build synthesizes.
// A v3 file carries no stamps on disk, so ReadSnapshotGens reports ok=false.
func TestLoadV3(t *testing.T) {
	built, v4 := saveV4(t)
	v3, err := SnapshotAsV3(v4)
	if err != nil {
		t.Fatalf("SnapshotAsV3: %v", err)
	}
	if len(v3) != len(v4)-snapshotGensBytes {
		t.Fatalf("v3 file is %d bytes, want %d", len(v3), len(v4)-snapshotGensBytes)
	}
	if v, err := snapshotFileVersion(v3); err != nil || v != indexVersionV3 {
		t.Fatalf("v3 file has version %d (err %v)", v, err)
	}
	_, fromV4, err := LoadSelfContained(bytes.NewReader(v4))
	if err != nil {
		t.Fatalf("LoadSelfContained (v4): %v", err)
	}
	_, fromV3, err := LoadSelfContained(bytes.NewReader(v3))
	if err != nil {
		t.Fatalf("LoadSelfContained (v3): %v", err)
	}
	requireSameScores(t, fromV4, fromV3)
	if got, want := fromV3.Gens(), built.Gens(); got != want {
		t.Errorf("v3 gens %+v, want the fresh build's %+v", got, want)
	}
	withGraph, err := LoadIndex(bytes.NewReader(v3), built.g)
	if err != nil {
		t.Fatalf("LoadIndex (v3): %v", err)
	}
	requireSameScores(t, fromV4, withGraph)

	path := filepath.Join(t.TempDir(), "v3.prsim")
	if err := os.WriteFile(path, v3, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := ReadSnapshotGens(path); err != nil || ok {
		t.Errorf("ReadSnapshotGens(v3) = ok %v, err %v; want ok=false, nil", ok, err)
	}
}

// TestLoadIndexCorruptSnapshot feeds corrupted snapshots to both streaming
// loaders, with a supplied graph and without one; every one must fail. It
// also pins the version policy: v1 and v2 files (which never embedded the
// graph) and unknown versions fail with an error that names the version.
func TestLoadIndexCorruptSnapshot(t *testing.T) {
	g := fixtureGraph()
	_, good := saveV4(t)

	mutate := func(name string, f func(b []byte) []byte) []error {
		b := f(append([]byte(nil), good...))
		_, err := LoadIndex(bytes.NewReader(b), g)
		_, _, errSelf := LoadSelfContained(bytes.NewReader(b))
		if err == nil {
			t.Errorf("%s: corrupt input loaded without error", name)
		}
		if errSelf == nil {
			t.Errorf("%s: corrupt input loaded self-contained without error", name)
		}
		return []error{err, errSelf}
	}

	mutate("bad magic", func(b []byte) []byte {
		b[0] ^= 0xff
		return b
	})
	for _, v := range []uint64{1, 2, 99} {
		name := fmt.Sprintf("version %d", v)
		for _, err := range mutate(name, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:], v)
			return b
		}) {
			if err != nil && !strings.Contains(err.Error(), name) {
				t.Errorf("%s: error %q does not name the version", name, err)
			}
		}
	}
	mutate("checksum mismatch in entry slab", func(b []byte) []byte {
		b[len(b)-16] ^= 0x01 // last entry record, invalidates the CRC
		return b
	})
	mutate("checksum mismatch in pi", func(b []byte) []byte {
		b[snapshotSectionsStartV4+3] ^= 0x80
		return b
	})
	mutate("node count mismatch", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[24:], 9999)
		return b
	})
	mutate("oversized hub count", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[80:], 1<<60)
		return b
	})
	mutate("truncated mid-section", func(b []byte) []byte {
		return b[:len(b)/2]
	})
	mutate("hostile entry count with consistent header", func(b []byte) []byte {
		// A self-consistent header claiming a colossal entry slab must fail
		// with a truncated-read error, not a giant up-front allocation: bump
		// NumEntries, and patch the entrySlab section length and the file
		// size so the prefix still parses.
		const claimed = uint64(1) << 40
		binary.LittleEndian.PutUint64(b[96:], claimed) // NumEntries slot
		slabLenOff := snapshotHeaderBytes + sectionEntrySlab*16 + 8
		oldLen := binary.LittleEndian.Uint64(b[slabLenOff:])
		binary.LittleEndian.PutUint64(b[slabLenOff:], claimed*entryRecordBytes)
		fileSize := binary.LittleEndian.Uint64(b[104:])
		binary.LittleEndian.PutUint64(b[104:], fileSize-oldLen+claimed*entryRecordBytes)
		return b
	})
	mutate("truncated trailer", func(b []byte) []byte {
		return b[:len(b)-3]
	})
	mutate("empty", func(b []byte) []byte {
		return nil
	})
	for keep := 0; keep < snapshotSectionsStartV4; keep += 13 {
		k := keep
		mutate("truncated prefix", func(b []byte) []byte { return b[:k] })
	}
}

// TestParseSnapshotLayoutTampered drives the structural validation the mmap
// loader depends on (it cannot rely on a short read failing).
func TestParseSnapshotLayoutTampered(t *testing.T) {
	_, good := saveV4(t)

	if _, err := ParseSnapshotLayout(good); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}

	check := func(name string, f func(b []byte) []byte) {
		b := append([]byte(nil), good...)
		b = f(b)
		if _, err := ParseSnapshotLayout(b); err == nil {
			t.Errorf("%s: tampered layout accepted", name)
		}
	}
	check("short", func(b []byte) []byte { return b[:snapshotMinBytes-1] })
	check("grown file", func(b []byte) []byte { return append(b, 0) })
	check("section offset out of order", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[snapshotHeaderBytes+16:], 1<<40)
		return b
	})
	check("misaligned section offset", func(b []byte) []byte {
		off := binary.LittleEndian.Uint64(b[snapshotHeaderBytes+16:])
		binary.LittleEndian.PutUint64(b[snapshotHeaderBytes+16:], off+4)
		return b
	})
	check("section length mismatch", func(b []byte) []byte {
		l := binary.LittleEndian.Uint64(b[snapshotHeaderBytes+8:])
		binary.LittleEndian.PutUint64(b[snapshotHeaderBytes+8:], l+8)
		return b
	})
	check("file size lies", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[104:], uint64(len(b))+8)
		return b
	})
}

// TestFinishLoadRejectsBadOffsets feeds structurally plausible but internally
// inconsistent sections through the snapshot decoder, viewed and decoded
// alike, which must reject them (HubEntries would slice out of bounds
// otherwise).
func TestFinishLoadRejectsBadOffsets(t *testing.T) {
	g := fixtureGraph()
	idx, err := BuildIndex(g, Options{Epsilon: 0.05, NumHubs: 3, Seed: 2})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	l := idx.snapshotLayout()

	fresh := func() ([]float64, []int, []uint64, []uint64, []IndexEntry) {
		return append([]float64(nil), idx.pi...),
			append([]int(nil), idx.hubOrder...),
			append([]uint64(nil), idx.hubLevelPos...),
			append([]uint64(nil), idx.entryOffsets...),
			append([]IndexEntry(nil), idx.entrySlab...)
	}
	// decode encodes the sections as Save writes them and decodes them with
	// and without viewing; it returns the first error, or nil when both
	// accept.
	decode := func(pi []float64, hubs []int, hlp, eo []uint64, slab []IndexEntry) error {
		src := &Index{g: g, pi: pi, hubOrder: hubs, hubLevelPos: hlp, entryOffsets: eo, entrySlab: slab}
		var secs SnapshotSections
		for i := range secs {
			var buf bytes.Buffer
			enc := newSectionEncoder(&buf)
			src.writeSection(enc, i)
			if err := enc.finish(); err != nil {
				t.Fatalf("encoding section %d: %v", i, err)
			}
			secs[i] = buf.Bytes()[:l.Sections[i].Len]
		}
		for _, mapped := range []bool{false, true} {
			if _, _, _, err := DecodeSnapshot(&l, secs, g, mapped); err != nil {
				return err
			}
		}
		return nil
	}

	if err := decode(fresh()); err != nil {
		t.Fatalf("valid sections rejected: %v", err)
	}

	pi, hubs, hlp, eo, slab := fresh()
	hlp[len(hlp)-1]++ // claims more level slots than entryOffsets has
	if err := decode(pi, hubs, hlp, eo, slab); err == nil {
		t.Errorf("inflated hubLevelPos accepted")
	}

	pi, hubs, hlp, eo, slab = fresh()
	if len(eo) > 1 {
		eo[0], eo[len(eo)-1] = eo[len(eo)-1], eo[0] // non-monotonic
		if err := decode(pi, hubs, hlp, eo, slab); err == nil {
			t.Errorf("non-monotonic entryOffsets accepted")
		}
	}

	pi, hubs, hlp, eo, slab = fresh()
	hubs[0] = g.N() + 5 // hub id out of range
	if err := decode(pi, hubs, hlp, eo, slab); err == nil {
		t.Errorf("out-of-range hub accepted")
	}

	pi, hubs, hlp, eo, slab = fresh()
	if len(hubs) >= 2 {
		hubs[1] = hubs[0] // duplicate hub
		if err := decode(pi, hubs, hlp, eo, slab); err == nil {
			t.Errorf("duplicate hub accepted")
		}
	}

	if len(idx.entrySlab) == 0 {
		t.Fatal("fixture index has no entries")
	}
	for _, node := range []int32{int32(g.N()), 1 << 30, -16} {
		pi, hubs, hlp, eo, slab = fresh()
		slab[len(slab)-1].Node = node // queries index score arrays with it
		if err := decode(pi, hubs, hlp, eo, slab); err == nil {
			t.Errorf("entry naming node %d of %d accepted", node, g.N())
		}
	}
}

// TestAsSliceIgnoresGarbageKeys pins the memory-safety guard for score maps
// polluted by a corrupt (unverified) snapshot: out-of-range node ids,
// including negative ones from a u32→int32 reinterpretation, must be dropped
// rather than indexed.
func TestAsSliceIgnoresGarbageKeys(t *testing.T) {
	r := &Result{Scores: map[int]float64{-1: 0.5, 0: 0.25, 2: 0.75, 7: 0.9}}
	out := r.AsSlice(3)
	if len(out) != 3 || out[0] != 0.25 || out[2] != 0.75 {
		t.Errorf("AsSlice = %v, want [0.25 0 0.75]", out)
	}
}

// hostileCountPrefix is a v4 prefix — header, section table and generation
// block, no payload — declaring 2^46 nodes, with a section table and file
// size consistent with that count. A loader that sizes anything from the
// header before the bytes arrive fails on it with a giant allocation.
func hostileCountPrefix() []byte {
	l := SnapshotLayout{Version: indexVersionV4, NNodes: 1 << 46, OutSorted: true}
	l.Gens = SnapshotGens{Lineage: 1, Generation: 1}
	for i := range l.Gens.Sections {
		l.Gens.Sections[i] = 1
	}
	off := l.sectionsStart()
	for i, n := range l.sectionLens() {
		l.Sections[i] = Section{Off: off, Len: n}
		off = align8(off + n)
	}
	l.FileSize = off + snapshotTrailerBytes
	return encodeSnapshotPrefix(l)
}

// FuzzLoadIndex asserts the heap loaders return clean errors — never
// panic — on arbitrary input, with a supplied graph (LoadIndex) and without
// one (LoadSelfContained). Seeds include a valid v4 snapshot, its v3 twin,
// assorted prefixes/garbage, and a prefix declaring 2^46 nodes.
func FuzzLoadIndex(f *testing.F) {
	g := fixtureGraph()
	idx, err := BuildIndex(g, Options{Epsilon: 0.1, NumHubs: 2, Seed: 1, SampleScale: 0.01})
	if err != nil {
		f.Fatalf("BuildIndex: %v", err)
	}
	wantOpts := idx.Options()
	var v4 bytes.Buffer
	if err := idx.Save(&v4); err != nil {
		f.Fatalf("Save: %v", err)
	}
	v3, err := SnapshotAsV3(v4.Bytes())
	if err != nil {
		f.Fatalf("SnapshotAsV3: %v", err)
	}
	f.Add(v4.Bytes())
	f.Add(v4.Bytes()[:16])
	f.Add(v4.Bytes()[:snapshotSectionsStartV4])
	f.Add([]byte("not an index at all"))
	f.Add([]byte{})
	f.Add(v4.Bytes()[:v4.Len()-9])
	f.Add(v3)
	f.Add(hostileCountPrefix())

	// Whatever parsed must be internally consistent enough to query. Only
	// query when the options survived untampered: the header is not
	// checksummed, and a mutated epsilon can legitimately parse yet make the
	// (correct) query astronomically expensive.
	check := func(t *testing.T, idx *Index) {
		if idx.Options() != wantOpts {
			return
		}
		if _, qerr := query(idx, 0); qerr != nil {
			t.Fatalf("loaded index cannot query: %v", qerr)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if idx, err := LoadIndex(bytes.NewReader(data), g); err == nil {
			check(t, idx)
		}
		if _, idx, err := LoadSelfContained(bytes.NewReader(data)); err == nil {
			check(t, idx)
		}
	})
}
