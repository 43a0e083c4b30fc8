package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"os"
)

// Snapshot v4 is the flat, mmap-friendly, self-contained on-disk format: one
// file holds the whole serving state — the hub index *and* the graph's CSR
// adjacency structure (plus the optional node-label table) — so a server can
// cold-start with a single O(header) mapping instead of re-parsing an edge
// list:
//
//	header        128 bytes: 16 little-endian u64 slots (magic, version,
//	              sections start, node count, option bits, section counts,
//	              file size, flags, edge count)
//	section table 11 × 16 bytes: (offset, byte length) per section
//	generations   104 bytes (v4 only): lineage u64, generation u64, and one
//	              u64 per section stamping the generation that last rewrote
//	              its bytes (the provenance delta snapshots are keyed on)
//	sections      each starting on an 8-byte boundary (zero padding between
//	              sections whose length is not a multiple of 8):
//	                pi            nNodes    × 8  (f64 bits)
//	                hubOrder      numHubs   × 8  (u64 node ids)
//	                hubLevelPos   numHubs+1 × 8  (u64 prefix sums of level counts)
//	                entryOffsets  numLevels+1 × 8 (u64 prefix sums into slab)
//	                entrySlab     numEntries × 16 (u32 node, u32 zero, f64 bits)
//	                graphOutOff   nNodes+1  × 8  (i64 prefix sums into outAdj)
//	                graphOutAdj   nEdges    × 4  (i32 out-neighbor ids)
//	                graphInOff    nNodes+1  × 8  (i64 prefix sums into inAdj)
//	                graphInAdj    nEdges    × 4  (i32 in-neighbor ids)
//	                labelOffsets  nNodes+1  × 8  (u64 prefix sums into blob; absent
//	                                              when the graph is unlabelled)
//	                labelBlob     concatenated UTF-8 label bytes
//	trailer       8 bytes: CRC-32C (Castagnoli) of all bytes between the
//	              section table and the trailer (padding included), in the low
//	              32 bits of a u64
//
// Every field is little-endian and every section starts on a multiple of 8,
// so a 64-bit little-endian process can reconstruct the index's slices *and*
// the graph's adjacency arrays as zero-copy views over an mmap of the file.
// The graph is written with its out-adjacency already sorted by head
// in-degree (flag bit 0), because a read-only mapping cannot be re-sorted in
// place.
//
// Version 4 extends v3 with a generation block between the section table and
// the sections: a lineage id (shared by every snapshot derived from one
// BuildIndex by chained ApplyUpdates), the snapshot's generation counter, and
// a per-section generation stamp recording the last generation that rewrote
// each section's bytes. The stamps are what make delta snapshots possible — a
// delta file (see delta.go) ships only the sections whose stamp is newer than
// the receiver's generation and splices the rest out of the base file.
//
// Save always writes version 4. Readers accept version 3 too — the same file
// without the generation block, which loads with synthesized stamps (see
// ensureGens) but cannot serve as a delta base until rewritten. Versions 1
// and 2 did not embed the graph and are rejected with an error naming the
// version; re-save such files with a build that still reads them.
const (
	indexMagic     = 0x5052534d // "PRSM"
	indexVersionV3 = 3
	indexVersionV4 = 4

	snapshotHeaderBytes  = 128
	snapshotTrailerBytes = 8

	// v3 layout: 11 sections, each aligned up to the next 8-byte boundary.
	snapshotSectionCount  = 11
	snapshotTableBytes    = snapshotSectionCount * 16
	snapshotSectionsStart = snapshotHeaderBytes + snapshotTableBytes

	// v4 layout: v3 plus the generation block (lineage u64, generation u64,
	// one u64 stamp per section) between the section table and the sections.
	snapshotGensBytes       = (2 + snapshotSectionCount) * 8
	snapshotSectionsStartV4 = snapshotSectionsStart + snapshotGensBytes

	// entryRecordBytes is the serialized size of one IndexEntry record.
	entryRecordBytes = 16

	// snapshotMinBytes is the smallest structurally valid v3 file.
	snapshotMinBytes = snapshotSectionsStart + snapshotTrailerBytes

	// snapshotMaxCount bounds every element count read from a header so that
	// count*recordSize arithmetic cannot overflow uint64 and hostile headers
	// cannot request absurd allocations before length cross-checks run.
	snapshotMaxCount = 1 << 48

	// Header flag bits (slot 14).
	snapshotFlagOutSorted = 1 << 0 // graph out-adjacency sorted by head in-degree
	snapshotFlagLabels    = 1 << 1 // label table present
)

// Section indices into SnapshotLayout.Sections, in file order: the five index
// sections, then the graph's CSR arrays and label table.
const (
	sectionPi = iota
	sectionHubOrder
	sectionHubLevelPos
	sectionEntryOffsets
	sectionEntrySlab
	sectionGraphOutOff
	sectionGraphOutAdj
	sectionGraphInOff
	sectionGraphInAdj
	sectionLabelOffsets
	sectionLabelBlob
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Section locates one snapshot section inside the file.
type Section struct {
	Off uint64 // byte offset from the start of the file; multiple of 8
	Len uint64 // byte length
}

// End returns the first byte past the section.
func (s Section) End() uint64 { return s.Off + s.Len }

// align8 rounds x up to the next multiple of 8.
func align8(x uint64) uint64 { return (x + 7) &^ 7 }

// SnapshotGens is the v4 generation block: the provenance metadata delta
// snapshots are keyed on. Lineage identifies the BuildIndex ancestry — every
// index derived from one build by chained ApplyUpdates keeps the same lineage,
// and deltas between different lineages are refused. Generation counts the
// ApplyUpdates steps since the build (1 for a fresh build), and Sections[i]
// records the generation that last rewrote section i's bytes; a section is
// byte-identical across two snapshots of one lineage iff its stamps match.
type SnapshotGens struct {
	Lineage    uint64
	Generation uint64
	Sections   [snapshotSectionCount]uint64
}

// SnapshotLayout is the decoded header and section table of a v3 or v4
// snapshot. It is exported (within the module) so internal/snapshot can locate
// the sections of an mmap'd file without re-implementing the format.
type SnapshotLayout struct {
	Version    uint64
	NNodes     uint64
	NumEdges   uint64
	Opts       Options
	NumHubs    uint64
	NumLevels  uint64 // total level slots across all hubs
	NumEntries uint64
	FileSize   uint64
	OutSorted  bool // graph serialized with sorted out-adjacency
	HasLabels  bool // label table present
	LabelBytes uint64
	Gens       SnapshotGens // v4 only; zero for v3
	Sections   [snapshotSectionCount]Section
}

// HasGens reports whether the snapshot carries the v4 generation block.
func (l *SnapshotLayout) HasGens() bool { return l.Version >= indexVersionV4 }

// sectionsStart returns the first byte past the fixed prefix (header, section
// table, and — for v4 — the generation block).
func (l *SnapshotLayout) sectionsStart() uint64 {
	if l.Version == indexVersionV3 {
		return snapshotSectionsStart
	}
	return snapshotSectionsStartV4
}

// HotSectionIndices returns the indices (into Sections) of the sections
// queries touch first — the index entry slab and the graph's CSR offset and
// adjacency arrays — for warmup hints (madvise readahead). The layout owns
// this list so a future section reordering cannot silently desynchronize
// callers that would otherwise hard-code indices; indices rather than offsets,
// because a delta-backed open's sections live in two files.
func (l *SnapshotLayout) HotSectionIndices() []int {
	return []int{sectionEntrySlab, sectionGraphOutOff, sectionGraphOutAdj, sectionGraphInOff, sectionGraphInAdj}
}

// EntrySlabIndex returns the entry slab's index into Sections: the
// snapshot's largest hot structure and the target for transparent-huge-page
// advice on large indexes.
func (l *SnapshotLayout) EntrySlabIndex() int { return sectionEntrySlab }

// sectionLens returns the required byte length of every section in file
// order.
func (l *SnapshotLayout) sectionLens() [snapshotSectionCount]uint64 {
	lens := [snapshotSectionCount]uint64{
		sectionPi:           l.NNodes * 8,
		sectionHubOrder:     l.NumHubs * 8,
		sectionHubLevelPos:  (l.NumHubs + 1) * 8,
		sectionEntryOffsets: (l.NumLevels + 1) * 8,
		sectionEntrySlab:    l.NumEntries * entryRecordBytes,
		sectionGraphOutOff:  (l.NNodes + 1) * 8,
		sectionGraphOutAdj:  l.NumEdges * 4,
		sectionGraphInOff:   (l.NNodes + 1) * 8,
		sectionGraphInAdj:   l.NumEdges * 4,
	}
	if l.HasLabels {
		lens[sectionLabelOffsets] = (l.NNodes + 1) * 8
		lens[sectionLabelBlob] = l.LabelBytes
	}
	return lens
}

// ensureGens initializes the generation block for an index that does not have
// one yet: a fresh build, or an index loaded from a v3 snapshot. The lineage
// is derived deterministically from the graph fingerprint, the build options
// and the hub count, so re-building (or re-loading a v3 save of) the same
// index yields the same lineage and deltas between such snapshots still work.
func (idx *Index) ensureGens() {
	if idx.gens.Generation != 0 {
		return
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(idx.g.Checksum()))
	put(math.Float64bits(idx.opts.C))
	put(math.Float64bits(idx.opts.Epsilon))
	put(math.Float64bits(idx.opts.Delta))
	put(uint64(idx.opts.MaxLevels))
	put(idx.opts.Seed)
	put(math.Float64bits(idx.opts.SampleScale))
	// The realized hub count, not the NumHubs request, which snapshots do not
	// carry.
	put(uint64(len(idx.hubOrder)))
	idx.gens = SnapshotGens{Lineage: h.Sum64(), Generation: 1}
	for i := range idx.gens.Sections {
		idx.gens.Sections[i] = 1
	}
}

// snapshotLayout computes the v4 layout for this index and its graph:
// sections starting right after the generation block, each aligned up to an
// 8-byte boundary.
func (idx *Index) snapshotLayout() SnapshotLayout {
	g := idx.g
	idx.ensureGens()
	l := SnapshotLayout{
		Version:    indexVersionV4,
		NNodes:     uint64(g.N()),
		NumEdges:   uint64(g.M()),
		Opts:       idx.opts,
		NumHubs:    uint64(len(idx.hubOrder)),
		NumLevels:  uint64(len(idx.entryOffsets) - 1),
		NumEntries: uint64(len(idx.entrySlab)),
		OutSorted:  g.OutSortedByInDegree(),
		Gens:       idx.gens,
	}
	if labels := g.Labels(); labels != nil {
		l.HasLabels = true
		for _, s := range labels {
			l.LabelBytes += uint64(len(s))
		}
	}
	lens := l.sectionLens()
	off := l.sectionsStart()
	for i, n := range lens {
		l.Sections[i] = Section{Off: off, Len: n}
		off = align8(off + n)
	}
	l.FileSize = off + snapshotTrailerBytes
	return l
}

// encodeSnapshotPrefix renders the header + section table for l's version.
func encodeSnapshotPrefix(l SnapshotLayout) []byte {
	buf := make([]byte, l.sectionsStart())
	var flags uint64
	if l.OutSorted {
		flags |= snapshotFlagOutSorted
	}
	if l.HasLabels {
		flags |= snapshotFlagLabels
	}
	slots := []uint64{
		indexMagic,
		l.Version,
		l.sectionsStart(),
		l.NNodes,
		math.Float64bits(l.Opts.C),
		math.Float64bits(l.Opts.Epsilon),
		math.Float64bits(l.Opts.Delta),
		uint64(l.Opts.MaxLevels),
		l.Opts.Seed,
		math.Float64bits(l.Opts.SampleScale),
		l.NumHubs,
		l.NumLevels,
		l.NumEntries,
		l.FileSize,
		flags,
		l.NumEdges,
	}
	for i, v := range slots {
		binary.LittleEndian.PutUint64(buf[i*8:], v)
	}
	for i, s := range l.Sections {
		base := snapshotHeaderBytes + i*16
		binary.LittleEndian.PutUint64(buf[base:], s.Off)
		binary.LittleEndian.PutUint64(buf[base+8:], s.Len)
	}
	if l.HasGens() {
		base := snapshotHeaderBytes + snapshotTableBytes
		binary.LittleEndian.PutUint64(buf[base:], l.Gens.Lineage)
		binary.LittleEndian.PutUint64(buf[base+8:], l.Gens.Generation)
		for i, gen := range l.Gens.Sections {
			binary.LittleEndian.PutUint64(buf[base+16+i*8:], gen)
		}
	}
	return buf
}

// snapshotPrefixBytes returns the fixed-prefix size of the given version; it
// is where every reader rejects a version it cannot load.
func snapshotPrefixBytes(version uint64) (int, error) {
	switch version {
	case indexVersionV3:
		return snapshotSectionsStart, nil
	case indexVersionV4:
		return snapshotSectionsStartV4, nil
	default:
		return 0, fmt.Errorf("core: unsupported snapshot version %d (this build reads versions 3 and 4)", version)
	}
}

// parseSnapshotPrefix decodes and structurally validates a header + section
// table. prefix must be exactly snapshotPrefixBytes(version) long for the
// version named in its second slot. The caller still has to check FileSize
// against the actual file and verify the checksum trailer.
func parseSnapshotPrefix(prefix []byte) (*SnapshotLayout, error) {
	if len(prefix) < 16 {
		return nil, fmt.Errorf("core: snapshot prefix is %d bytes, want at least 16", len(prefix))
	}
	slot := func(i int) uint64 { return binary.LittleEndian.Uint64(prefix[i*8:]) }
	if slot(0) != indexMagic {
		return nil, fmt.Errorf("core: not a PRSim index file (magic %#x)", slot(0))
	}
	version := slot(1)
	want, err := snapshotPrefixBytes(version)
	if err != nil {
		return nil, err
	}
	if len(prefix) != want {
		return nil, fmt.Errorf("core: v%d snapshot prefix is %d bytes, want %d", version, len(prefix), want)
	}
	if s := slot(2); s != uint64(want) {
		return nil, fmt.Errorf("core: snapshot sections start at %d, want %d", s, want)
	}
	flags := slot(14)
	l := &SnapshotLayout{
		Version: version,
		NNodes:  slot(3),
		Opts: Options{
			C:           math.Float64frombits(slot(4)),
			Epsilon:     math.Float64frombits(slot(5)),
			Delta:       math.Float64frombits(slot(6)),
			MaxLevels:   int(slot(7)),
			Seed:        slot(8),
			SampleScale: math.Float64frombits(slot(9)),
		},
		NumHubs:    slot(10),
		NumLevels:  slot(11),
		NumEntries: slot(12),
		FileSize:   slot(13),
		NumEdges:   slot(15),
		OutSorted:  flags&snapshotFlagOutSorted != 0,
		HasLabels:  flags&snapshotFlagLabels != 0,
	}
	if l.HasGens() {
		base := snapshotHeaderBytes + snapshotTableBytes
		l.Gens.Lineage = binary.LittleEndian.Uint64(prefix[base:])
		l.Gens.Generation = binary.LittleEndian.Uint64(prefix[base+8:])
		for i := range l.Gens.Sections {
			l.Gens.Sections[i] = binary.LittleEndian.Uint64(prefix[base+16+i*8:])
		}
		if l.Gens.Generation == 0 {
			return nil, fmt.Errorf("core: snapshot generation is 0, want >= 1")
		}
		for i, gen := range l.Gens.Sections {
			if gen == 0 || gen > l.Gens.Generation {
				return nil, fmt.Errorf("core: snapshot section %d has generation %d outside [1,%d]",
					i, gen, l.Gens.Generation)
			}
		}
	}
	for _, c := range []uint64{l.NNodes, l.NumHubs, l.NumLevels, l.NumEntries, l.NumEdges} {
		if c > snapshotMaxCount {
			return nil, fmt.Errorf("core: snapshot element count %d exceeds format limit", c)
		}
	}
	if l.NumHubs > l.NNodes {
		return nil, fmt.Errorf("core: snapshot hub count %d exceeds node count %d", l.NumHubs, l.NNodes)
	}
	// The label blob is the one variable-length section: its length comes from
	// the table itself, bounded by the declared file size.
	if l.HasLabels {
		base := snapshotHeaderBytes + sectionLabelBlob*16
		l.LabelBytes = binary.LittleEndian.Uint64(prefix[base+8:])
		if l.LabelBytes > l.FileSize {
			return nil, fmt.Errorf("core: snapshot label blob of %d bytes exceeds file size %d", l.LabelBytes, l.FileSize)
		}
	}
	wantLens := l.sectionLens()
	end := l.sectionsStart()
	for i := range l.Sections {
		base := snapshotHeaderBytes + i*16
		l.Sections[i] = Section{
			Off: binary.LittleEndian.Uint64(prefix[base:]),
			Len: binary.LittleEndian.Uint64(prefix[base+8:]),
		}
		s := l.Sections[i]
		if s.Len != wantLens[i] {
			return nil, fmt.Errorf("core: snapshot section %d is %d bytes, want %d", i, s.Len, wantLens[i])
		}
		if s.Off != end {
			return nil, fmt.Errorf("core: snapshot section %d at offset %d, want %d", i, s.Off, end)
		}
		if s.Off%8 != 0 {
			return nil, fmt.Errorf("core: snapshot section %d misaligned at offset %d", i, s.Off)
		}
		end = align8(s.End())
	}
	if l.FileSize != end+snapshotTrailerBytes {
		return nil, fmt.Errorf("core: snapshot file size %d does not match sections (want %d)", l.FileSize, end+snapshotTrailerBytes)
	}
	return l, nil
}

// ReadSnapshotGens reads the generation block of a saved snapshot without
// loading (or mapping) the file: just the fixed prefix is read and
// structurally validated. ok reports whether the file carries generation
// stamps at all — false for v3 files, which cannot serve as the base of a
// delta and need a full rewrite to become one. Serving layers use this to
// learn what base generation to publish deltas against.
func ReadSnapshotGens(path string) (gens SnapshotGens, ok bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return SnapshotGens{}, false, err
	}
	defer f.Close()
	_, l, err := readSnapshotPrefix(f)
	if err != nil {
		return SnapshotGens{}, false, err
	}
	return l.Gens, l.HasGens(), nil
}

// readSnapshotPrefix reads the fixed prefix at the start of r, sized by the
// version in its first 16 bytes, and validates it structurally. It returns
// the prefix bytes and their layout.
func readSnapshotPrefix(r io.Reader) ([]byte, *SnapshotLayout, error) {
	var head [16]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, nil, fmt.Errorf("core: reading snapshot prelude: %w", err)
	}
	version, err := snapshotFileVersion(head[:])
	if err != nil {
		return nil, nil, err
	}
	prefixLen, err := snapshotPrefixBytes(version)
	if err != nil {
		return nil, nil, err
	}
	prefix := make([]byte, prefixLen)
	copy(prefix, head[:])
	if _, err := io.ReadFull(r, prefix[16:]); err != nil {
		return nil, nil, fmt.Errorf("core: reading snapshot prefix: %w", err)
	}
	l, err := parseSnapshotPrefix(prefix)
	if err != nil {
		return nil, nil, err
	}
	return prefix, l, nil
}

// snapshotFileVersion inspects the first 16 bytes of a saved index and
// returns its format version. It errors when the data is too short or the
// magic does not match; it does not judge whether the version is supported.
func snapshotFileVersion(data []byte) (uint64, error) {
	if len(data) < 16 {
		return 0, fmt.Errorf("core: snapshot shorter than its 16-byte prelude")
	}
	if m := binary.LittleEndian.Uint64(data[:8]); m != indexMagic {
		return 0, fmt.Errorf("core: not a PRSim index file (magic %#x)", m)
	}
	return binary.LittleEndian.Uint64(data[8:16]), nil
}

// ParseSnapshotLayout decodes and validates the layout of a complete
// in-memory (typically mmap'd) v3 or v4 snapshot. It checks structure only;
// call VerifyChecksum to validate the section payload.
func ParseSnapshotLayout(data []byte) (*SnapshotLayout, error) {
	version, err := snapshotFileVersion(data)
	if err != nil {
		return nil, err
	}
	prefixLen, err := snapshotPrefixBytes(version)
	if err != nil {
		return nil, err
	}
	if len(data) < prefixLen+snapshotTrailerBytes {
		return nil, fmt.Errorf("core: snapshot is %d bytes, below the v%d minimum %d",
			len(data), version, prefixLen+snapshotTrailerBytes)
	}
	l, err := parseSnapshotPrefix(data[:prefixLen])
	if err != nil {
		return nil, err
	}
	if l.FileSize != uint64(len(data)) {
		return nil, fmt.Errorf("core: snapshot header says %d bytes but file has %d", l.FileSize, len(data))
	}
	return l, nil
}

// SnapshotAsV3 re-encodes a complete v4 snapshot as the v3 file of the same
// index and graph. v3 is v4 without the generation block, so the block is
// dropped, the version slot says 3, and the sections start, every section
// offset and the file size move down by the block's length; the payload and
// its CRC trailer carry over unchanged. Save writes only v4, so this is how
// the v3 reader gets a real file to read.
func SnapshotAsV3(v4 []byte) ([]byte, error) {
	l, err := ParseSnapshotLayout(v4)
	if err != nil {
		return nil, err
	}
	if l.Version != indexVersionV4 {
		return nil, fmt.Errorf("core: snapshot is v%d, want v%d", l.Version, indexVersionV4)
	}
	l.Version = indexVersionV3
	for i := range l.Sections {
		l.Sections[i].Off -= snapshotGensBytes
	}
	l.FileSize -= snapshotGensBytes
	return append(encodeSnapshotPrefix(*l), v4[snapshotSectionsStartV4:]...), nil
}

// VerifyChecksum recomputes the CRC-32C of the section payload and compares
// it against the trailer. data must be the complete snapshot.
func (l *SnapshotLayout) VerifyChecksum(data []byte) error {
	if uint64(len(data)) != l.FileSize {
		return fmt.Errorf("core: snapshot is %d bytes but layout says %d", len(data), l.FileSize)
	}
	payload := data[l.sectionsStart() : l.FileSize-snapshotTrailerBytes]
	want := binary.LittleEndian.Uint64(data[l.FileSize-snapshotTrailerBytes:])
	got := uint64(crc32.Checksum(payload, crcTable))
	if got != want {
		return fmt.Errorf("core: snapshot checksum mismatch: file says %#x, computed %#x", want, got)
	}
	return nil
}
