package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
	"strconv"
	"unsafe"

	"prsim/internal/graph"
)

// Save writes the index and its graph to w in the self-contained snapshot v4
// format documented in format.go: one file holding the hub index, the graph's
// CSR adjacency arrays, the node-label table when the graph is labelled, and
// the generation block delta snapshots are keyed on.
// Load with LoadSelfContained (no separate graph needed), with LoadIndex (the
// graph supplied separately is cross-checked), or zero-copy via
// internal/snapshot.
//
// The graph is serialized with its out-adjacency sorted by head in-degree —
// the order queries require — because a memory-mapped reader cannot re-sort a
// read-only mapping in place; Save sorts first if needed.
func (idx *Index) Save(w io.Writer) error {
	if !idx.g.OutSortedByInDegree() {
		idx.g.SortOutByInDegree()
	}
	l := idx.snapshotLayout()
	bw := bufio.NewWriterSize(w, 64<<10)
	if _, err := bw.Write(encodeSnapshotPrefix(l)); err != nil {
		return fmt.Errorf("core: saving index: %w", err)
	}
	enc := newSectionEncoder(bw)
	for i := 0; i < snapshotSectionCount; i++ {
		idx.writeSection(enc, i)
	}
	return finishSave(bw, enc)
}

// writeSection emits one section's payload plus its trailing alignment
// padding. It is the single source of truth for section bytes: Save streams
// all eleven in order and WriteDelta an arbitrary subset — so a section
// shipped in a delta is byte-identical to the same section in a full save.
func (idx *Index) writeSection(enc *sectionEncoder, section int) {
	switch section {
	case sectionPi:
		for _, p := range idx.pi {
			enc.u64(math.Float64bits(p))
		}
	case sectionHubOrder:
		for _, h := range idx.hubOrder {
			enc.u64(uint64(h))
		}
	case sectionHubLevelPos:
		for _, v := range idx.hubLevelPos {
			enc.u64(v)
		}
	case sectionEntryOffsets:
		for _, v := range idx.entryOffsets {
			enc.u64(v)
		}
	case sectionEntrySlab:
		for _, e := range idx.entrySlab {
			// 16-byte record: u32 node, u32 zero padding, f64 reserve bits.
			enc.u64(uint64(uint32(e.Node)))
			enc.u64(math.Float64bits(e.Reserve))
		}
	case sectionGraphOutOff:
		outOff, _, _, _ := idx.g.CSR()
		for _, v := range outOff {
			enc.u64(uint64(v))
		}
	case sectionGraphOutAdj:
		_, outAdj, _, _ := idx.g.CSR()
		for _, v := range outAdj {
			enc.u32(uint32(v))
		}
	case sectionGraphInOff:
		_, _, inOff, _ := idx.g.CSR()
		for _, v := range inOff {
			enc.u64(uint64(v))
		}
	case sectionGraphInAdj:
		_, _, _, inAdj := idx.g.CSR()
		for _, v := range inAdj {
			enc.u32(uint32(v))
		}
	case sectionLabelOffsets:
		if labels := idx.g.Labels(); labels != nil {
			off := uint64(0)
			for _, s := range labels {
				enc.u64(off)
				off += uint64(len(s))
			}
			enc.u64(off)
		}
	case sectionLabelBlob:
		for _, s := range idx.g.Labels() {
			enc.raw([]byte(s))
		}
	}
	enc.pad()
}

// finishSave flushes the encoder and appends the CRC trailer.
func finishSave(bw *bufio.Writer, enc *sectionEncoder) error {
	if err := enc.finish(); err != nil {
		return fmt.Errorf("core: saving index: %w", err)
	}
	var trailer [snapshotTrailerBytes]byte
	binary.LittleEndian.PutUint64(trailer[:], uint64(enc.crc.Sum32()))
	if _, err := bw.Write(trailer[:]); err != nil {
		return fmt.Errorf("core: saving index: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("core: saving index: %w", err)
	}
	return nil
}

// sectionEncoder batches little-endian writes and feeds every flushed chunk
// to both the output and the running section checksum. Errors are sticky, so
// callers check once at the end instead of on every element.
type sectionEncoder struct {
	w       io.Writer
	crc     hash.Hash32
	buf     []byte
	written uint64 // total payload bytes emitted, for 8-byte padding
	err     error
}

func newSectionEncoder(w io.Writer) *sectionEncoder {
	return &sectionEncoder{w: w, crc: crc32.New(crcTable), buf: make([]byte, 0, 64<<10)}
}

// ensure flushes if fewer than n bytes of buffer room remain.
func (e *sectionEncoder) ensure(n int) {
	if len(e.buf)+n > cap(e.buf) {
		e.flush()
	}
}

func (e *sectionEncoder) u64(v uint64) {
	e.ensure(8)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
	e.written += 8
}

func (e *sectionEncoder) u32(v uint32) {
	e.ensure(4)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
	e.written += 4
}

// raw appends arbitrary bytes (the label blob).
func (e *sectionEncoder) raw(p []byte) {
	for len(p) > 0 {
		e.ensure(1)
		n := cap(e.buf) - len(e.buf)
		if n > len(p) {
			n = len(p)
		}
		e.buf = append(e.buf, p[:n]...)
		p = p[n:]
		e.written += uint64(n)
	}
}

// pad writes zero bytes up to the next 8-byte boundary, matching the aligned
// section offsets computed by snapshotLayout.
func (e *sectionEncoder) pad() {
	for e.written%8 != 0 {
		e.ensure(1)
		e.buf = append(e.buf, 0)
		e.written++
	}
}

func (e *sectionEncoder) flush() {
	if e.err != nil || len(e.buf) == 0 {
		e.buf = e.buf[:0]
		return
	}
	if _, err := e.w.Write(e.buf); err != nil {
		e.err = err
	}
	e.crc.Write(e.buf)
	e.buf = e.buf[:0]
}

func (e *sectionEncoder) finish() error {
	e.flush()
	return e.err
}

// SaveFile writes the index to the given path.
func (idx *Index) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := idx.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadIndex reads a v4 (or v3) snapshot previously written with Save; v1 and
// v2 files are rejected. The graph must be the same graph (same node count
// and edges) the index was built from: the whole file is checksummed and the
// embedded graph's shape is cross-checked against g, but g remains the graph
// queries run on. To reconstruct the graph *from* the file, use
// LoadSelfContained. To use a saved file in place instead of copying it onto
// the heap, open it with internal/snapshot.
func LoadIndex(r io.Reader, g *graph.Graph) (*Index, error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	data, err := readSnapshot(r)
	if err != nil {
		return nil, err
	}
	_, idx, err := decodeOwned(data, g)
	return idx, err
}

// LoadIndexFile reads an index from the given path, like LoadIndex.
func LoadIndexFile(path string, g *graph.Graph) (*Index, error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	// os.ReadFile sizes its buffer from the file, so the bytes arrive in one
	// allocation instead of readSnapshot's doubling ones.
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	_, idx, err := decodeOwned(data, g)
	return idx, err
}

// LoadSelfContained reads a v4 (or v3) snapshot and reconstructs both the
// graph and the index from it.
func LoadSelfContained(r io.Reader) (*graph.Graph, *Index, error) {
	data, err := readSnapshot(r)
	if err != nil {
		return nil, nil, err
	}
	return decodeOwned(data, nil)
}

// readSnapshot reads a whole snapshot from r: the fixed prefix first, then as
// many bytes as its header declares. The buffer grows only as bytes arrive,
// at most doubling each time, so a header declaring an enormous file costs a
// truncated-read error, not an allocation of the declared size.
func readSnapshot(r io.Reader) ([]byte, error) {
	data, l, err := readSnapshotPrefix(r)
	if err != nil {
		return nil, err
	}
	if l.FileSize > math.MaxInt {
		return nil, fmt.Errorf("core: snapshot of %d bytes exceeds this platform's address space", l.FileSize)
	}
	for uint64(len(data)) < l.FileSize {
		next := make([]byte, min(l.FileSize, 2*uint64(len(data))+1<<20))
		n := copy(next, data)
		if _, err := io.ReadFull(r, next[n:]); err != nil {
			return nil, fmt.Errorf("core: loading index: %w", err)
		}
		data = next
	}
	return data, nil
}

// decodeOwned checks a whole in-memory snapshot's layout and checksum and
// decodes it into slices the index owns, so data may be dropped afterwards.
func decodeOwned(data []byte, g *graph.Graph) (*graph.Graph, *Index, error) {
	l, err := ParseSnapshotLayout(data)
	if err != nil {
		return nil, nil, err
	}
	if err := l.VerifyChecksum(data); err != nil {
		return nil, nil, err
	}
	var secs SnapshotSections
	for i, s := range l.Sections {
		secs[i] = data[s.Off:s.End()]
	}
	g, idx, _, err := DecodeSnapshot(l, secs, g, false)
	return g, idx, err
}

// SnapshotSections holds the bytes of a snapshot's sections in file order,
// each exactly its layout's length (padding excluded). A delta-backed open
// takes each section from whichever of its two files holds it.
type SnapshotSections [snapshotSectionCount][]byte

// hostViewsSections reports whether section bytes can serve as Go slices in
// place: a 64-bit little-endian host, where int is the on-disk u64, and
// IndexEntry is laid out like the on-disk 16-byte record (int32 node at 0,
// float64 reserve at 8).
var hostViewsSections = strconv.IntSize == 64 &&
	binary.NativeEndian.Uint16([]byte{1, 0}) == 1 &&
	unsafe.Sizeof(IndexEntry{}) == entryRecordBytes &&
	unsafe.Offsetof(IndexEntry{}.Node) == 0 &&
	unsafe.Offsetof(IndexEntry{}.Reserve) == 8

// DecodeSnapshot is the one decoder of the snapshot format: every loader
// hands it a parsed layout and the bytes of the 11 sections and gets the
// graph and the index back. With g nil the graph is built from the embedded
// sections; a supplied g must have the embedded graph's shape, and becomes
// the graph queries run on.
//
// mapped says the bytes are a read-only mapping that outlives the index. On a
// host that can use them in place (64-bit, little-endian, IndexEntry laid out
// as on disk) the index's arrays, and the graph's when it is built here, are
// then views over the mapping, and viewed is true. Otherwise every section is
// decoded into slices the index owns, and the caller may drop the bytes.
// Labels are copied either way: label strings escape into query responses,
// where nothing keeps a mapping alive.
//
// DecodeSnapshot validates everything queries index with (CSR bounds, offset
// arrays, hub and entry node ids) but not the checksum, which the caller
// checks on its own schedule.
func DecodeSnapshot(l *SnapshotLayout, secs SnapshotSections, g *graph.Graph, mapped bool) (_ *graph.Graph, _ *Index, viewed bool, err error) {
	for i, b := range secs {
		if uint64(len(b)) != l.Sections[i].Len {
			return nil, nil, false, fmt.Errorf("core: snapshot section %d is %d bytes, layout says %d", i, len(b), l.Sections[i].Len)
		}
	}
	view := mapped && hostViewsSections
	if g == nil {
		if g, err = decodeGraph(l, &secs, view); err != nil {
			return nil, nil, false, err
		}
	} else if uint64(g.N()) != l.NNodes || uint64(g.M()) != l.NumEdges {
		return nil, nil, false, fmt.Errorf("core: snapshot graph is %d nodes / %d edges but supplied graph is %d / %d",
			l.NNodes, l.NumEdges, g.N(), g.M())
	}
	idx := &Index{
		g:            g,
		opts:         l.Opts,
		gens:         l.Gens,
		pi:           sectionSlice(secs[sectionPi], view, 8, f64At),
		hubOrder:     sectionSlice(secs[sectionHubOrder], view, 8, intAt),
		hubLevelPos:  sectionSlice(secs[sectionHubLevelPos], view, 8, binary.LittleEndian.Uint64),
		entryOffsets: sectionSlice(secs[sectionEntryOffsets], view, 8, binary.LittleEndian.Uint64),
		entrySlab:    sectionSlice(secs[sectionEntrySlab], view, entryRecordBytes, entryAt),
	}
	if err := idx.finishLoad(); err != nil {
		return nil, nil, false, err
	}
	return g, idx, view, nil
}

// decodeGraph builds the embedded graph from its CSR and label sections.
func decodeGraph(l *SnapshotLayout, secs *SnapshotSections, view bool) (*graph.Graph, error) {
	if !l.OutSorted {
		// Sorting rewrites the adjacency in place, which a read-only mapping
		// forbids; Save always sorts before writing, so only hand-made files
		// trip this.
		return nil, fmt.Errorf("core: snapshot graph is not sorted by head in-degree")
	}
	g, err := graph.FromCSR(
		sectionSlice(secs[sectionGraphOutOff], view, 8, intAt),
		sectionSlice(secs[sectionGraphOutAdj], view, 4, int32At),
		sectionSlice(secs[sectionGraphInOff], view, 8, intAt),
		sectionSlice(secs[sectionGraphInAdj], view, 4, int32At),
		true,
	)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot graph: %w", err)
	}
	if l.HasLabels {
		offsets := sectionSlice(secs[sectionLabelOffsets], view, 8, binary.LittleEndian.Uint64)
		labels, err := labelsFromTable(offsets, secs[sectionLabelBlob])
		if err != nil {
			return nil, err
		}
		if err := g.SetLabels(labels); err != nil {
			return nil, fmt.Errorf("core: snapshot labels: %w", err)
		}
	}
	return g, nil
}

// sectionSlice returns the elements of one section whose records are size
// bytes each: a view over b when view is set, otherwise a slice decoded from
// b with at. Viewing relies on the section's 8-byte alignment, which the
// layout guarantees within a page-aligned mapping, and on hostViewsSections.
func sectionSlice[T any](b []byte, view bool, size int, at func([]byte) T) []T {
	if len(b) == 0 {
		return nil
	}
	if view {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/size)
	}
	out := make([]T, len(b)/size)
	for i := range out {
		out[i] = at(b[i*size:])
	}
	return out
}

func f64At(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

func intAt(b []byte) int { return int(binary.LittleEndian.Uint64(b)) }

func int32At(b []byte) int32 { return int32(binary.LittleEndian.Uint32(b)) }

// entryAt decodes one 16-byte entry record: u32 node, u32 zero padding, f64
// reserve bits.
func entryAt(b []byte) IndexEntry {
	return IndexEntry{Node: int32(binary.LittleEndian.Uint32(b)), Reserve: f64At(b[8:])}
}

// labelsFromTable materializes the label table: offsets are prefix sums into
// the concatenated blob.
func labelsFromTable(offsets []uint64, blob []byte) ([]string, error) {
	if len(offsets) == 0 {
		return nil, fmt.Errorf("core: snapshot label table has no offsets")
	}
	if offsets[0] != 0 {
		return nil, fmt.Errorf("core: snapshot label offsets start at %d, want 0", offsets[0])
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] < offsets[i-1] {
			return nil, fmt.Errorf("core: snapshot label offsets decrease at %d", i-1)
		}
	}
	if offsets[len(offsets)-1] != uint64(len(blob)) {
		return nil, fmt.Errorf("core: snapshot label offsets cover %d bytes, blob has %d",
			offsets[len(offsets)-1], len(blob))
	}
	labels := make([]string, len(offsets)-1)
	for i := range labels {
		labels[i] = string(blob[offsets[i]:offsets[i+1]])
	}
	return labels, nil
}

// finishLoad derives everything a loaded index needs beyond its section
// slices: it validates the offset-array invariants (HubEntries slices the
// slab with them, so corrupt offsets must be rejected up front) and the entry
// slab's node ids (queries index score arrays with them), rebuilds hubRank,
// recomputes stats, and re-validates the loaded options. It runs for every
// decode, viewed or copied, plain or delta-layered.
func (idx *Index) finishLoad() error {
	g := idx.g
	n := g.N()
	numHubs := len(idx.hubOrder)
	if len(idx.hubLevelPos) != numHubs+1 {
		return fmt.Errorf("core: hub level offsets have %d slots for %d hubs", len(idx.hubLevelPos), numHubs)
	}
	if idx.hubLevelPos[0] != 0 {
		return fmt.Errorf("core: hub level offsets start at %d, want 0", idx.hubLevelPos[0])
	}
	for i := 1; i < len(idx.hubLevelPos); i++ {
		if idx.hubLevelPos[i] < idx.hubLevelPos[i-1] {
			return fmt.Errorf("core: hub level offsets decrease at hub %d", i-1)
		}
	}
	totalLevels := uint64(len(idx.entryOffsets) - 1)
	if len(idx.entryOffsets) == 0 || idx.hubLevelPos[numHubs] != totalLevels {
		return fmt.Errorf("core: hub level offsets cover %d level slots, file has %d", idx.hubLevelPos[numHubs], totalLevels)
	}
	if idx.entryOffsets[0] != 0 {
		return fmt.Errorf("core: entry offsets start at %d, want 0", idx.entryOffsets[0])
	}
	for i := 1; i < len(idx.entryOffsets); i++ {
		if idx.entryOffsets[i] < idx.entryOffsets[i-1] {
			return fmt.Errorf("core: entry offsets decrease at level slot %d", i-1)
		}
	}
	if idx.entryOffsets[totalLevels] != uint64(len(idx.entrySlab)) {
		return fmt.Errorf("core: entry offsets cover %d entries, slab has %d", idx.entryOffsets[totalLevels], len(idx.entrySlab))
	}
	for i, e := range idx.entrySlab {
		if uint32(e.Node) >= uint32(n) {
			return fmt.Errorf("core: index entry %d names node %d, graph has %d nodes", i, uint32(e.Node), n)
		}
	}

	idx.hubRank = make([]int, n)
	for i := range idx.hubRank {
		idx.hubRank[i] = -1
	}
	for rank, h := range idx.hubOrder {
		if h < 0 || h >= n {
			return fmt.Errorf("core: hub node %d out of range", h)
		}
		if idx.hubRank[h] >= 0 {
			return fmt.Errorf("core: hub node %d listed twice", h)
		}
		idx.hubRank[h] = rank
	}

	idx.stats.NumHubs = numHubs
	idx.stats.Entries = len(idx.entrySlab)
	idx.stats.SecondMoment = 0
	for _, p := range idx.pi {
		idx.stats.SecondMoment += p * p
	}
	var err error
	if idx.opts, err = idx.opts.fill(); err != nil {
		return fmt.Errorf("core: loaded index has invalid options: %w", err)
	}
	if !g.OutSortedByInDegree() {
		g.SortOutByInDegree()
	}
	// v3 files carry no generation block; synthesize one now that the graph
	// is sorted (the lineage hashes the sorted graph's fingerprint, so a v3
	// load of an index agrees with a fresh build of the same index).
	idx.ensureGens()
	return nil
}
