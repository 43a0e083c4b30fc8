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
// and edges) the index was built from: the embedded graph sections are
// checksummed and their shape is cross-checked against g, but g remains the
// graph queries run on. To reconstruct the graph *from* the file, use
// LoadSelfContained. For near-instant zero-copy loading from disk, use
// internal/snapshot instead.
func LoadIndex(r io.Reader, g *graph.Graph) (*Index, error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	_, idx, err := loadIndexMaybeGraph(r, g)
	return idx, err
}

// LoadSelfContained reads a v4 (or v3) snapshot and reconstructs both the
// graph and the index from it.
func LoadSelfContained(r io.Reader) (*graph.Graph, *Index, error) {
	return loadIndexMaybeGraph(r, nil)
}

// loadIndexMaybeGraph is the shared streaming loader. When g is nil the
// embedded graph is reconstructed; when g is supplied it is used as the
// index's graph (the graph sections are then decoded only to feed the
// checksum and cross-check the shape).
func loadIndexMaybeGraph(r io.Reader, g *graph.Graph) (*graph.Graph, *Index, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var head [16]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, nil, fmt.Errorf("core: loading index: %w", err)
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
	if _, err := io.ReadFull(br, prefix[16:]); err != nil {
		return nil, nil, fmt.Errorf("core: loading index: %w", err)
	}
	l, err := parseSnapshotPrefix(prefix)
	if err != nil {
		return nil, nil, err
	}
	return loadSections(br, l, g)
}

// loadSections streams the section payload of a snapshot, verifying the CRC
// trailer as it goes.
func loadSections(r io.Reader, l *SnapshotLayout, g *graph.Graph) (*graph.Graph, *Index, error) {
	if g != nil {
		if int(l.NNodes) != g.N() {
			return nil, nil, fmt.Errorf("core: index built for %d nodes but graph has %d", l.NNodes, g.N())
		}
		if int(l.NumEdges) != g.M() {
			return nil, nil, fmt.Errorf("core: snapshot graph has %d edges but supplied graph has %d", l.NumEdges, g.M())
		}
	}
	// NNodes and NumHubs are bounded (NumHubs <= NNodes, and NNodes by the
	// trusted graph when one is supplied), so their sections are allocated up
	// front. NumLevels and NumEntries are header-controlled and unbounded:
	// those sections grow by appending as bytes actually arrive, so a hostile
	// or corrupt header claiming 2^47 entries costs a truncated-read error,
	// not a giant allocation.
	idx := &Index{opts: l.Opts, gens: l.Gens}
	idx.pi = make([]float64, 0, l.NNodes)
	idx.hubOrder = make([]int, 0, l.NumHubs)
	idx.hubLevelPos = make([]uint64, 0, l.NumHubs+1)
	idx.entryOffsets = growCap[uint64](l.NumLevels + 1)
	idx.entrySlab = growCap[IndexEntry](l.NumEntries)

	dec := newSectionDecoder(r)
	dec.section(l.Sections[sectionPi].Len, func(v uint64) {
		idx.pi = append(idx.pi, math.Float64frombits(v))
	})
	dec.section(l.Sections[sectionHubOrder].Len, func(v uint64) {
		idx.hubOrder = append(idx.hubOrder, int(v))
	})
	dec.section(l.Sections[sectionHubLevelPos].Len, func(v uint64) {
		idx.hubLevelPos = append(idx.hubLevelPos, v)
	})
	dec.section(l.Sections[sectionEntryOffsets].Len, func(v uint64) {
		idx.entryOffsets = append(idx.entryOffsets, v)
	})
	lo := true
	dec.section(l.Sections[sectionEntrySlab].Len, func(v uint64) {
		if lo {
			idx.entrySlab = append(idx.entrySlab, IndexEntry{Node: int32(uint32(v))})
		} else {
			idx.entrySlab[len(idx.entrySlab)-1].Reserve = math.Float64frombits(v)
		}
		lo = !lo
	})

	eg, err := decodeGraphSections(dec, l, g == nil)
	if err != nil {
		return nil, nil, err
	}
	if g == nil {
		g = eg
	}
	if dec.err != nil {
		return nil, nil, fmt.Errorf("core: loading index: %w", dec.err)
	}
	var trailer [snapshotTrailerBytes]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return nil, nil, fmt.Errorf("core: loading index: %w", err)
	}
	want := binary.LittleEndian.Uint64(trailer[:])
	if got := uint64(dec.crc.Sum32()); got != want {
		return nil, nil, fmt.Errorf("core: snapshot checksum mismatch: file says %#x, computed %#x", want, got)
	}
	idx.g = g
	if err := idx.finishLoad(); err != nil {
		return nil, nil, err
	}
	return g, idx, nil
}

// decodeGraphSections streams the graph sections. When build is false the
// bytes are still consumed (they feed the checksum) but no graph is
// materialized.
func decodeGraphSections(dec *sectionDecoder, l *SnapshotLayout, build bool) (*graph.Graph, error) {
	var outOff, inOff []int
	var outAdj, inAdj []int32
	if build {
		outOff = make([]int, 0, l.NNodes+1)
		inOff = make([]int, 0, l.NNodes+1)
		outAdj = growCap[int32](l.NumEdges)
		inAdj = growCap[int32](l.NumEdges)
	}
	discard64 := func(uint64) {}
	discard32 := func(uint32) {}

	emit64 := func(dst *[]int) func(uint64) {
		if !build {
			return discard64
		}
		return func(v uint64) { *dst = append(*dst, int(v)) }
	}
	emit32 := func(dst *[]int32) func(uint32) {
		if !build {
			return discard32
		}
		return func(v uint32) { *dst = append(*dst, int32(v)) }
	}
	dec.section(l.Sections[sectionGraphOutOff].Len, emit64(&outOff))
	dec.section32(l.Sections[sectionGraphOutAdj].Len, emit32(&outAdj))
	dec.section(l.Sections[sectionGraphInOff].Len, emit64(&inOff))
	dec.section32(l.Sections[sectionGraphInAdj].Len, emit32(&inAdj))

	var labelOffsets []uint64
	var labelBlob []byte
	if l.HasLabels && build {
		labelOffsets = make([]uint64, 0, l.NNodes+1)
		labelBlob = growCap[byte](l.LabelBytes)
	}
	dec.section(l.Sections[sectionLabelOffsets].Len, func(v uint64) {
		if build {
			labelOffsets = append(labelOffsets, v)
		}
	})
	dec.raw(l.Sections[sectionLabelBlob].Len, func(p []byte) {
		if build {
			labelBlob = append(labelBlob, p...)
		}
	})
	if dec.err != nil || !build {
		return nil, nil
	}
	if !l.OutSorted {
		// Cannot happen for files written by Save, which sorts first; reject
		// rather than silently serving the wrong walk order.
		return nil, fmt.Errorf("core: snapshot graph is not sorted by head in-degree")
	}
	eg, err := graph.FromCSR(outOff, outAdj, inOff, inAdj, true)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot graph: %w", err)
	}
	if l.HasLabels {
		labels, err := labelsFromTable(labelOffsets, labelBlob)
		if err != nil {
			return nil, err
		}
		if err := eg.SetLabels(labels); err != nil {
			return nil, fmt.Errorf("core: snapshot labels: %w", err)
		}
	}
	return eg, nil
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

// LabelsFromSections is the mmap-side twin of the streaming label decoder:
// it materializes heap strings from zero-copy section views, so labels stay
// valid after the mapping is closed. Exported within the module for
// internal/snapshot.
func LabelsFromSections(offsets []uint64, blob []byte) ([]string, error) {
	return labelsFromTable(offsets, blob)
}

// growCap returns an empty slice whose initial capacity is count clamped to
// a modest bound; callers append as section bytes arrive. This keeps
// header-declared counts from driving allocations before any data has been
// read.
func growCap[T any](count uint64) []T {
	const maxUpfront = 64 << 10
	if count > maxUpfront {
		count = maxUpfront
	}
	return make([]T, 0, count)
}

// sectionDecoder reads section payloads in large chunks, updating the
// running CRC and handing the decoded elements to the caller. Its chunk size
// is a multiple of 16, so no 4-, 8- or 16-byte element ever straddles a
// refill. After every section it consumes the zero padding up to the next
// 8-byte boundary.
type sectionDecoder struct {
	r        io.Reader
	crc      hash.Hash32
	scratch  []byte
	consumed uint64 // payload bytes consumed, to locate padding
	err      error
}

func newSectionDecoder(r io.Reader) *sectionDecoder {
	return &sectionDecoder{r: r, crc: crc32.New(crcTable), scratch: make([]byte, 64<<10)}
}

// section reads byteLen bytes as little-endian u64s plus trailing padding.
func (d *sectionDecoder) section(byteLen uint64, emit func(uint64)) {
	d.chunks(byteLen, func(chunk []byte) {
		for off := 0; off < len(chunk); off += 8 {
			emit(binary.LittleEndian.Uint64(chunk[off:]))
		}
	})
	d.skipPadding()
}

// section32 reads byteLen bytes as little-endian u32s plus trailing padding.
func (d *sectionDecoder) section32(byteLen uint64, emit func(uint32)) {
	d.chunks(byteLen, func(chunk []byte) {
		for off := 0; off < len(chunk); off += 4 {
			emit(binary.LittleEndian.Uint32(chunk[off:]))
		}
	})
	d.skipPadding()
}

// raw reads byteLen arbitrary bytes plus trailing padding.
func (d *sectionDecoder) raw(byteLen uint64, emit func([]byte)) {
	d.chunks(byteLen, emit)
	d.skipPadding()
}

// chunks feeds byteLen bytes through the CRC and emit in scratch-sized runs.
func (d *sectionDecoder) chunks(byteLen uint64, emit func([]byte)) {
	for byteLen > 0 && d.err == nil {
		n := uint64(len(d.scratch))
		if byteLen < n {
			n = byteLen
		}
		chunk := d.scratch[:n]
		if _, err := io.ReadFull(d.r, chunk); err != nil {
			d.err = err
			return
		}
		d.crc.Write(chunk)
		emit(chunk)
		d.consumed += n
		byteLen -= n
	}
}

// skipPadding consumes the zero bytes aligning the next section to 8 bytes.
func (d *sectionDecoder) skipPadding() {
	if d.err != nil || d.consumed%8 == 0 {
		return
	}
	pad := 8 - d.consumed%8
	var buf [8]byte
	if _, err := io.ReadFull(d.r, buf[:pad]); err != nil {
		d.err = err
		return
	}
	d.crc.Write(buf[:pad])
	d.consumed += pad
}

// NewIndexFromSnapshot assembles an Index whose slice backing was produced
// elsewhere — typically zero-copy views over an mmap'd snapshot built by
// internal/snapshot. It validates the slices against the layout and the
// graph, then derives the in-memory bookkeeping (hub ranks, stats). The
// returned index aliases the supplied slices; they must stay valid (mapped)
// for the index's lifetime.
func NewIndexFromSnapshot(g *graph.Graph, l *SnapshotLayout, pi []float64, hubOrder []int, hubLevelPos, entryOffsets []uint64, entrySlab []IndexEntry) (*Index, error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	if int(l.NNodes) != g.N() {
		return nil, fmt.Errorf("core: index built for %d nodes but graph has %d", l.NNodes, g.N())
	}
	if uint64(len(pi)) != l.NNodes ||
		uint64(len(hubOrder)) != l.NumHubs ||
		uint64(len(hubLevelPos)) != l.NumHubs+1 ||
		uint64(len(entryOffsets)) != l.NumLevels+1 ||
		uint64(len(entrySlab)) != l.NumEntries {
		return nil, fmt.Errorf("core: snapshot section views do not match layout")
	}
	idx := &Index{
		g:            g,
		opts:         l.Opts,
		gens:         l.Gens,
		pi:           pi,
		hubOrder:     hubOrder,
		hubLevelPos:  hubLevelPos,
		entryOffsets: entryOffsets,
		entrySlab:    entrySlab,
	}
	if err := idx.finishLoad(); err != nil {
		return nil, err
	}
	return idx, nil
}

// finishLoad derives everything a loaded index needs beyond its section
// slices: it validates the offset-array invariants (HubEntries slices the
// slab with them, so corrupt offsets must be rejected up front) and the entry
// slab's node ids (queries index score arrays with them), rebuilds hubRank,
// recomputes stats, and re-validates the loaded options. It runs identically
// for streaming loads and mmap-backed snapshots, plain or delta-layered.
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

// LoadIndexFile reads an index from the given path.
func LoadIndexFile(path string, g *graph.Graph) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	defer f.Close()
	return LoadIndex(f, g)
}

// LoadSelfContainedFile reads a snapshot from the given path, reconstructing
// both graph and index.
func LoadSelfContainedFile(path string) (*graph.Graph, *Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	defer f.Close()
	return LoadSelfContained(f)
}
