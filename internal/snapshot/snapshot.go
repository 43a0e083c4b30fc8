// Package snapshot opens saved PRSim indexes (snapshot v4 files written by
// core.Save, or v3 files, which lack only the generation block) by
// memory-mapping them and reconstructing the index's slices as zero-copy
// views over the mapping. Every readable file embeds the graph's CSR
// adjacency arrays and label table too, so the *entire* serving state — graph
// and index — comes out of one mapping: cold-starting a server on a multi-GB
// index becomes an O(header + CSR validation) operation instead of an O(edge
// list) parse, the kernel pages data in lazily as queries touch it, and
// multiple server processes mapping the same file share one page cache.
// Version 1 and 2 files do not embed the graph and are rejected.
//
// On platforms where zero-copy mapping is unavailable (no mmap syscall,
// 32-bit ints, big-endian byte order) Open falls back to the portable
// streaming loader transparently; Mapped reports which path was taken.
//
// Snapshots are reference counted so they can be hot-swapped under live
// traffic: Close drops the owner reference but defers the munmap until every
// in-flight query that Retain'd the snapshot has Release'd it, fixing the
// use-after-unmap fault a plain Close-while-serving would cause.
package snapshot

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync/atomic"
	"unsafe"

	"prsim/internal/core"
	"prsim/internal/graph"
)

// ErrClosed is returned by operations on a snapshot after Close. A dead
// handle must fail loudly: before this sentinel existed, Index and Verify
// returned nil after Close, handing callers a nil index and a "verified OK"
// from an unmapped file.
var ErrClosed = errors.New("snapshot: closed")

// Options configures Open.
type Options struct {
	// VerifyChecksum validates the CRC-32C trailer over the whole section
	// payload at open time. Validation faults in every page of the file once
	// (sequentially, at memory-bandwidth speed), so it trades the O(header)
	// open for end-to-end integrity; it can also be run at any later point
	// with Snapshot.Verify. The structural invariants that queries rely on
	// for memory safety (section table bounds, offset-array monotonicity,
	// CSR adjacency bounds, index entry node ids) are always validated
	// regardless of this option.
	VerifyChecksum bool
	// ForceStream disables mmap and always uses the portable streaming
	// loader. Useful for benchmarking the two paths against each other and
	// for tests.
	ForceStream bool
}

// numSections is the number of snapshot sections, taken from the layout's
// array type so it cannot drift from the format definition.
const numSections = len((core.SnapshotLayout{}).Sections)

// sectionView locates one section's bytes: for plain opens every view points
// into the one mapped file, for delta opens each view points into whichever
// of the base and delta mappings actually holds that section.
type sectionView struct {
	data []byte
	sec  core.Section
}

// Snapshot is an open index snapshot. When Mapped reports true, the index's
// (and, for self-contained opens, the graph's) section slices alias the
// underlying mmap region(s) and stay valid until the last reference is
// released.
type Snapshot struct {
	idx         *core.Index
	g           *graph.Graph
	data        []byte // the mmap region; nil when the streaming fallback was used
	delta       []byte // second mmap region for delta-backed opens; nil otherwise
	layout      *core.SnapshotLayout
	baseLayout  *core.SnapshotLayout // delta-backed opens: the base file's layout
	deltaLayout *core.DeltaLayout    // delta-backed opens: the delta file's layout
	views       [numSections]sectionView
	mapped      bool
	graphMapped bool // graph adjacency aliases the mapping (self-contained zero-copy open)

	// refs counts the owner (1 at open) plus every in-flight Retain. The
	// munmap runs when the count reaches zero, so closing under live queries
	// defers the unmap until they drain. closed flips once, making Close
	// idempotent and failing Retain/Index/Verify afterwards.
	refs   atomic.Int64
	closed atomic.Bool

	// advices records which madvise hints the last WarmUp applied (e.g.
	// "willneed", "hugepage"), for surfacing in serving stats. Stored as a
	// pointer because WarmUp (open, hot swap, manual re-warm) can race with
	// stats readers.
	advices atomic.Pointer[[]string]
}

// entryLayoutOK reports whether Go laid out core.IndexEntry exactly like the
// on-disk 16-byte record (int32 at 0, float64 at 8), which is what lets the
// entry slab be viewed as a []core.IndexEntry without copying.
var entryLayoutOK = unsafe.Sizeof(core.IndexEntry{}) == 16 &&
	unsafe.Offsetof(core.IndexEntry{}.Node) == 0 &&
	unsafe.Offsetof(core.IndexEntry{}.Reserve) == 8

func hostLittleEndian() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

// Supported reports whether this platform can open snapshots zero-copy. When
// false, Open still works via the streaming fallback.
func Supported() bool {
	return mmapAvailable && strconv.IntSize == 64 && hostLittleEndian() && entryLayoutOK
}

// Open opens a saved v3 or v4 snapshot. g is normally nil: the embedded graph
// is reconstructed (zero-copy when mapped). When g is supplied it becomes the
// graph queries run on, and the embedded graph's shape is cross-checked
// against it.
//
// Open memory-maps the file when the platform supports it and falls back to
// the streaming loader otherwise.
func Open(path string, g *graph.Graph, opts Options) (*Snapshot, error) {
	if opts.ForceStream || !Supported() {
		return openStream(path, g)
	}
	data, err := mmapFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: mapping %s: %w", path, err)
	}
	snap, err := openMapped(data, g, opts)
	if err != nil {
		munmapFile(data)
		return nil, err
	}
	return snap, nil
}

// OpenDelta opens the successor snapshot described by a delta file layered
// over its base snapshot, without materializing the spliced file: both files
// are memory-mapped and each section is viewed from whichever file holds its
// current bytes. The base must be the v4 snapshot the delta was written
// against (same lineage, matching generation); the delta's unshipped
// sections are served straight from the base mapping, so the combined open
// faults in only the delta's changed sections beyond what the base mapping
// already shares with other users of the same file.
//
// On platforms without zero-copy support (and with Options.ForceStream) the
// two files are read, spliced into the full successor image in memory, and
// parsed by the portable streaming loader.
func OpenDelta(basePath, deltaPath string, opts Options) (*Snapshot, error) {
	if opts.ForceStream || !Supported() {
		return openStreamDelta(basePath, deltaPath)
	}
	base, err := mmapFile(basePath)
	if err != nil {
		return nil, fmt.Errorf("snapshot: mapping %s: %w", basePath, err)
	}
	delta, err := mmapFile(deltaPath)
	if err != nil {
		munmapFile(base)
		return nil, fmt.Errorf("snapshot: mapping %s: %w", deltaPath, err)
	}
	snap, err := openMappedDelta(base, delta, opts)
	if err != nil {
		munmapFile(delta)
		munmapFile(base)
		return nil, err
	}
	return snap, nil
}

// openMappedDelta validates the two mapped files against each other and
// assembles the zero-copy successor state.
func openMappedDelta(base, delta []byte, opts Options) (*Snapshot, error) {
	bl, err := core.ParseSnapshotLayout(base)
	if err != nil {
		return nil, fmt.Errorf("snapshot: base: %w", err)
	}
	d, err := core.ParseDeltaLayout(delta)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	if err := d.CheckBase(bl); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	if opts.VerifyChecksum {
		if err := bl.VerifyChecksum(base); err != nil {
			return nil, fmt.Errorf("snapshot: base: %w", err)
		}
		if err := d.VerifyChecksum(delta); err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
	}
	layout := d.Layout
	var views [numSections]sectionView
	for i := range views {
		if d.Ships(i) {
			views[i] = sectionView{data: delta, sec: d.Shipped[i]}
		} else {
			views[i] = sectionView{data: base, sec: bl.Sections[i]}
		}
	}
	s, err := assembleMapped(layout, views, nil)
	if err != nil {
		return nil, err
	}
	s.data, s.delta, s.baseLayout, s.deltaLayout = base, delta, bl, d
	return s, nil
}

// openStreamDelta is the portable fallback for delta opens: splice the full
// successor image in memory and run the streaming loader over it.
func openStreamDelta(basePath, deltaPath string) (*Snapshot, error) {
	base, err := os.ReadFile(basePath)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	delta, err := os.ReadFile(deltaPath)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	full, err := core.SpliceDelta(base, delta)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	g, idx, err := core.LoadSelfContained(bytes.NewReader(full))
	if err != nil {
		return nil, err
	}
	s := &Snapshot{idx: idx, g: g}
	s.refs.Store(1)
	return s, nil
}

// openMapped validates the mapped bytes and assembles the zero-copy graph
// and index.
func openMapped(data []byte, g *graph.Graph, opts Options) (*Snapshot, error) {
	layout, err := core.ParseSnapshotLayout(data)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	if opts.VerifyChecksum {
		if err := layout.VerifyChecksum(data); err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
	}
	var views [numSections]sectionView
	for i := range views {
		views[i] = sectionView{data: data, sec: layout.Sections[i]}
	}
	s, err := assembleMapped(layout, views, g)
	if err != nil {
		return nil, err
	}
	s.data = data
	return s, nil
}

// assembleMapped builds the zero-copy graph and index from per-section byte
// views (one file for plain opens, two for delta-backed opens). The caller
// fills in the mapping fields it owns.
func assembleMapped(layout *core.SnapshotLayout, views [numSections]sectionView, g *graph.Graph) (*Snapshot, error) {
	graphMapped := false
	if g == nil {
		eg, err := graphFromSections(views, layout)
		if err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
		g, graphMapped = eg, true
	} else if uint64(g.N()) != layout.NNodes || uint64(g.M()) != layout.NumEdges {
		return nil, fmt.Errorf("snapshot: embedded graph is %d nodes / %d edges but supplied graph is %d / %d",
			layout.NNodes, layout.NumEdges, g.N(), g.M())
	}
	idx, err := core.NewIndexFromSnapshot(g, layout,
		viewSlice[float64](views[0]),
		viewSlice[int](views[1]),
		viewSlice[uint64](views[2]),
		viewSlice[uint64](views[3]),
		viewSlice[core.IndexEntry](views[4]),
	)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	s := &Snapshot{idx: idx, g: g, layout: layout, views: views, mapped: true, graphMapped: graphMapped}
	s.refs.Store(1)
	return s, nil
}

// graphFromSections assembles the embedded graph of a snapshot: the CSR
// offset and adjacency arrays are zero-copy views over the mapping(s), while
// the label table (when present) is materialized onto the heap so labels
// survive the mapping being closed (label strings escape into query
// responses, where no reference count protects them).
func graphFromSections(views [numSections]sectionView, l *core.SnapshotLayout) (*graph.Graph, error) {
	if !l.OutSorted {
		// Sorting writes the adjacency in place, which a read-only mapping
		// forbids; Save always sorts before writing, so this only trips on
		// hand-crafted files.
		return nil, fmt.Errorf("embedded graph is not sorted by head in-degree")
	}
	g, err := graph.FromCSR(
		viewSlice[int](views[5]),
		viewSlice[int32](views[6]),
		viewSlice[int](views[7]),
		viewSlice[int32](views[8]),
		true,
	)
	if err != nil {
		return nil, err
	}
	if l.HasLabels {
		labels, err := core.LabelsFromSections(
			viewSlice[uint64](views[9]),
			viewSlice[byte](views[10]),
		)
		if err != nil {
			return nil, err
		}
		if err := g.SetLabels(labels); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// viewSlice reinterprets one aligned section view as a []T. The section
// table guarantees 8-byte alignment and in-bounds extents, and Supported
// gates the T layouts (4-byte int32, 8-byte int/uint64/float64, 16-byte
// IndexEntry) this relies on.
func viewSlice[T any](v sectionView) []T {
	if v.sec.Len == 0 {
		return nil
	}
	var t T
	return unsafe.Slice((*T)(unsafe.Pointer(&v.data[v.sec.Off])), v.sec.Len/uint64(unsafe.Sizeof(t)))
}

// openStream is the portable fallback: parse the file with the streaming
// loader into heap-allocated slices, reconstructing the graph too when the
// caller did not supply one.
func openStream(path string, g *graph.Graph) (*Snapshot, error) {
	var idx *core.Index
	var err error
	if g == nil {
		g, idx, err = core.LoadSelfContainedFile(path)
	} else {
		idx, err = core.LoadIndexFile(path, g)
	}
	if err != nil {
		return nil, err
	}
	s := &Snapshot{idx: idx, g: g}
	s.refs.Store(1)
	return s, nil
}

// Index returns the loaded index, or ErrClosed after Close. When Mapped
// reports true the index aliases the mapping and must not be used after the
// snapshot's last reference is released.
func (s *Snapshot) Index() (*core.Index, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	return s.idx, nil
}

// Graph returns the graph the index queries run on: the embedded graph for
// self-contained opens, or the caller-supplied one. ErrClosed after Close.
func (s *Snapshot) Graph() (*graph.Graph, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	return s.g, nil
}

// Mapped reports whether the index is backed by an mmap region (true) or by
// heap slices from the streaming fallback (false).
func (s *Snapshot) Mapped() bool { return s.mapped }

// GraphMapped reports whether the graph's adjacency arrays alias the mmap
// region (self-contained zero-copy open) rather than heap memory.
func (s *Snapshot) GraphMapped() bool { return s.graphMapped }

// Retain takes a reference on the snapshot, keeping the mapping alive until
// the matching Release even if Close runs in between. It returns false once
// the snapshot has been closed; callers must not use the index in that case.
func (s *Snapshot) Retain() bool {
	for {
		r := s.refs.Load()
		if r <= 0 || s.closed.Load() {
			return false
		}
		if s.refs.CompareAndSwap(r, r+1) {
			// Close may have flipped closed between the load and the CAS; the
			// reference is still counted, so the unmap waits for our Release
			// either way. Refuse the handle so no new work starts post-Close.
			if s.closed.Load() {
				s.Release()
				return false
			}
			return true
		}
	}
}

// Release drops a reference taken with Retain. The final release (owner or
// query, whichever drops last) performs the munmap; an unmap error at that
// point is dropped, since the releasing goroutine is usually a draining
// query with nobody to report to (Close returns it when Close itself is the
// final release).
func (s *Snapshot) Release() { _ = s.release() }

// release drops one reference and unmaps on the last one. Exactly one caller
// observes the zero crossing, so the munmap (and the reads of s.data/s.delta,
// written only at construction) is single-threaded by construction. For
// delta-backed snapshots both mappings are released.
func (s *Snapshot) release() error {
	if s.refs.Add(-1) != 0 {
		return nil
	}
	var err error
	if s.delta != nil {
		if e := munmapFile(s.delta); e != nil {
			err = fmt.Errorf("snapshot: unmapping delta: %w", e)
		}
	}
	if s.data != nil {
		if e := munmapFile(s.data); e != nil && err == nil {
			err = fmt.Errorf("snapshot: unmapping: %w", e)
		}
	}
	return err
}

// WarmUp hints the kernel to fault in the sections queries touch first — the
// index entry slab and, for self-contained snapshots, the graph's adjacency
// arrays — via madvise(MADV_WILLNEED) (a no-op off Linux and for
// streaming-backed snapshots). Serving paths call it right after open and
// after a hot swap so the first post-(re)load queries do not eat the
// page-fault cliff one miss at a time; the readahead proceeds asynchronously
// while the caller starts serving.
// WarmUp also asks for transparent-huge-page backing on the entry slab when
// it is large enough to span full 2 MiB regions (madvise(MADV_HUGEPAGE)):
// reserve-list reads are random accesses across the slab, and huge pages cut
// their TLB miss rate ~500×. Advices reports which hints actually applied.
func (s *Snapshot) WarmUp() {
	if !s.mapped || !s.Retain() {
		return
	}
	defer s.Release()
	applied := make([]string, 0, 2)
	willNeed := false
	for _, i := range s.layout.HotSectionIndices() {
		if v := s.views[i]; adviseWillNeed(v.data, v.sec.Off, v.sec.Len) {
			willNeed = true
		}
	}
	if willNeed {
		applied = append(applied, "willneed")
	}
	if slab := s.views[s.layout.EntrySlabIndex()]; adviseHugePage(slab.data, slab.sec.Off, slab.sec.Len) {
		applied = append(applied, "hugepage")
	}
	s.advices.Store(&applied)
}

// Advices reports which madvise hints the most recent WarmUp applied, in a
// fixed order: "willneed" (page-cache readahead on the hot sections) and
// "hugepage" (transparent-huge-page backing on the entry slab, issued only
// when the slab spans at least one aligned 2 MiB region). Empty before the
// first WarmUp, for streaming-backed snapshots, and off Linux. The returned
// slice is read-only.
func (s *Snapshot) Advices() []string {
	if p := s.advices.Load(); p != nil {
		return *p
	}
	return nil
}

// Verify recomputes the CRC-32C of the mapped section payload against the
// file's trailer, faulting in every page. It returns ErrClosed after Close
// and nil for streaming-backed snapshots (the streaming loader checksums
// everything as it parses).
func (s *Snapshot) Verify() error {
	if !s.mapped {
		if s.closed.Load() {
			return ErrClosed
		}
		return nil
	}
	if !s.Retain() {
		return ErrClosed
	}
	defer s.Release()
	if s.deltaLayout != nil {
		// Delta-backed: the serving state spans two files, each carrying its
		// own trailer; verify both.
		if err := s.baseLayout.VerifyChecksum(s.data); err != nil {
			return fmt.Errorf("snapshot: base: %w", err)
		}
		if err := s.deltaLayout.VerifyChecksum(s.delta); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		return nil
	}
	if err := s.layout.VerifyChecksum(s.data); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

// SizeBytes returns the total size of the mapped file(s) — base plus delta
// for delta-backed opens — or 0 for a streaming-backed snapshot.
func (s *Snapshot) SizeBytes() int64 { return int64(len(s.data) + len(s.delta)) }

// Close drops the owner reference. The mapping is unmapped once every
// outstanding Retain has been Release'd — immediately when none are — so the
// index (and every result slice aliasing it) must not be used by new work
// afterwards, while queries that retained the snapshot drain safely. Close is
// idempotent for both mapped and streaming-backed snapshots; repeated calls
// return nil.
func (s *Snapshot) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	return s.release()
}

// statSize returns the file's size, shared by the mmap implementations.
func statSize(f *os.File) (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
