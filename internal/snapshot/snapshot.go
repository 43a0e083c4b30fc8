// Package snapshot opens saved PRSim indexes (snapshot v4 files written by
// core.Save, or v3 files, which lack only the generation block) for serving.
// Open memory-maps the file and hands its sections to core.DecodeSnapshot,
// the one decoder of the format. Every readable file embeds the graph's CSR
// adjacency arrays and label table too, so the *entire* serving state — graph
// and index — comes out of one mapping. On a 64-bit little-endian host the
// decoder uses the mapping in place: the index's and the graph's arrays are
// zero-copy views over it, cold-starting a server on a multi-GB index becomes
// an O(header + CSR validation) operation instead of an O(edge list) parse,
// the kernel pages data in lazily as queries touch it, and multiple server
// processes mapping the same file share one page cache. Version 1 and 2 files
// do not embed the graph and are rejected.
//
// Elsewhere — a 32-bit or big-endian host, or a platform without mmap, where
// Open reads the file instead — the decoder copies every section onto the
// heap, as core's heap loaders do, and Open checks the payload CRC before it
// lets go of the bytes. Mapped reports which of the two happened.
//
// Snapshots are reference counted so they can be hot-swapped under live
// traffic: Close drops the owner reference but defers the munmap until every
// in-flight query that Retain'd the snapshot has Release'd it, fixing the
// use-after-unmap fault a plain Close-while-serving would cause.
package snapshot

import (
	"errors"
	"fmt"
	"sync/atomic"

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
	// regardless of this option. An open that copies the sections checks the
	// CRC whatever this says.
	VerifyChecksum bool
}

// numSections is the number of snapshot sections, taken from the decoder's
// section array so it cannot drift from the format definition.
const numSections = len(core.SnapshotSections{})

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
	data        []byte // the file's bytes while the index views them; nil after a copying open
	delta       []byte // delta-backed opens: the delta file's bytes, kept like data
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

// Open opens a saved v3 or v4 snapshot. g is normally nil: the embedded graph
// is reconstructed (zero-copy when mapped). When g is supplied it becomes the
// graph queries run on, and the embedded graph's shape is cross-checked
// against it. The index views the mapping where the host allows it and owns
// heap copies otherwise (see the package doc).
func Open(path string, g *graph.Graph, opts Options) (*Snapshot, error) {
	data, err := mmapFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: mapping %s: %w", path, err)
	}
	s := &Snapshot{data: data}
	if s.layout, err = core.ParseSnapshotLayout(data); err != nil {
		s.unmap()
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	for i := range s.views {
		s.views[i] = sectionView{data: data, sec: s.layout.Sections[i]}
	}
	return s.decode(g, opts)
}

// OpenDelta opens the successor snapshot described by a delta file layered
// over its base snapshot, without materializing the spliced file: both files
// are memory-mapped and each section is decoded from whichever file holds its
// current bytes. The base must be the v4 snapshot the delta was written
// against (same lineage, matching generation); the delta's unshipped
// sections are served straight from the base mapping, so the combined open
// faults in only the delta's changed sections beyond what the base mapping
// already shares with other users of the same file.
func OpenDelta(basePath, deltaPath string, opts Options) (*Snapshot, error) {
	base, err := mmapFile(basePath)
	if err != nil {
		return nil, fmt.Errorf("snapshot: mapping %s: %w", basePath, err)
	}
	delta, err := mmapFile(deltaPath)
	if err != nil {
		munmapFile(base)
		return nil, fmt.Errorf("snapshot: mapping %s: %w", deltaPath, err)
	}
	s := &Snapshot{data: base, delta: delta}
	if err := s.layDelta(); err != nil {
		s.unmap()
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return s.decode(nil, opts)
}

// layDelta validates the two files against each other and points each
// section's view at whichever file holds its current bytes.
func (s *Snapshot) layDelta() error {
	bl, err := core.ParseSnapshotLayout(s.data)
	if err != nil {
		return fmt.Errorf("base: %w", err)
	}
	d, err := core.ParseDeltaLayout(s.delta)
	if err != nil {
		return err
	}
	if err := d.CheckBase(bl); err != nil {
		return err
	}
	s.layout, s.baseLayout, s.deltaLayout = d.Layout, bl, d
	for i := range s.views {
		if d.Ships(i) {
			s.views[i] = sectionView{data: s.delta, sec: d.Shipped[i]}
		} else {
			s.views[i] = sectionView{data: s.data, sec: bl.Sections[i]}
		}
	}
	return nil
}

// decode hands the section views to core's decoder and finishes the open.
// Where the decoder copied the sections, nothing aliases the files any more,
// so decode lets go of them, after checking the CRC that Verify could no
// longer check. Every failure releases the files.
func (s *Snapshot) decode(g *graph.Graph, opts Options) (_ *Snapshot, err error) {
	defer func() {
		if err != nil || !s.mapped {
			s.unmap()
		}
	}()
	var secs core.SnapshotSections
	for i, v := range s.views {
		secs[i] = v.data[v.sec.Off:v.sec.End()]
	}
	sg, idx, viewed, err := core.DecodeSnapshot(s.layout, secs, g, mmapAvailable)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	if opts.VerifyChecksum || !viewed {
		if err := s.verify(); err != nil {
			return nil, err
		}
	}
	s.g, s.idx, s.mapped, s.graphMapped = sg, idx, viewed, viewed && g == nil
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

// Mapped reports whether the index's arrays are views over the file's mmap
// region (true) or slices the decoder copied onto the heap (false).
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
// written only at construction) is single-threaded by construction.
func (s *Snapshot) release() error {
	if s.refs.Add(-1) != 0 {
		return nil
	}
	return s.unmap()
}

// unmap releases the file bytes — both mappings for delta-backed opens —
// and forgets them. It runs on the last reference's release, and during an
// open that failed or copied the sections, before anyone else holds s.
func (s *Snapshot) unmap() error {
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
	s.data, s.delta, s.views = nil, nil, [numSections]sectionView{}
	return err
}

// WarmUp hints the kernel to fault in the sections queries touch first — the
// index entry slab and, for self-contained snapshots, the graph's adjacency
// arrays — via madvise(MADV_WILLNEED) (a no-op off Linux and for snapshots
// whose sections were copied onto the heap). Serving paths call it right after open and
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
// first WarmUp, for heap-backed snapshots, and off Linux. The returned slice
// is read-only.
func (s *Snapshot) Advices() []string {
	if p := s.advices.Load(); p != nil {
		return *p
	}
	return nil
}

// Verify recomputes the CRC-32C of the mapped section payload against the
// file's trailer — both files' trailers for delta-backed opens — faulting in
// every page. It returns ErrClosed after Close, and nil for a snapshot whose
// sections were copied onto the heap: that open checked the CRC before it
// released the bytes.
func (s *Snapshot) Verify() error {
	if !s.Retain() {
		return ErrClosed
	}
	defer s.Release()
	if !s.mapped {
		return nil
	}
	return s.verify()
}

// verify checks the CRC trailer of every file the snapshot was opened from.
func (s *Snapshot) verify() error {
	if s.deltaLayout != nil {
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

// Close drops the owner reference. The mapping is unmapped once every
// outstanding Retain has been Release'd — immediately when none are — so the
// index (and every result slice aliasing it) must not be used by new work
// afterwards, while queries that retained the snapshot drain safely. Close is
// idempotent for mapped and heap-backed snapshots alike; repeated calls
// return nil.
func (s *Snapshot) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	return s.release()
}
