package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"prsim/internal/graph"
	"prsim/internal/pagerank"
)

// IndexEntry is one (v, ψ_ℓ(v,w)) pair stored in the hub list L_ℓ(w).
//
// The field order and types are part of the snapshot on-disk format: an
// entry is serialized as a 16-byte record (u32 node, u32 zero padding, f64
// reserve bits), which matches this struct's in-memory layout on 64-bit
// little-endian platforms so the mmap loader can view the entry slab as a
// []IndexEntry without copying. Loaders reject any entry whose Node is not a
// node of the graph: queries index per-node score arrays with it.
type IndexEntry struct {
	Node    int32
	Reserve float64
}

// Index is the PRSim index: the reverse PageRank vector, the hub set, and the
// per-hub backward-search reserve lists of Algorithm 1.
//
// The hub lists are stored as one flat slab plus two prefix-sum offset
// arrays (CSR-of-CSR): hub rank i owns level slots
// hubLevelPos[i]..hubLevelPos[i+1], and level slot k owns entries
// entrySlab[entryOffsets[k]:entryOffsets[k+1]]. This is both the in-memory
// and the snapshot's on-disk layout, so the same query code runs unchanged
// whether the slices are heap-allocated (BuildIndex, or DecodeSnapshot
// copying a file's sections) or zero-copy views DecodeSnapshot makes over an
// mmap'd snapshot (internal/snapshot).
type Index struct {
	g    *graph.Graph
	opts Options

	pi       []float64 // reverse PageRank of every node
	hubOrder []int     // hub nodes, sorted by descending reverse PageRank
	hubRank  []int     // node -> position in hubOrder, or -1 for non-hubs

	hubLevelPos  []uint64     // len NumHubs+1: prefix sums of per-hub level counts
	entryOffsets []uint64     // len hubLevelPos[NumHubs]+1: prefix sums into entrySlab
	entrySlab    []IndexEntry // all (node, reserve) pairs, hub-major then level-major

	// freeStates is a LIFO free list of idle queryState scratch (walkers,
	// dense accumulators, median workspace, chunk results); concurrent
	// queries each draw their own state, which is what makes Query safe to
	// call from many goroutines. A query frees its own state after its
	// chunk workers', so the state holding warm chunk buffers merges the
	// next query too. The list keeps its peak size for the Index's lifetime.
	freeMu     sync.Mutex
	freeStates []*queryState

	// tables holds what every pooled walk kernel shares: the packed
	// out-adjacency (head node + head in-degree per edge), the
	// reciprocal-in-degree table, and the per-node walk records (hub rank +
	// first-head in-degree), so the walk phase reads one 8-byte record per
	// walk end, the backward walk's threshold scans stream sequential
	// records, and its inner loop performs no divisions. Built lazily
	// (degOnce) so snapshot-backed indexes get them too without paying for
	// it at open time; every Index, including each one ApplyUpdates makes,
	// owns its own.
	degOnce sync.Once
	tables  walkTables

	// gens is the v4 snapshot generation block (see SnapshotGens): set to
	// generation 1 by BuildIndex, advanced by ApplyUpdates, loaded verbatim
	// from v4 snapshots, and synthesized deterministically for pre-v4 loads.
	gens SnapshotGens

	// acts holds each hub's activation set: the sorted node ids its backward
	// search converted residue at. ApplyUpdates uses it for exact affected-hub
	// detection — a hub needs recomputation iff its set meets the update's
	// endpoint in-neighborhoods. actMass is aligned with acts and records the
	// total reserve the search converted at each activated node (α × the
	// residue pushed from it), which drift-budget updates use to bound how much
	// a skipped recomputation can move the hub's entries. In-memory only
	// (never serialized): BuildIndex and ApplyUpdates populate both as a free
	// by-product of the searches; snapshot- and stream-loaded indexes leave
	// them nil (per-hub nil falls back to the conservative residue-bound
	// detection, and the hub gains its set the first time it is recomputed).
	acts    [][]int32
	actMass [][]float32

	stats IndexStats
}

// Gens returns the index's snapshot generation block: its lineage id, its
// generation counter, and the per-section stamps delta snapshots are built
// from.
func (idx *Index) Gens() SnapshotGens {
	idx.ensureGens()
	return idx.gens
}

// walkTables returns the shared walk tables, building them on first use.
// Safe for concurrent callers; the hub ranks must already be set.
func (idx *Index) walkTables() walkTables {
	idx.degOnce.Do(func() {
		idx.tables = buildWalkTables(idx.g, idx.hubRank)
	})
	return idx.tables
}

// IndexStats reports the cost of preprocessing (Figure 5) and the size of the
// index (Figure 4).
type IndexStats struct {
	// NumHubs is the number of hub nodes actually indexed (j0).
	NumHubs int
	// Entries is the total number of (v, ℓ, ψ) tuples stored.
	Entries int
	// Pushes is the number of backward-push edge relaxations performed.
	Pushes int
	// PageRankTime, PushTime and TotalTime break down preprocessing time.
	PageRankTime time.Duration
	PushTime     time.Duration
	TotalTime    time.Duration
	// SecondMoment is Σ_w π(w)², the graph-hardness measure of Theorem 3.11.
	SecondMoment float64
}

// BuildIndex runs Algorithm 1: it sorts every out-adjacency list by head
// in-degree, computes the reverse PageRank of every node, selects the j0
// nodes with the largest reverse PageRank as hubs, and runs a levelwise
// backward search from each hub with residue threshold rmax = (1-√c)²ε/12,
// storing every reserve above the threshold.
func BuildIndex(g *graph.Graph, opts Options) (*Index, error) {
	return buildIndex(g, opts, nil)
}

// buildIndexWithHubs is BuildIndex with the hub set forced instead of derived
// from the reverse-PageRank ranking. Incremental maintenance keeps the hub
// set fixed across updates, so its parity harness needs a from-scratch build
// over the same hubs to compare against bit for bit.
func buildIndexWithHubs(g *graph.Graph, opts Options, hubOrder []int) (*Index, error) {
	if len(hubOrder) == 0 {
		return nil, fmt.Errorf("core: empty forced hub set")
	}
	return buildIndex(g, opts, hubOrder)
}

func buildIndex(g *graph.Graph, opts Options, forcedHubs []int) (*Index, error) {
	opts, err := opts.fill()
	if err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	start := time.Now()
	if !g.OutSortedByInDegree() {
		g.SortOutByInDegree()
	}

	idx := &Index{g: g, opts: opts}
	n := g.N()

	prStart := time.Now()
	pi, err := pagerank.ReversePageRank(g, pagerank.Options{C: opts.C})
	if err != nil {
		return nil, fmt.Errorf("core: computing reverse PageRank: %w", err)
	}
	idx.pi = pi
	idx.stats.PageRankTime = time.Since(prStart)
	idx.stats.SecondMoment = pagerank.SecondMoment(pi)

	if forcedHubs != nil {
		for _, w := range forcedHubs {
			if err := g.CheckNode(w); err != nil {
				return nil, fmt.Errorf("core: forced hub: %w", err)
			}
		}
		idx.hubOrder = append([]int(nil), forcedHubs...)
	} else {
		j0 := opts.NumHubs
		if j0 < 0 {
			j0 = defaultNumHubs(n)
		}
		if j0 > n {
			j0 = n
		}
		order := pagerank.RankNodesByScore(pi)
		idx.hubOrder = order[:j0]
	}
	j0 := len(idx.hubOrder)
	idx.hubRank = make([]int, n)
	for i := range idx.hubRank {
		idx.hubRank[i] = -1
	}
	for rank, w := range idx.hubOrder {
		idx.hubRank[w] = rank
	}

	pushStart := time.Now()
	built := make([][][]IndexEntry, j0)
	acts := make([][]int32, j0)
	mass := make([][]float32, j0)
	pushes, err := runHubSearches(g, opts, idx.hubOrder, nil, built, acts, mass)
	if err != nil {
		return nil, err
	}
	idx.acts = acts
	idx.actMass = mass
	idx.stats.Pushes = pushes
	// Build the shared walk tables now — they are preprocessing, not query
	// work (snapshot-opened indexes build them lazily on the first query
	// instead, keeping open O(header)).
	idx.walkTables()
	idx.flattenHubLevels(built)
	idx.stats.Entries = len(idx.entrySlab)
	idx.stats.PushTime = time.Since(pushStart)
	idx.stats.NumHubs = j0
	idx.stats.TotalTime = time.Since(start)
	idx.ensureGens()
	return idx, nil
}

// searchHubLevels runs the backward search from hub w and converts the result
// into the trimmed, node-sorted per-level entry lists the flat slab stores. It
// also returns the hub's activation set: every node the search converted
// residue at (reserves before the storage cut), sorted ascending, with the
// total reserve converted at each. An edge mutation can change this search's
// result only if it touches the out-neighborhood or in-degree of an activated
// node, so the activation set is exactly what incremental maintenance needs to
// decide whether the hub's entries survive an update verbatim — and the
// per-node reserve bounds how much the entries can move when a drift budget
// lets a weakly-perturbed hub skip recomputation.
func searchHubLevels(g *graph.Graph, w int, opts Options, rmax float64) ([][]IndexEntry, []int32, []float32, int, error) {
	res, err := pagerank.BackwardSearch(g, w, opts.C, rmax, opts.MaxLevels)
	if err != nil {
		return nil, nil, nil, 0, fmt.Errorf("core: backward search from hub %d: %w", w, err)
	}
	levels := make([][]IndexEntry, len(res.Reserves))
	actSet := make(map[int32]float64)
	for l, lvl := range res.Reserves {
		for v, psi := range lvl {
			actSet[int32(v)] += psi
			if psi > rmax {
				levels[l] = append(levels[l], IndexEntry{Node: int32(v), Reserve: psi})
			}
		}
		sort.Slice(levels[l], func(a, b int) bool { return levels[l][a].Node < levels[l][b].Node })
	}
	acts := make([]int32, 0, len(actSet))
	for v := range actSet {
		acts = append(acts, v)
	}
	sort.Slice(acts, func(a, b int) bool { return acts[a] < acts[b] })
	mass := make([]float32, len(acts))
	for i, v := range acts {
		mass[i] = float32(actSet[v])
	}
	return levels, acts, mass, res.Pushes, nil
}

// runHubSearches fills built[rank] (and acts[rank]/mass[rank] with the hub's
// activation set and per-node reserve masses) with the backward-search levels
// of every hub for which need returns true (nil need means every hub), fanning
// the independent searches across a bounded worker pool. Slots whose hub is
// skipped are left untouched, so incremental maintenance can pre-populate them
// with carried-over levels and activation sets. Returns the total pushes
// performed.
func runHubSearches(g *graph.Graph, opts Options, hubOrder []int, need func(rank int) bool, built [][][]IndexEntry, acts [][]int32, mass [][]float32) (int, error) {
	j0 := len(hubOrder)
	work := make([]int, 0, j0)
	for rank := 0; rank < j0; rank++ {
		if need == nil || need(rank) {
			work = append(work, rank)
		}
	}
	if len(work) == 0 {
		return 0, nil
	}
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(work) {
		workers = len(work)
	}
	if workers < 1 {
		workers = 1
	}
	rmax := opts.rmax()
	// The per-hub backward searches are independent; results land in
	// rank-indexed slots, so no ordering is lost. The first error wins.
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		pushes   int64
		next     int64 = -1
	)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(work) {
					return
				}
				rank := work[i]
				levels, a, m, p, err := searchHubLevels(g, hubOrder[rank], opts, rmax)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				atomic.AddInt64(&pushes, int64(p))
				built[rank] = levels
				acts[rank] = a
				mass[rank] = m
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	return int(pushes), nil
}

// flattenHubLevels packs per-hub, per-level entry lists into the flat slab
// representation (hubLevelPos, entryOffsets, entrySlab).
func (idx *Index) flattenHubLevels(built [][][]IndexEntry) {
	totalLevels, totalEntries := 0, 0
	for _, levels := range built {
		totalLevels += len(levels)
		for _, lvl := range levels {
			totalEntries += len(lvl)
		}
	}
	idx.hubLevelPos = make([]uint64, len(built)+1)
	idx.entryOffsets = make([]uint64, totalLevels+1)
	idx.entrySlab = make([]IndexEntry, 0, totalEntries)
	slot := 0
	for rank, levels := range built {
		for _, lvl := range levels {
			idx.entryOffsets[slot] = uint64(len(idx.entrySlab))
			idx.entrySlab = append(idx.entrySlab, lvl...)
			slot++
		}
		idx.hubLevelPos[rank+1] = idx.hubLevelPos[rank] + uint64(len(levels))
	}
	idx.entryOffsets[slot] = uint64(len(idx.entrySlab))
}

// Graph returns the indexed graph.
func (idx *Index) Graph() *graph.Graph { return idx.g }

// Options returns the (validated, default-filled) options used to build the
// index.
func (idx *Index) Options() Options { return idx.opts }

// Stats returns preprocessing statistics.
func (idx *Index) Stats() IndexStats { return idx.stats }

// ReversePageRank returns the reverse PageRank of node w.
func (idx *Index) ReversePageRank(w int) float64 { return idx.pi[w] }

// SecondMoment returns Σ_w π(w)².
func (idx *Index) SecondMoment() float64 { return idx.stats.SecondMoment }

// IsHub reports whether node w is one of the j0 indexed hub nodes.
func (idx *Index) IsHub(w int) bool { return idx.hubRank[w] >= 0 }

// NumHubs returns j0.
func (idx *Index) NumHubs() int { return len(idx.hubOrder) }

// Hubs returns the hub nodes in descending reverse-PageRank order (aliased).
func (idx *Index) Hubs() []int { return idx.hubOrder }

// HubEntries returns the stored list L_ℓ(w) for hub w at level ℓ, or nil if w
// is not a hub or the level holds no entries. The returned slice aliases the
// index's entry slab (possibly an mmap'd snapshot); callers must not modify
// it.
func (idx *Index) HubEntries(w, level int) []IndexEntry {
	rank := idx.hubRank[w]
	if rank < 0 {
		return nil
	}
	return idx.hubEntriesByRank(rank, level)
}

// hubEntriesByRank is HubEntries addressed by hub rank, for the query's
// index-read pass, whose η·π accumulators are already rank-indexed.
func (idx *Index) hubEntriesByRank(rank, level int) []IndexEntry {
	lo, hi := idx.hubLevelPos[rank], idx.hubLevelPos[rank+1]
	if level < 0 || uint64(level) >= hi-lo {
		return nil
	}
	slot := lo + uint64(level)
	return idx.entrySlab[idx.entryOffsets[slot]:idx.entryOffsets[slot+1]]
}

// hubLevels returns the number of level slots stored for hub rank i.
func (idx *Index) hubLevels(rank int) int {
	return int(idx.hubLevelPos[rank+1] - idx.hubLevelPos[rank])
}

// SizeEntries returns the total number of stored (v, ℓ, ψ) tuples.
func (idx *Index) SizeEntries() int { return idx.stats.Entries }

// SizeBytes returns an estimate of the serialized index size in bytes: the
// packed entry slab plus the reverse PageRank vector and the hub/level offset
// arrays (the snapshot v2 section payload).
func (idx *Index) SizeBytes() int64 {
	return int64(len(idx.entrySlab))*entryRecordBytes +
		int64(len(idx.pi))*8 +
		int64(len(idx.hubOrder))*8 +
		int64(len(idx.hubLevelPos))*8 +
		int64(len(idx.entryOffsets))*8
}
