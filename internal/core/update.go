package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"prsim/internal/graph"
	"prsim/internal/pagerank"
)

// UpdateStats reports what one incremental ApplyUpdates touched: how many
// hubs were recomputed versus carried over verbatim, how much of the entry
// slab was rewritten, and where the time went. RecomputedHubs and Endpoints
// together form the update's impact set — the serving layer uses them to
// decide which cached query results survive the swap.
type UpdateStats struct {
	// Updates is the number of edge mutations applied.
	Updates int
	// HubsTotal and HubsRecomputed count the index's hubs and the subset
	// whose backward-search levels were recomputed; every other hub's entries
	// are byte-identical to the previous index.
	HubsTotal      int
	HubsRecomputed int
	// HubsExact counts the hubs tested with exact activation-set detection;
	// the remainder (snapshot-loaded hubs not yet recomputed in this process)
	// used the conservative residue-bound fallback.
	HubsExact int
	// HubsSkippedDrift counts the hubs the update provably perturbs that were
	// nevertheless carried verbatim because their total perturbation fit the
	// drift budget (see UpdateOptions.DriftBudget). Zero for exact updates.
	HubsSkippedDrift int
	// EntriesBefore/EntriesAfter are the total stored entries on each side of
	// the update; EntriesRewritten counts entries now stored for recomputed
	// hubs and EntriesCarried those copied verbatim from clean hubs.
	EntriesBefore    int
	EntriesAfter     int
	EntriesRewritten int
	EntriesCarried   int
	// FractionHubs and FractionEntries are the touched shares (recomputed
	// hubs / total hubs, rewritten entries / after-update entries).
	FractionHubs    float64
	FractionEntries float64
	// Pushes is the number of backward-push relaxations the recomputation
	// performed (the incremental analogue of IndexStats.Pushes).
	Pushes int
	// RecomputedHubs lists the recomputed hubs' node ids, ascending.
	RecomputedHubs []int
	// Endpoints lists the distinct update endpoint node ids, ascending.
	Endpoints []int
	// DetectTime is the affected-hub detection pass, PageRankTime the full
	// reverse-PageRank recomputation, PushTime the dirty-hub backward
	// searches plus slab rebuild; TotalTime covers the whole apply.
	DetectTime   time.Duration
	PageRankTime time.Duration
	PushTime     time.Duration
	TotalTime    time.Duration
}

// ApplyUpdates derives a new index that serves the graph with the given edge
// mutations applied, recomputing only the hubs an update can actually
// perturb. The receiver is left untouched and fully serviceable — the caller
// swaps traffic over and retires it (the two indexes share no mutable state,
// so both can serve concurrently during the handover).
//
// The hub set is carried over unchanged: hub selection only shapes the
// index-size/query-time trade-off, never correctness, and keeping it fixed is
// what lets every unaffected hub's entries stay byte-identical. A hub w needs
// recomputation only if its backward search pushes from a node the mutation
// touches: the update's source (its out-neighbor set changed) or an
// in-neighbor of the update's target on either graph (its push into the
// target changed weight, since the target's in-degree changed). A search that
// never pushes from such a node replays move for move on the new graph, so
// carrying its entries verbatim is exact, not approximate. Hubs whose
// activation sets are in memory (built in-process, or recomputed at least
// once since a snapshot load) are tested exactly against that set; hubs
// without one fall back to a sound residue upper bound (markAffected), which
// is far more conservative. Only recomputed hubs gain activation sets: a
// carried hub copies the loaded index's empty one, so after a snapshot load
// every hub no update has recomputed yet stays on the fallback. The
// reverse-PageRank vector is recomputed exactly (it is deterministic), so the
// result matches a from-scratch build over the same hub set bit for bit.
// Periodically rebuilding with BuildIndex re-optimizes the hub selection
// itself.
func (idx *Index) ApplyUpdates(updates []graph.EdgeUpdate) (*Index, *UpdateStats, error) {
	return idx.ApplyUpdatesOpts(updates, UpdateOptions{})
}

// UpdateOptions tunes one ApplyUpdatesOpts call.
type UpdateOptions struct {
	// DriftBudget trades a bounded score drift for a smaller recompute
	// footprint. With a budget θ > 0, a perturbed hub skips recomputation when
	// the residue the batch injects into its search — each mask node's pushed
	// residue times the first-order weight change of its push (√c/(din·din')
	// for an in-neighbor of a target whose in-degree moved, √c/din for the
	// source's added or removed push into the target) — totals at most θ·rmax.
	// That is the same order as the per-node truncation slack the search
	// already tolerates, so single-source scores stay within roughly (1+θ)·ε
	// of the exact index; the updatecost experiment measures the realized
	// drift directly, and it is far below ε in practice. Zero (the default)
	// keeps the strict contract: the result is bit-identical to a
	// from-scratch build over the mutated graph with the same hub set.
	// Budgeted skips require the hub's in-memory activation masses;
	// fallback-detected hubs (fresh snapshot loads) always recompute when
	// marked.
	DriftBudget float64
}

// ApplyUpdatesOpts is ApplyUpdates with per-call tuning; see UpdateOptions.
func (idx *Index) ApplyUpdatesOpts(updates []graph.EdgeUpdate, uo UpdateOptions) (*Index, *UpdateStats, error) {
	start := time.Now()
	stats := &UpdateStats{
		Updates:       len(updates),
		HubsTotal:     len(idx.hubOrder),
		EntriesBefore: len(idx.entrySlab),
		EntriesAfter:  len(idx.entrySlab),
	}
	if len(updates) == 0 {
		return idx, stats, nil
	}

	gOld := idx.g
	work := gOld.Clone()
	if err := work.ApplyUpdates(updates); err != nil {
		return nil, nil, err
	}
	gNew := work.Compact()
	gNew.SortOutByInDegree()

	opts := idx.opts
	rmax := opts.rmax()

	detectStart := time.Now()
	// mask marks every node whose role in the push recurrence the batch
	// changes: update sources (out-neighbor sets) and in-neighbors of update
	// targets on both graphs (push weights into a target scale by its
	// in-degree). A search is invalidated iff it pushes from a masked node.
	//
	// Under a drift budget, maskW additionally bounds the residue a unit of
	// pushed mass at the node injects into the successor search: an
	// in-neighbor's push into the target changes weight by
	// √c·|1/din − 1/din'| = √c/(din·din'), and the source's push into the
	// target appears or disappears wholesale at √c/din. A source whose
	// out-degree transitions through zero changes its conversion behavior
	// entirely and gets the full factor 1.
	sqrtC := math.Sqrt(opts.C)
	mask := make([]bool, gOld.N())
	var maskW []float64
	if uo.DriftBudget > 0 {
		maskW = make([]float64, gOld.N())
	}
	for _, up := range updates {
		mask[up.From] = true
		for _, a := range gOld.InNeighbors(up.To) {
			mask[a] = true
		}
		for _, a := range gNew.InNeighbors(up.To) {
			mask[a] = true
		}
		if maskW == nil {
			continue
		}
		dinOld := float64(gOld.InDegree(up.To))
		dinNew := float64(gNew.InDegree(up.To))
		var w float64
		switch {
		case dinOld > 0 && dinNew > 0:
			w = sqrtC * math.Abs(dinNew-dinOld) / (dinOld * dinNew)
		case dinOld > 0:
			w = sqrtC / dinOld
		case dinNew > 0:
			w = sqrtC / dinNew
		}
		for _, a := range gOld.InNeighbors(up.To) {
			maskW[a] += w
		}
		for _, a := range gNew.InNeighbors(up.To) {
			maskW[a] += w
		}
		d := dinNew
		if up.Delete {
			d = dinOld
		}
		uw := 1.0
		if gOld.OutDegree(up.From) > 0 && gNew.OutDegree(up.From) > 0 && d > 0 {
			uw = sqrtC / d
		}
		maskW[up.From] += uw
	}

	// The old hub order may alias a read-only snapshot mapping; the new index
	// must own heap copies of everything so the old backing can be unmapped.
	hubs := append([]int(nil), idx.hubOrder...)
	dirtyRank := make([]bool, len(hubs))
	// A drift budget θ skips perturbed hubs whose injected residue bound —
	// Σ over mask hits of (pushed residue)·maskW, with pushed residue
	// recovered from the stored reserve mass as mass/α — stays within θ·rmax,
	// the same order as the per-node truncation slack the search already
	// tolerates.
	alpha := 1 - sqrtC
	var dirtyNode []bool // conservative fallback, computed on first need
	for rank, w := range hubs {
		var dirty bool
		if idx.acts != nil && idx.acts[rank] != nil {
			stats.HubsExact++
			if maskW != nil && idx.actMass != nil && idx.actMass[rank] != nil {
				injected := 0.0
				hit := false
				for i, a := range idx.acts[rank] {
					if mask[a] {
						hit = true
						injected += float64(idx.actMass[rank][i]) / alpha * maskW[a]
					}
				}
				dirty = injected > uo.DriftBudget*rmax
				if hit && !dirty {
					stats.HubsSkippedDrift++
				}
			} else {
				for _, a := range idx.acts[rank] {
					if mask[a] {
						dirty = true
						break
					}
				}
			}
		} else {
			if dirtyNode == nil {
				dirtyNode = make([]bool, gOld.N())
				markAffected(gOld, updates, opts, rmax, dirtyNode)
				markAffected(gNew, updates, opts, rmax, dirtyNode)
			}
			dirty = dirtyNode[w]
		}
		if dirty {
			dirtyRank[rank] = true
			stats.HubsRecomputed++
			stats.RecomputedHubs = append(stats.RecomputedHubs, w)
		}
	}
	stats.DetectTime = time.Since(detectStart)
	sort.Ints(stats.RecomputedHubs)
	endpoints := make(map[int]bool, 2*len(updates))
	for _, up := range updates {
		endpoints[up.From] = true
		endpoints[up.To] = true
	}
	for v := range endpoints {
		stats.Endpoints = append(stats.Endpoints, v)
	}
	sort.Ints(stats.Endpoints)

	prStart := time.Now()
	pi, err := pagerank.ReversePageRank(gNew, pagerank.Options{C: opts.C})
	if err != nil {
		return nil, nil, fmt.Errorf("core: recomputing reverse PageRank: %w", err)
	}
	stats.PageRankTime = time.Since(prStart)

	nidx := &Index{g: gNew, opts: opts, pi: pi}
	nidx.hubOrder = hubs
	nidx.hubRank = make([]int, gNew.N())
	for i := range nidx.hubRank {
		nidx.hubRank[i] = -1
	}
	for rank, w := range hubs {
		nidx.hubRank[w] = rank
	}

	pushStart := time.Now()
	built := make([][][]IndexEntry, len(hubs))
	nidx.acts = make([][]int32, len(hubs))
	nidx.actMass = make([][]float32, len(hubs))
	for rank := range hubs {
		if dirtyRank[rank] {
			continue
		}
		// Carried hubs keep their exact level structure: views into the old
		// slab, copied verbatim (hence byte-identical) by the flatten below.
		// Their activation sets (when known) carry too — the slices are
		// immutable and heap-owned, never mmap views.
		levels := make([][]IndexEntry, idx.hubLevels(rank))
		for l := range levels {
			levels[l] = idx.hubEntriesByRank(rank, l)
			stats.EntriesCarried += len(levels[l])
		}
		built[rank] = levels
		if idx.acts != nil {
			nidx.acts[rank] = idx.acts[rank]
		}
		if idx.actMass != nil {
			nidx.actMass[rank] = idx.actMass[rank]
		}
	}
	pushes, err := runHubSearches(gNew, opts, hubs, func(rank int) bool { return dirtyRank[rank] }, built, nidx.acts, nidx.actMass)
	if err != nil {
		return nil, nil, err
	}
	stats.Pushes = pushes
	nidx.flattenHubLevels(built)
	nidx.walkTables()
	stats.PushTime = time.Since(pushStart)

	nidx.stats = IndexStats{
		NumHubs:      len(hubs),
		Entries:      len(nidx.entrySlab),
		Pushes:       pushes,
		PageRankTime: stats.PageRankTime,
		PushTime:     stats.PushTime,
		SecondMoment: pagerank.SecondMoment(pi),
	}
	nidx.advanceGens(idx)
	stats.EntriesAfter = len(nidx.entrySlab)
	stats.EntriesRewritten = stats.EntriesAfter - stats.EntriesCarried
	if stats.HubsTotal > 0 {
		stats.FractionHubs = float64(stats.HubsRecomputed) / float64(stats.HubsTotal)
	}
	if stats.EntriesAfter > 0 {
		stats.FractionEntries = float64(stats.EntriesRewritten) / float64(stats.EntriesAfter)
	}
	stats.TotalTime = time.Since(start)
	nidx.stats.TotalTime = stats.TotalTime
	return nidx, stats, nil
}

// advanceGens stamps the updated index's generation block: same lineage as
// the predecessor, generation one higher, and a fresh stamp on exactly the
// sections whose serialized bytes actually changed. Byte-identical sections
// keep the predecessor's stamp, which is what lets WriteDelta leave them out
// of the wire format.
func (nidx *Index) advanceGens(old *Index) {
	old.ensureGens()
	nidx.gens = old.gens
	nidx.gens.Generation++
	gen := nidx.gens.Generation

	oldOutOff, oldOutAdj, oldInOff, oldInAdj := old.g.CSR()
	newOutOff, newOutAdj, newInOff, newInAdj := nidx.g.CSR()
	changed := [snapshotSectionCount]bool{
		sectionPi:           !slicesEq(old.pi, nidx.pi),
		sectionHubOrder:     !slicesEq(old.hubOrder, nidx.hubOrder),
		sectionHubLevelPos:  !slicesEq(old.hubLevelPos, nidx.hubLevelPos),
		sectionEntryOffsets: !slicesEq(old.entryOffsets, nidx.entryOffsets),
		sectionEntrySlab:    !slicesEq(old.entrySlab, nidx.entrySlab),
		sectionGraphOutOff:  !slicesEq(oldOutOff, newOutOff),
		sectionGraphOutAdj:  !slicesEq(oldOutAdj, newOutAdj),
		sectionGraphInOff:   !slicesEq(oldInOff, newInOff),
		sectionGraphInAdj:   !slicesEq(oldInAdj, newInAdj),
		// Labels are carried verbatim by Compact and never touched by edge
		// updates, so their stamps always survive.
	}
	for i, c := range changed {
		if c {
			nidx.gens.Sections[i] = gen
		}
	}
}

// slicesEq reports element-wise equality of two slices of comparable values.
func slicesEq[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// markAffected sets dirty[w] for every node w whose backward search on g can
// activate an update endpoint, by propagating an upper bound on the residue a
// search from w could hold at the seeds. It is the conservative fallback for
// hubs without an in-memory activation set (fresh snapshot loads): the bound
// ignores truncation, so it over-marks heavily — by design it only needs to
// be sound. A hub it marks is recomputed and gains its activation set, so
// exact detection spreads one recomputed hub at a time; hubs it leaves
// unmarked are carried with no set and keep using this bound.
//
// The bound follows from unrolling the push recurrence: the residue a search
// from w has at node x at level ℓ is at most Σ over length-ℓ out-paths w→x of
// ∏ √c/din(z) (truncation only shrinks it). That sum is exactly what this
// pass accumulates level by level from the seeds along in-edges. Seeds are,
// per update u→v: u with mass 1 (u's out-neighbor set changed, so any search
// activating u diverges) and v with mass din(v)/√c (din(v) changed, so any
// search pushing into v diverges; a push into v requires residue ≥ rmax at an
// in-neighbor, which forces the untruncated residue at v itself to at least
// √c·rmax/din(v) — the seed scaling folds that into the uniform rmax test).
// Running the pass on both the old and the new graph covers searches that
// activate an endpoint on either side of the mutation.
func markAffected(g *graph.Graph, updates []graph.EdgeUpdate, opts Options, rmax float64, dirty []bool) {
	n := g.N()
	sqrtC := math.Sqrt(opts.C)
	cur := make([]float64, n)
	next := make([]float64, n)
	total := 0.0
	for _, up := range updates {
		cur[up.From] += 1
		total += 1
		if din := g.InDegree(up.To); din > 0 {
			m := float64(din) / sqrtC
			cur[up.To] += m
			total += m
		}
	}
	for level := 0; level < opts.MaxLevels; level++ {
		for x := 0; x < n; x++ {
			if cur[x] >= rmax {
				dirty[x] = true
			}
		}
		// No single node can exceed the total remaining mass, and one
		// propagation step scales the total by √c — stop once nothing can
		// reach the threshold anymore.
		if total*sqrtC < rmax || level == opts.MaxLevels-1 {
			break
		}
		for x := range next {
			next[x] = 0
		}
		totalNext := 0.0
		for b := 0; b < n; b++ {
			fb := cur[b]
			if fb == 0 {
				continue
			}
			din := g.InDegree(b)
			if din == 0 {
				continue
			}
			w := sqrtC * fb / float64(din)
			for _, a := range g.InNeighbors(b) {
				next[int(a)] += w
			}
			totalNext += sqrtC * fb
		}
		cur, next = next, cur
		total = totalNext
	}
}
