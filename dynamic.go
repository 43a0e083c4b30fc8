package prsim

import (
	"fmt"
	"io"

	"prsim/internal/core"
	"prsim/internal/graph"
	"prsim/internal/router"
	"prsim/internal/snapshot"
)

// EdgeUpdate is one streamed edge mutation: an insertion of (From, To), or a
// deletion when Delete is set. Batches of updates feed Index.ApplyUpdates.
type EdgeUpdate struct {
	From int
	To   int
	// Delete removes the edge instead of inserting it.
	Delete bool
}

// UpdateStats reports what one incremental ApplyUpdates touched: how many
// hubs were recomputed versus carried over verbatim, how much of the entry
// slab was rewritten, and where the time went. RecomputedHubs and Endpoints
// together form the update's impact set — Served.Update uses them to decide
// which cached query results survive the hot swap.
type UpdateStats struct {
	// Updates is the number of edge mutations applied.
	Updates int
	// HubsTotal and HubsRecomputed count the index's hubs and the subset whose
	// backward-search levels were recomputed; every other hub's entries are
	// byte-identical to the previous index. HubsExact counts hubs tested with
	// exact activation-set detection; the rest (hubs of a freshly loaded
	// snapshot, not yet recomputed in this process) used the conservative
	// residue-bound fallback, which over-marks.
	HubsTotal      int
	HubsRecomputed int
	HubsExact      int
	// HubsSkippedDrift counts perturbed hubs carried verbatim under an
	// UpdateOptions.DriftBudget; zero for exact (default) updates.
	HubsSkippedDrift int
	// FractionHubs is HubsRecomputed / HubsTotal — the paper-facing update
	// cost metric (the updatecost experiment checks it stays well under 1).
	FractionHubs float64
	// EntriesRewritten and EntriesCarried split the successor's entry slab
	// into entries recomputed for dirty hubs and entries copied verbatim.
	EntriesRewritten int
	EntriesCarried   int
	// FractionEntries is EntriesRewritten / total entries after the update.
	FractionEntries float64
	// RecomputedHubs and Endpoints list the affected hub node ids and the
	// distinct update endpoint ids, both ascending.
	RecomputedHubs []int
	Endpoints      []int
	// DetectSeconds is the affected-hub detection pass, PageRankSeconds the
	// exact reverse-PageRank recomputation, PushSeconds the dirty-hub backward
	// searches plus slab rebuild; TotalSeconds covers the whole apply.
	DetectSeconds   float64
	PageRankSeconds float64
	PushSeconds     float64
	TotalSeconds    float64

	// inner carries the internal stats through to Served.Update, whose
	// impact-filtered cache retention needs the raw form.
	inner *core.UpdateStats
}

func wrapUpdateStats(st *core.UpdateStats) *UpdateStats {
	if st == nil {
		return nil
	}
	return &UpdateStats{
		Updates:          st.Updates,
		HubsTotal:        st.HubsTotal,
		HubsRecomputed:   st.HubsRecomputed,
		HubsExact:        st.HubsExact,
		HubsSkippedDrift: st.HubsSkippedDrift,
		FractionHubs:     st.FractionHubs,
		EntriesRewritten: st.EntriesRewritten,
		EntriesCarried:   st.EntriesCarried,
		FractionEntries:  st.FractionEntries,
		RecomputedHubs:   st.RecomputedHubs,
		Endpoints:        st.Endpoints,
		DetectSeconds:    st.DetectTime.Seconds(),
		PageRankSeconds:  st.PageRankTime.Seconds(),
		PushSeconds:      st.PushTime.Seconds(),
		TotalSeconds:     st.TotalTime.Seconds(),
		inner:            st,
	}
}

// ApplyUpdates derives a new index serving the graph with the given edge
// mutations applied, recomputing only the hubs an update can actually perturb
// (typically a small fraction — see UpdateStats.FractionHubs). The receiver
// is left untouched and fully serviceable: both indexes can serve
// concurrently during a handover, and the successor owns heap copies of
// everything, so a snapshot-backed receiver can be Closed once traffic has
// moved over (Served.Update does exactly that).
//
// The result is bit-identical to BuildIndex over the mutated graph with the
// same options and the predecessor's hub set. An empty batch returns the
// receiver itself.
func (idx *Index) ApplyUpdates(updates []EdgeUpdate) (*Index, *UpdateStats, error) {
	return idx.ApplyUpdatesOpts(updates, UpdateOptions{})
}

// UpdateOptions tunes one ApplyUpdatesOpts call. The zero value keeps the
// exact (bit-identical) contract.
type UpdateOptions struct {
	// DriftBudget θ > 0 lets hubs whose total perturbation is at most θ·rmax
	// keep their entries verbatim instead of recomputing, shrinking the
	// update's footprint at the cost of a bounded score drift (within the
	// truncation slack the index already tolerates — worst case roughly
	// (1+θ)·ε, far smaller in practice). Useful range is (0, 1]; zero means
	// exact. Requires the index's in-memory activation sets; hubs still on
	// the conservative fallback path always recompute when marked.
	DriftBudget float64
}

// ApplyUpdatesOpts is ApplyUpdates with per-call tuning; see UpdateOptions.
func (idx *Index) ApplyUpdatesOpts(updates []EdgeUpdate, uo UpdateOptions) (*Index, *UpdateStats, error) {
	ups := make([]graph.EdgeUpdate, len(updates))
	for i, u := range updates {
		ups[i] = graph.EdgeUpdate{From: u.From, To: u.To, Delete: u.Delete}
	}
	nidx, st, err := idx.idx.ApplyUpdatesOpts(ups, core.UpdateOptions{DriftBudget: uo.DriftBudget})
	if err != nil {
		return nil, nil, err
	}
	if nidx == idx.idx {
		return idx, wrapUpdateStats(st), nil
	}
	return &Index{g: wrapGraph(nidx.Graph()), idx: nidx}, wrapUpdateStats(st), nil
}

// SnapshotGens identifies a snapshot's position in its update lineage: which
// BuildIndex ancestry it descends from and how many ApplyUpdates steps it is
// past the build. It is the key delta snapshots are addressed by — WriteDelta
// takes the *base* snapshot's gens and ships only the sections newer than it.
// Obtain one from Index.Gens (the in-memory index) or SnapshotFileGens (an
// on-disk file, without loading it).
type SnapshotGens struct {
	g core.SnapshotGens
}

// Generation returns the snapshot's update generation: 1 for a fresh build,
// +1 per ApplyUpdates batch since.
func (s SnapshotGens) Generation() uint64 { return s.g.Generation }

// Gens returns the index's generation stamps.
func (idx *Index) Gens() SnapshotGens { return SnapshotGens{g: idx.idx.Gens()} }

// Generation returns the index's update generation (1 for a fresh build, +1
// per applied batch).
func (idx *Index) Generation() uint64 { return idx.idx.Gens().Generation }

// SnapshotFileGens reads the generation stamps of a saved snapshot from its
// header without loading the file. ok is false for v3 snapshots, which carry
// no stamps and cannot serve as a delta base until rewritten by Save.
func SnapshotFileGens(path string) (SnapshotGens, bool, error) {
	g, ok, err := core.ReadSnapshotGens(path)
	return SnapshotGens{g: g}, ok, err
}

// WriteDelta writes a delta snapshot against a base with the given gens: only
// the sections whose bytes changed since the base generation ship, so a small
// update batch yields a delta far smaller than the full snapshot. The base
// must share the index's lineage and be strictly older. OpenSnapshotDelta
// layers the delta back over the base file.
func (idx *Index) WriteDelta(w io.Writer, base SnapshotGens) error {
	return idx.idx.WriteDelta(w, base.g)
}

// WriteDeltaFile writes a delta snapshot to a file.
func (idx *Index) WriteDeltaFile(path string, base SnapshotGens) error {
	return idx.idx.WriteDeltaFile(path, base.g)
}

// DeltaSize returns the exact byte size a WriteDelta against the given base
// would produce, without writing it — serving layers compare it against the
// full snapshot size to decide between publishing a delta and a full rewrite.
func (idx *Index) DeltaSize(base SnapshotGens) (uint64, error) {
	return idx.idx.DeltaSize(base.g)
}

// OpenSnapshotDelta opens the successor snapshot described by a delta file
// layered over its base snapshot, without materializing the spliced file:
// both files are memory-mapped and every section is decoded from whichever
// file holds its current bytes — zero-copy where OpenSnapshot's is, copied
// onto the heap elsewhere. Queries are bit-identical to opening a full Save
// of the successor. The base must be the v4 snapshot the delta was written
// against (same lineage and generation); mismatches fail at open.
func OpenSnapshotDelta(basePath, deltaPath string) (*Index, error) {
	snap, err := snapshot.OpenDelta(basePath, deltaPath, snapshot.Options{})
	if err != nil {
		return nil, err
	}
	idx, err := snap.Index()
	if err != nil {
		snap.Close()
		return nil, err
	}
	sg, err := snap.Graph()
	if err != nil {
		snap.Close()
		return nil, err
	}
	snap.WarmUp()
	return &Index{g: wrapGraph(sg), idx: idx, snap: snap}, nil
}

// Update hot-swaps every shard of a served graph onto an ApplyUpdates
// successor without an opener round trip and without dropping in-flight
// requests, then closes the previous backing once traffic drains. When st is
// the stats of the apply that produced idx, each shard's result cache keeps
// the entries provably untouched by the update (source and score support
// disjoint from the recomputed hubs and update endpoints) instead of purging
// wholesale; pass nil to purge. The swap does not bump the reload generation —
// use Index.Generation to observe update progress.
func (s *Served) Update(idx *Index, st *UpdateStats) error {
	if idx == nil {
		return fmt.Errorf("prsim: nil index")
	}
	var impact *core.UpdateStats
	if st != nil {
		impact = st.inner
	}
	return s.s.Update(router.Opened{
		Index: idx.idx,
		Res:   idx.engineResource(),
		Close: idx.Close,
		Tag:   idx,
	}, impact)
}
