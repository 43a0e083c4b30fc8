// Package prsim is the public API of the PRSim library: sublinear-time
// single-source SimRank queries on large power-law graphs, reproducing
// "PRSim: Sublinear Time SimRank Computation on Large Power-Law Graphs"
// (Wei et al., SIGMOD 2019).
//
// The typical workflow is:
//
//	g, err := prsim.LoadGraphFile("graph.txt")        // or Generate*/LoadDataset
//	idx, err := prsim.BuildIndex(g, prsim.Options{Epsilon: 0.1})
//	resp, err := idx.Do(ctx, prsim.Request{Source: u}) // single-source SimRank
//	top := resp.Result.TopK(50)
//
// Index.Do answers one request in-process; a Registry serves mounted indexes
// with a worker pool, result cache, request coalescing and sharding behind
// the same Request and Response types.
//
// The package also exposes the baseline algorithms evaluated in the paper
// (Monte Carlo, SLING, ProbeSim, READS, TSF, TopSim) behind a common
// Algorithm interface, plus the synthetic graph generators and dataset
// stand-ins used by the benchmark harness.
package prsim

import (
	"context"
	"fmt"
	"io"

	"prsim/internal/core"
	"prsim/internal/dataset"
	"prsim/internal/engine"
	"prsim/internal/gen"
	"prsim/internal/graph"
	"prsim/internal/snapshot"
)

// DefaultDecay is the SimRank decay factor c = 0.6 used throughout the
// paper's experiments.
const DefaultDecay = core.DefaultDecay

// ErrInvalidNode is returned (wrapped with the offending id) when a query
// names a node outside [0, NumNodes()). Servers use errors.Is against it to
// classify bad requests.
var ErrInvalidNode = graph.ErrInvalidNode

// ErrSnapshotClosed is returned by Verify (and surfaced by engines) when a
// snapshot-backed index is used after Close.
var ErrSnapshotClosed = snapshot.ErrClosed

// Graph is a directed graph ready for SimRank computation. Node identifiers
// are dense integers in [0, NumNodes()).
type Graph struct {
	g *graph.Graph
	// labels holds the original node labels when the graph was parsed from a
	// labelled edge list; nil otherwise.
	labels []string
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.g.N() }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return g.g.M() }

// AverageDegree returns the average out-degree m/n.
func (g *Graph) AverageDegree() float64 { return g.g.AverageDegree() }

// OutDegree returns the out-degree of node v.
func (g *Graph) OutDegree(v int) int { return g.g.OutDegree(v) }

// InDegree returns the in-degree of node v.
func (g *Graph) InDegree(v int) int { return g.g.InDegree(v) }

// Label returns the original label of node v when the graph was built from a
// labelled edge list, or its numeric id otherwise. Safe on a nil receiver —
// responses gathered from remote shards carry no local graph, and their
// labels resolve to numeric ids.
func (g *Graph) Label(v int) string {
	if g != nil && g.labels != nil && v >= 0 && v < len(g.labels) {
		return g.labels[v]
	}
	return fmt.Sprintf("%d", v)
}

// OutDegreeExponent estimates the cumulative power-law exponent γ of the
// out-degree distribution, the quantity that governs PRSim's query cost
// (Theorem 3.12). The boolean is false when the degree spread is too narrow
// for a meaningful fit.
func (g *Graph) OutDegreeExponent() (float64, bool) { return g.g.OutPowerLawExponent() }

// WriteEdgeList writes the graph as a plain "u v" edge list.
func (g *Graph) WriteEdgeList(w io.Writer) error { return g.g.WriteEdgeList(w) }

// Internal exposes the underlying internal graph for the benchmark harness
// and examples inside this module. It is not part of the stable API.
func (g *Graph) Internal() *graph.Graph { return g.g }

// ParseGraph reads a whitespace-separated edge list ("u v" per line, '#'
// comments allowed) and returns a Graph. Node labels may be arbitrary tokens;
// they are mapped to dense ids in first-seen order and recoverable through
// Label (and preserved in self-contained snapshots).
func ParseGraph(r io.Reader) (*Graph, error) {
	g, err := graph.ReadEdgeList(r)
	if err != nil {
		return nil, err
	}
	return wrapGraph(g), nil
}

// LoadGraphFile reads an edge-list file from disk.
func LoadGraphFile(path string) (*Graph, error) {
	g, err := graph.ReadEdgeListFile(path)
	if err != nil {
		return nil, err
	}
	return wrapGraph(g), nil
}

// wrapGraph lifts an internal graph into the public type, carrying any node
// labels it holds (parsed edge lists and embedded snapshot graphs have them).
func wrapGraph(g *graph.Graph) *Graph {
	return &Graph{g: g, labels: g.Labels()}
}

// NewGraphFromEdges builds a graph with n nodes from (from, to) pairs.
func NewGraphFromEdges(n int, edges [][2]int) (*Graph, error) {
	b := graph.NewBuilderN(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// NewGraphFromLabelledEdges builds a graph from labelled edges, interning the
// labels; Label recovers the original names.
func NewGraphFromLabelledEdges(edges [][2]string) (*Graph, error) {
	b := graph.NewBuilder()
	for _, e := range edges {
		b.AddEdgeLabels(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	return wrapGraph(g), nil
}

// GeneratePowerLawGraph generates a synthetic graph whose degree distribution
// follows a power law with cumulative exponent gamma (see internal/gen for
// the Chung-Lu construction).
func GeneratePowerLawGraph(n int, avgDegree, gamma float64, directed bool, seed uint64) (*Graph, error) {
	g, err := gen.PowerLaw(gen.PowerLawOptions{
		N: n, AvgDegree: avgDegree, Gamma: gamma, Directed: directed, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// GenerateERGraph generates an Erdős–Rényi graph with the given average
// degree.
func GenerateERGraph(n int, avgDegree float64, directed bool, seed uint64) (*Graph, error) {
	g, err := gen.ErdosRenyi(gen.EROptions{N: n, AvgDegree: avgDegree, Directed: directed, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// DatasetNames lists the benchmark dataset stand-ins (DB, LJ, IT, TW, UK).
func DatasetNames() []string { return dataset.Names() }

// LoadDataset generates the synthetic stand-in for one of the paper's
// benchmark datasets.
func LoadDataset(name string) (*Graph, error) {
	g, _, err := dataset.Load(name)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// Options configures PRSim index construction and querying. The zero value
// uses the paper's defaults (c = 0.6, ε = 0.1, δ = 1e-4, j0 = √n).
type Options struct {
	// Decay is the SimRank decay factor c in (0, 1); 0 means DefaultDecay.
	Decay float64
	// Epsilon is the target additive error of single-source queries.
	Epsilon float64
	// Delta is the failure probability.
	Delta float64
	// NumHubs is j0, the number of hub nodes to index; negative or zero means
	// the automatic √n choice, and SetIndexFree disables the index entirely.
	NumHubs int
	// IndexFree disables the hub index (j0 = 0).
	IndexFree bool
	// Seed makes all randomized components deterministic.
	Seed uint64
	// SampleScale scales the query-time Monte Carlo sample count relative to
	// the paper's worst-case constants (1.0 = paper constants).
	SampleScale float64
	// MaxLevels caps the number of walk levels considered anywhere (the decay
	// makes deep levels negligible); 0 means the default of 64.
	MaxLevels int
	// Parallelism sets the number of goroutines used for preprocessing
	// (per-hub backward searches); 0 means GOMAXPROCS.
	Parallelism int
}

func (o Options) toCore() core.Options {
	numHubs := -1
	if o.IndexFree {
		numHubs = 0
	} else if o.NumHubs > 0 {
		numHubs = o.NumHubs
	}
	return core.Options{
		C:           o.Decay,
		Epsilon:     o.Epsilon,
		Delta:       o.Delta,
		NumHubs:     numHubs,
		MaxLevels:   o.MaxLevels,
		Seed:        o.Seed,
		SampleScale: o.SampleScale,
		Parallelism: o.Parallelism,
	}
}

// Index is a PRSim index over one graph. It is safe for concurrent use.
type Index struct {
	g   *Graph
	idx *core.Index

	// snap is non-nil when the index was opened from a snapshot file via
	// OpenSnapshot; Close releases its mapping.
	snap *snapshot.Snapshot
}

// BuildIndex runs PRSim preprocessing (Algorithm 1 of the paper) and returns
// a queryable index.
func BuildIndex(g *Graph, opts Options) (*Index, error) {
	if g == nil {
		return nil, fmt.Errorf("prsim: nil graph")
	}
	idx, err := core.BuildIndex(g.g, opts.toCore())
	if err != nil {
		return nil, err
	}
	return &Index{g: g, idx: idx}, nil
}

// Graph returns the indexed graph.
func (idx *Index) Graph() *Graph { return idx.g }

// SizeBytes estimates the in-memory index size.
func (idx *Index) SizeBytes() int64 { return idx.idx.SizeBytes() }

// NumHubs returns the number of indexed hub nodes (j0).
func (idx *Index) NumHubs() int { return idx.idx.NumHubs() }

// SecondMoment returns Σ_w π(w)², the reverse-PageRank second moment that
// bounds PRSim's expected query cost (Theorem 3.11). Values near zero mean
// queries are cheap; the worst case is 1.
func (idx *Index) SecondMoment() float64 { return idx.idx.SecondMoment() }

// Stats returns preprocessing statistics.
func (idx *Index) Stats() IndexStats {
	s := idx.idx.Stats()
	return IndexStats{
		NumHubs:      s.NumHubs,
		Entries:      s.Entries,
		SecondMoment: s.SecondMoment,
		BuildTime:    s.TotalTime.Seconds(),
	}
}

// IndexStats summarizes preprocessing.
type IndexStats struct {
	// NumHubs is the number of hub nodes indexed.
	NumHubs int
	// Entries is the number of stored (node, level, reserve) tuples.
	Entries int
	// SecondMoment is Σ_w π(w)².
	SecondMoment float64
	// BuildTime is the preprocessing wall-clock time in seconds.
	BuildTime float64
}

// QueryPairCtx estimates the single-pair SimRank s(u, v) to within Epsilon
// with probability 1-Delta. It does not use the hub index and is cheaper than
// a full single-source query when only one value is needed. The context
// aborts the estimate early.
func (idx *Index) QueryPairCtx(ctx context.Context, u, v int) (float64, error) {
	return idx.idx.QueryPairCtx(ctx, u, v)
}

// Save writes the index to w; Load restores it for the same graph.
func (idx *Index) Save(w io.Writer) error { return idx.idx.Save(w) }

// SaveFile writes the index to a file.
func (idx *Index) SaveFile(path string) error { return idx.idx.SaveFile(path) }

// LoadIndex restores an index previously written with Save (a v4 snapshot, or
// v3; v1 and v2 files are rejected). The graph must be the same graph the
// index was built from.
func LoadIndex(r io.Reader, g *Graph) (*Index, error) {
	if g == nil {
		return nil, fmt.Errorf("prsim: nil graph")
	}
	idx, err := core.LoadIndex(r, g.g)
	if err != nil {
		return nil, err
	}
	return &Index{g: g, idx: idx}, nil
}

// LoadIndexFile restores an index from a file.
func LoadIndexFile(path string, g *Graph) (*Index, error) {
	if g == nil {
		return nil, fmt.Errorf("prsim: nil graph")
	}
	idx, err := core.LoadIndexFile(path, g.g)
	if err != nil {
		return nil, err
	}
	return &Index{g: g, idx: idx}, nil
}

// OpenSnapshot opens a saved index file (written by Save) by memory-mapping
// it: the index's internal arrays become zero-copy views over the mapping, so
// opening is near-instant regardless of index size, pages are faulted in
// lazily as queries touch them, and multiple processes mapping the same file
// share one page cache. Query results are bit-identical to LoadIndexFile for
// the same file and graph.
//
// The file must be a v4 snapshot (or v3, which lacks only the generation
// block); v1 and v2 files are rejected. g is normally nil: the graph embedded
// in the file (CSR adjacency plus any node labels) is reconstructed from the
// same mapping, so no edge-list file is needed at all. A supplied g is
// cross-checked against the embedded graph's shape and then used for queries.
//
// The views need a 64-bit little-endian host with mmap. Elsewhere the same
// decoder copies every section onto the heap, as LoadIndexFile does, and
// checks the payload CRC while it still has the bytes; Backing and
// GraphBacking report which happened. A snapshot-backed index must be
// released with Close when no longer needed; Close defers the unmap until
// queries served through a Registry have drained.
//
// OpenSnapshot always validates the structural invariants that queries rely
// on for memory safety (including the embedded graph's CSR bounds and the
// index entries' node ids), but skips the CRC of the bulk payload so opening
// stays cheap; call Verify to run the full integrity check (it faults in
// every page once).
func OpenSnapshot(path string, g *Graph) (*Index, error) {
	var ig *graph.Graph
	if g != nil {
		ig = g.g
	}
	snap, err := snapshot.Open(path, ig, snapshot.Options{})
	if err != nil {
		return nil, err
	}
	idx, err := snap.Index()
	if err != nil {
		snap.Close()
		return nil, err
	}
	if g == nil {
		sg, err := snap.Graph()
		if err != nil {
			snap.Close()
			return nil, err
		}
		g = wrapGraph(sg)
	}
	// Kick off asynchronous readahead of the hot sections (entry slab,
	// adjacency) so the first queries do not pay the page-fault cliff one
	// miss at a time.
	snap.WarmUp()
	return &Index{g: g, idx: idx, snap: snap}, nil
}

// Advices reports which madvise hints the snapshot backing applied when
// OpenSnapshot warmed it up — "willneed" for page-cache readahead over the hot
// sections, "hugepage" for transparent-huge-page backing on the entry slab
// (issued only when the slab is ≥2 MiB). Empty for heap-backed indexes and on
// platforms without madvise. Serving layers surface it in stats so operators
// can tell whether THP is actually in play.
func (idx *Index) Advices() []string {
	if idx.snap == nil {
		return nil
	}
	return idx.snap.Advices()
}

// Verify checks the integrity of an index opened with OpenSnapshot by
// recomputing the snapshot's CRC-32C over the mapped payload. It is a no-op
// (always nil) for heap-backed indexes: BuildIndex output is trusted, and
// every load that copies a snapshot onto the heap checks the CRC first.
func (idx *Index) Verify() error {
	if idx.snap == nil {
		return nil
	}
	return idx.snap.Verify()
}

// Backing reports what backs the index's arrays: "mmap" for a zero-copy
// snapshot opened with OpenSnapshot or OpenSnapshotDelta, "heap" for indexes
// built in memory, loaded with LoadIndex, or opened on a host where the
// snapshot decoder copies the sections.
func (idx *Index) Backing() string {
	if idx.snap != nil && idx.snap.Mapped() {
		return "mmap"
	}
	return "heap"
}

// GraphBacking reports what backs the graph's adjacency arrays: "mmap" when
// they are zero-copy views over a self-contained snapshot's mapping, "heap"
// otherwise (built, parsed, copied out of a snapshot, or supplied
// separately).
func (idx *Index) GraphBacking() string {
	if idx.snap != nil && idx.snap.GraphMapped() {
		return "mmap"
	}
	return "heap"
}

// Close releases the snapshot backing an index opened with OpenSnapshot; the
// index must not be used for new work afterwards. Queries in flight through
// a Registry hold references on the snapshot, so the unmap is deferred until
// they drain — closing a just-swapped-out index under live traffic is safe.
// Close is idempotent, and a no-op for heap-backed indexes.
func (idx *Index) Close() error {
	if idx.snap == nil {
		return nil
	}
	return idx.snap.Close()
}

// engineResource adapts the index's snapshot backing (if any) to the
// engine's lifecycle hook. The nil check matters: a typed nil *Snapshot in a
// non-nil interface would make the engine retain a dead handle.
func (idx *Index) engineResource() engine.Resource {
	if idx.snap == nil {
		return nil
	}
	return idx.snap
}
