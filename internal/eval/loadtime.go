package eval

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"prsim/internal/core"
	"prsim/internal/gen"
	"prsim/internal/graph"
	"prsim/internal/snapshot"
)

// LoadTimeRow is one measured cold-start strategy.
type LoadTimeRow struct {
	// Mode names the strategy:
	//   "parse+stream"  edge-list parse + core's heap index load
	//   "parse+mmap"    edge-list parse + zero-copy index mmap
	//   "mmap"          one self-contained mapping for graph and index
	//   "mmap+crc"      same, with full checksum validation at open
	Mode string
	// Millis is the best-of-reps wall-clock time in milliseconds from cold
	// process state to a queryable (graph + index) serving state.
	Millis float64
	// Speedup is the "parse+stream" time divided by this mode's time.
	Speedup float64
	// FirstQueryMillis is the time of the first query after opening, which
	// for mmap includes faulting in the touched pages.
	FirstQueryMillis float64
}

// LoadTimeResult bundles the environment of one load-time comparison.
type LoadTimeResult struct {
	Nodes      int
	Edges      int
	IndexBytes int64 // size of the snapshot
	Rows       []LoadTimeRow
}

// RunLoadTime benchmarks the full cold start of a query server: getting from
// files on disk to a queryable graph + index. The two edge-list strategies
// re-parse the graph and load the index against it, reading it onto the heap
// with core's loader or mapping it (the graph parse dominates cold start
// exactly where the mmap makes the index free); the self-contained strategy
// maps graph and index out of the one file. Every mode opens the same v4
// snapshot. Quick mode uses a ~30k-node graph with the default index density;
// full mode uses a 150k-node graph with a dense index (2000 hubs at ε=0.05).
// Each mode is measured best-of-3; files stay warm in page cache between
// reps, so the numbers isolate parse/validation cost rather than disk speed.
func RunLoadTime(cfg Config) (*LoadTimeResult, error) {
	n := 150_000
	opts := core.Options{C: cfg.Decay, Epsilon: 0.05, NumHubs: 2000, SampleScale: cfg.SampleScale, Seed: cfg.Seed}
	if cfg.Quick {
		n = 30_000
		opts.Epsilon = 0.1
		opts.NumHubs = -1
	}
	g, err := gen.PowerLaw(gen.PowerLawOptions{
		N: n, AvgDegree: 10, Gamma: 2.5, Directed: true, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	idx, err := core.BuildIndex(g, opts)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "prsim-loadtime")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	graphPath := filepath.Join(dir, "graph.txt")
	if err := g.WriteEdgeListFile(graphPath); err != nil {
		return nil, err
	}
	snapPath := filepath.Join(dir, "index.prsim")
	if err := idx.SaveFile(snapPath); err != nil {
		return nil, err
	}
	st, err := os.Stat(snapPath)
	if err != nil {
		return nil, err
	}
	res := &LoadTimeResult{Nodes: g.N(), Edges: g.M(), IndexBytes: st.Size()}

	// open returns a ready-to-query index and the function that releases it,
	// reloading the graph from the edge list when the strategy needs one.
	type mode struct {
		name string
		open func() (*core.Index, func() error, error)
	}
	mapped := func(withGraph bool, sopts snapshot.Options) func() (*core.Index, func() error, error) {
		return func() (*core.Index, func() error, error) {
			var pg *graph.Graph
			if withGraph {
				var err error
				if pg, err = graph.ReadEdgeListFile(graphPath); err != nil {
					return nil, nil, err
				}
			}
			snap, err := snapshot.Open(snapPath, pg, sopts)
			if err != nil {
				return nil, nil, err
			}
			idx, _ := snap.Index() // fails only after Close
			return idx, snap.Close, nil
		}
	}
	heap := func() (*core.Index, func() error, error) {
		pg, err := graph.ReadEdgeListFile(graphPath)
		if err != nil {
			return nil, nil, err
		}
		idx, err := core.LoadIndexFile(snapPath, pg)
		return idx, func() error { return nil }, err
	}
	modes := []mode{
		{"parse+stream", heap},
		{"parse+mmap", mapped(true, snapshot.Options{})},
		{"mmap", mapped(false, snapshot.Options{})},
		{"mmap+crc", mapped(false, snapshot.Options{VerifyChecksum: true})},
	}
	const reps = 3
	var baseline float64
	for _, m := range modes {
		best := 0.0
		firstQuery := 0.0
		for rep := 0; rep < reps; rep++ {
			start := time.Now()
			sidx, release, err := m.open()
			if err != nil {
				return nil, fmt.Errorf("eval: open %s: %w", m.name, err)
			}
			ms := float64(time.Since(start).Nanoseconds()) / 1e6
			if rep == 0 || ms < best {
				best = ms
			}
			qStart := time.Now()
			var r core.Result
			if err := sidx.QueryIntoOpts(context.Background(), 0, &r, core.QueryOptions{}); err != nil {
				release()
				return nil, fmt.Errorf("eval: query after %s open: %w", m.name, err)
			}
			qms := float64(time.Since(qStart).Nanoseconds()) / 1e6
			if rep == 0 || qms < firstQuery {
				firstQuery = qms
			}
			if err := release(); err != nil {
				return nil, err
			}
		}
		if m.name == "parse+stream" {
			baseline = best
		}
		row := LoadTimeRow{Mode: m.name, Millis: best, FirstQueryMillis: firstQuery}
		if best > 0 {
			row.Speedup = baseline / best
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
