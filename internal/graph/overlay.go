package graph

import (
	"fmt"
	"sort"
)

// EdgeUpdate is one streamed edge mutation: an insertion (Delete false) or a
// deletion (Delete true) of the directed edge From→To. Updates address edges
// only — both endpoints must already be valid node ids.
type EdgeUpdate struct {
	From   int
	To     int
	Delete bool
}

// overlay journals edge mutations over a Graph's immutable base CSR. The base
// arrays are never written (they may alias a read-only snapshot mapping);
// instead the overlay records, per node, which base occurrences are dead and
// which new neighbors were appended, and the adjacency accessors merge the two
// deterministically: base order with the first deleted occurrences of each
// value removed, then insertions in journal order.
type overlay struct {
	// journal holds every applied update in order; it is the mutation log a
	// structural fingerprint and a Compact both derive from.
	journal []EdgeUpdate

	// outAdd[u] lists inserted out-neighbors of u in journal order; outDel[u]
	// counts, per neighbor value, how many base occurrences are deleted.
	outAdd map[int][]int32
	outDel map[int]map[int32]int
	// inAdd / inDel mirror the same state for the in-adjacency side.
	inAdd map[int][]int32
	inDel map[int]map[int32]int

	// added and deleted track the net edge-count delta (M() = base m + added - deleted).
	added   int
	deleted int
}

func (o *overlay) clone() *overlay {
	cp := &overlay{
		journal: append([]EdgeUpdate(nil), o.journal...),
		outAdd:  make(map[int][]int32, len(o.outAdd)),
		outDel:  make(map[int]map[int32]int, len(o.outDel)),
		inAdd:   make(map[int][]int32, len(o.inAdd)),
		inDel:   make(map[int]map[int32]int, len(o.inDel)),
		added:   o.added,
		deleted: o.deleted,
	}
	for k, v := range o.outAdd {
		cp.outAdd[k] = append([]int32(nil), v...)
	}
	for k, v := range o.inAdd {
		cp.inAdd[k] = append([]int32(nil), v...)
	}
	for k, v := range o.outDel {
		m := make(map[int32]int, len(v))
		for kk, vv := range v {
			m[kk] = vv
		}
		cp.outDel[k] = m
	}
	for k, v := range o.inDel {
		m := make(map[int32]int, len(v))
		for kk, vv := range v {
			m[kk] = vv
		}
		cp.inDel[k] = m
	}
	return cp
}

// touchesOut reports whether node u's out-adjacency differs from the base.
func (o *overlay) touchesOut(u int) bool {
	return len(o.outAdd[u]) > 0 || len(o.outDel[u]) > 0
}

func (o *overlay) touchesIn(v int) bool {
	return len(o.inAdd[v]) > 0 || len(o.inDel[v]) > 0
}

// merge renders one node's merged adjacency: the base list with the first
// del[x] occurrences of each value x removed, followed by the insertions in
// journal order. The result is freshly allocated and safe to retain.
func mergeAdj(base []int32, del map[int32]int, add []int32) []int32 {
	out := make([]int32, 0, len(base)+len(add))
	if len(del) == 0 {
		out = append(out, base...)
	} else {
		remaining := make(map[int32]int, len(del))
		for k, v := range del {
			remaining[k] = v
		}
		for _, x := range base {
			if remaining[x] > 0 {
				remaining[x]--
				continue
			}
			out = append(out, x)
		}
	}
	return append(out, add...)
}

// HasOverlay reports whether the graph carries uncompacted edge mutations.
func (g *Graph) HasOverlay() bool { return g.ov != nil && len(g.ov.journal) > 0 }

// PendingUpdates returns the number of journaled edge mutations awaiting
// compaction.
func (g *Graph) PendingUpdates() int {
	if g.ov == nil {
		return 0
	}
	return len(g.ov.journal)
}

// multiplicity returns how many occurrences of the directed edge u→v the
// merged graph currently holds.
func (g *Graph) multiplicity(u, v int) int {
	count := 0
	for _, w := range g.baseOut(u) {
		if int(w) == v {
			count++
		}
	}
	if g.ov != nil {
		if del, ok := g.ov.outDel[u]; ok {
			count -= del[int32(v)]
		}
		for _, w := range g.ov.outAdd[u] {
			if int(w) == v {
				count++
			}
		}
	}
	return count
}

// ApplyUpdates journals a batch of edge insertions and deletions over the
// graph's immutable base CSR. The batch applies atomically: either every
// update is journaled or none is. Deleting an edge that is not present (after
// the earlier updates in the batch) is an error; inserting a duplicate edge is
// allowed and produces a multi-edge, matching FromEdges. Node ids must already
// be valid — updates mutate edges, never the node set.
//
// Applying updates invalidates the memoized Checksum: the fingerprint of an
// overlaid graph folds the mutation journal over the base arrays, so it
// differs from both the base graph's checksum and the compacted result's.
func (g *Graph) ApplyUpdates(updates []EdgeUpdate) error {
	if len(updates) == 0 {
		return nil
	}
	var ov *overlay
	if g.ov != nil {
		ov = g.ov.clone()
	} else {
		ov = &overlay{
			outAdd: make(map[int][]int32),
			outDel: make(map[int]map[int32]int),
			inAdd:  make(map[int][]int32),
			inDel:  make(map[int]map[int32]int),
		}
	}
	// Validate and apply against the cloned overlay; commit only on success.
	tmp := &Graph{n: g.n, m: g.m, outOff: g.outOff, outAdj: g.outAdj, inOff: g.inOff, inAdj: g.inAdj, ov: ov}
	for i, up := range updates {
		if err := g.CheckNode(up.From); err != nil {
			return fmt.Errorf("graph: update %d: %w", i, err)
		}
		if err := g.CheckNode(up.To); err != nil {
			return fmt.Errorf("graph: update %d: %w", i, err)
		}
		if up.Delete {
			if tmp.multiplicity(up.From, up.To) <= 0 {
				return fmt.Errorf("graph: update %d deletes absent edge %d->%d", i, up.From, up.To)
			}
			ov.deleteEdge(up.From, up.To)
		} else {
			ov.insertEdge(up.From, up.To)
		}
		ov.journal = append(ov.journal, up)
	}
	g.ov = ov
	g.csumValid = false
	return nil
}

// insertEdge records an insertion. A pending deletion of the same edge value
// is cancelled first, restoring the base occurrence instead of growing the
// add-list — the merged view is identical either way, but cancelling keeps
// repeated flip-flops from growing the overlay without bound.
func (o *overlay) insertEdge(u, v int) {
	v32 := int32(v)
	if del, ok := o.outDel[u]; ok && del[v32] > 0 {
		del[v32]--
		if del[v32] == 0 {
			delete(del, v32)
			if len(del) == 0 {
				delete(o.outDel, u)
			}
		}
		idel := o.inDel[v]
		idel[int32(u)]--
		if idel[int32(u)] == 0 {
			delete(idel, int32(u))
			if len(idel) == 0 {
				delete(o.inDel, v)
			}
		}
		o.deleted--
		return
	}
	o.outAdd[u] = append(o.outAdd[u], v32)
	o.inAdd[v] = append(o.inAdd[v], int32(u))
	o.added++
}

// deleteEdge records a deletion: a pending insertion of the same value is
// cancelled first (last occurrence wins), otherwise one base occurrence is
// marked dead. The caller has already checked that the edge is present.
func (o *overlay) deleteEdge(u, v int) {
	v32 := int32(v)
	if add := o.outAdd[u]; len(add) > 0 {
		for i := len(add) - 1; i >= 0; i-- {
			if add[i] == v32 {
				o.outAdd[u] = append(add[:i], add[i+1:]...)
				if len(o.outAdd[u]) == 0 {
					delete(o.outAdd, u)
				}
				iadd := o.inAdd[v]
				for j := len(iadd) - 1; j >= 0; j-- {
					if iadd[j] == int32(u) {
						o.inAdd[v] = append(iadd[:j], iadd[j+1:]...)
						break
					}
				}
				if len(o.inAdd[v]) == 0 {
					delete(o.inAdd, v)
				}
				o.added--
				return
			}
		}
	}
	if o.outDel[u] == nil {
		o.outDel[u] = make(map[int32]int)
	}
	o.outDel[u][v32]++
	if o.inDel[v] == nil {
		o.inDel[v] = make(map[int32]int)
	}
	o.inDel[v][int32(u)]++
	o.deleted++
}

// baseOut returns u's out-adjacency in the base CSR, ignoring any overlay.
func (g *Graph) baseOut(u int) []int32 { return g.outAdj[g.outOff[u]:g.outOff[u+1]] }

// Compact folds the overlay into a fresh CSR graph and returns it; the
// receiver is left untouched (its base arrays may alias a read-only mapping).
// The compacted adjacency lists are exactly the merged views — base order with
// deleted occurrences removed, insertions appended in journal order — so every
// algorithm observes the same graph before and after compaction. The result's
// out-adjacency is unsorted; callers that need the variance-bounded walk
// ordering re-run SortOutByInDegree.
func (g *Graph) Compact() *Graph {
	if !g.HasOverlay() {
		cp := g.Clone()
		cp.ov = nil
		return cp
	}
	ov := g.ov
	cp := &Graph{n: g.n, m: g.m + ov.added - ov.deleted}

	outDeg := make([]int, g.n)
	inDeg := make([]int, g.n)
	for v := 0; v < g.n; v++ {
		outDeg[v] = g.OutDegree(v)
		inDeg[v] = g.InDegree(v)
	}
	cp.outOff = prefixSum(outDeg)
	cp.inOff = prefixSum(inDeg)
	cp.outAdj = make([]int32, cp.m)
	cp.inAdj = make([]int32, cp.m)
	for v := 0; v < g.n; v++ {
		copy(cp.outAdj[cp.outOff[v]:cp.outOff[v+1]], g.OutNeighbors(v))
		copy(cp.inAdj[cp.inOff[v]:cp.inOff[v+1]], g.InNeighbors(v))
	}
	if g.labels != nil {
		cp.labels = append([]string(nil), g.labels...)
	}
	return cp
}

// UpdatedNodes returns the sorted set of node ids whose adjacency (either
// side) the overlay touches — the seed set incremental index maintenance
// starts from.
func (g *Graph) UpdatedNodes() []int {
	if g.ov == nil {
		return nil
	}
	seen := make(map[int]bool)
	for _, up := range g.ov.journal {
		seen[up.From] = true
		seen[up.To] = true
	}
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}
