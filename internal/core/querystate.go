package core

import (
	"sort"

	"prsim/internal/walk"
)

// queryState bundles every scratch buffer a single-source query needs — the
// √c-walker with its batch buffer, the backward walker with its frontiers,
// the per-round and per-level accumulators, the median workspace, the
// final-score accumulator, and the chunk results of the query it merges —
// so that a worker can run many queries with zero steady-state allocation.
// Idle states wait on the Index's free list (getState/putState). Nothing in
// a state is sized to the graph: its node-keyed accumulators are sparse
// (nodeAcc), so a state's memory follows the largest query it has served.
type queryState struct {
	idx *Index

	rng    *walk.RNG
	walker *walk.Walker
	bw     *backwardWalker

	// walkBuf holds one chunk's batch of √c-walk samples; cands lists, in
	// walk order, the chunk's ends that can contribute (see runChunk),
	// candNodes their end nodes for the batched pair-meet kernel and metBuf
	// its indicators; bwNodes/bwVals hold the kept backward walks' estimates,
	// already scaled by 1/(α²·d_r), in spans the candidates delimit.
	walkBuf   []walk.Result
	cands     []candidate
	candNodes []int
	metBuf    []bool
	bwNodes   []int32
	bwVals    []float64

	// etaVals/etaTouched accumulate the η(w)·π_ℓ(u,w) estimates densely per
	// level, indexed by hub *rank*: etaVals[ℓ] is a j0-sized value buffer
	// (allocated lazily the first time level ℓ is hit) and etaTouched[ℓ]
	// lists its non-zero ranks in first-touch order — the canonical order of
	// the index-read pass. Only hub targets are accumulated (non-hub entries
	// were never read), which keeps the buffers small and cache-hot. Outside
	// a query both are all-zero/empty (restored via the touched lists), so no
	// hashing, sorting, or full clears happen anywhere.
	etaVals    [][]float64
	etaTouched [][]int32

	// round accumulates the current round's backward-walk estimates (inside
	// runChunk, one chunk's share of them).
	round nodeAcc

	// roundNodes/roundVals hold the compacted per-round estimates: round i
	// touched roundNodes[i] with values roundVals[i]. The inner slices are
	// reused across queries.
	roundNodes [][]int32
	roundVals  [][]float64

	// Median workspace (see unionRounds): union holds the union of the round
	// supports, each node's position in it being its compact id and its
	// value its round count; valsMat is the |union|×R matrix of per-round
	// values, zeroed on release.
	union   nodeAcc
	valsMat []float64

	// score is the final-score accumulator the median and index-read passes
	// write into; the result map is built from it in one pass at the end of
	// the query.
	score nodeAcc

	// phase is the chunk decomposition of the query this state merges, and
	// chunks its result slots, indexed by global chunk number: each holds a
	// chunk's output from execution until the merge (the η·π triples until
	// the walk loop ends). Chunk workers read the merging state's phase and
	// write its slots, so only merging states grow them, and a query's phase
	// costs no allocation of its own.
	phase  walkPhase
	chunks []chunkResult

	// Adaptive early-termination accumulators (see adaptive.go): the scalar
	// running sum / sum-of-squares / min / max over the merged rounds'
	// hub-mass shares, plus the scratch list of matrix rows the
	// median-concentration test sorted (and must therefore zero wholesale).
	// The per-node side of the stop rule reads the compacted per-round
	// lists above through the shared median workspace, so it keeps no
	// per-node state of its own.
	hSum, hSumSq, hMin, hMax float64
	sortedRows               []int32

	// hubMark/unionRanks are the fused batch pass's union-building scratch:
	// hubMark is a j0-sized membership byte per hub rank (all-zero outside a
	// pass), unionRanks collects the union of the batch's touched ranks at
	// one level. Only the batch leader's state uses them.
	hubMark    []byte
	unionRanks []int32
}

func newQueryState(idx *Index) *queryState {
	rng := walk.NewRNG(0)
	// The walker and backward walker are constructed once and re-seeded per
	// query; Options are already validated, so walker construction cannot fail.
	walker, err := walk.NewWalker(idx.g, idx.opts.C, 0)
	if err != nil {
		panic("core: queryState on invalid index: " + err.Error())
	}
	bw := newBackwardWalker(idx.g, idx.opts.C, walk.NewRNG(0))
	bw.walkTables = idx.walkTables()
	return &queryState{idx: idx, rng: rng, walker: walker, bw: bw}
}

// getState pops the most recently freed query state, creating one when the
// free list is empty.
func (idx *Index) getState() *queryState {
	idx.freeMu.Lock()
	n := len(idx.freeStates)
	if n == 0 {
		idx.freeMu.Unlock()
		return newQueryState(idx)
	}
	s := idx.freeStates[n-1]
	idx.freeStates = idx.freeStates[:n-1]
	idx.freeMu.Unlock()
	return s
}

// putState pushes s onto the free list.
func (idx *Index) putState(s *queryState) {
	idx.freeMu.Lock()
	idx.freeStates = append(idx.freeStates, s)
	idx.freeMu.Unlock()
}

// growChunks returns the state's first n chunk-result slots, growing the
// slot array (and keeping every existing buffer) as needed.
func (s *queryState) growChunks(n int) []chunkResult {
	for len(s.chunks) < n {
		s.chunks = append(s.chunks, chunkResult{})
	}
	return s.chunks[:n]
}

// resetScratch empties every accumulator a previous query left filled — the
// η·π accumulators a completed query keeps until its state is reused, or
// whatever a cancelled batch left behind. Every walk phase calls it on its
// merging state and its borrowed workers (each chunk seeds the kernels
// itself, so nothing needs re-seeding).
func (s *queryState) resetScratch() {
	for l, touched := range s.etaTouched {
		vals := s.etaVals[l]
		for _, w := range touched {
			vals[w] = 0
		}
		s.etaTouched[l] = touched[:0]
	}
	s.round.reset()
	s.score.reset()
}

// addEtaPi folds one terminated-walk observation at hub rank into the level-ℓ
// accumulator, growing the per-level buffers on first touch of a level.
func (s *queryState) addEtaPi(level, rank int, inc float64) {
	for len(s.etaVals) <= level {
		s.etaVals = append(s.etaVals, nil)
		s.etaTouched = append(s.etaTouched, nil)
	}
	vals := s.etaVals[level]
	if vals == nil {
		vals = make([]float64, s.idx.NumHubs())
		s.etaVals[level] = vals
	}
	if vals[rank] == 0 {
		s.etaTouched[level] = append(s.etaTouched[level], int32(rank))
	}
	vals[rank] += inc
}

// accumulate folds one backward-walk estimate — nodes with their values
// already scaled by 1/(α²·d_r), the running-mean shape of Algorithm 4 — or
// one chunk's compacted share of a round into the round accumulator.
func (s *queryState) accumulate(nodes []int32, vals []float64) {
	for t, v := range nodes {
		s.round.add(v, vals[t])
	}
}

// growRounds ensures the per-round sparse lists reach index i.
func (s *queryState) growRounds(i int) {
	for len(s.roundNodes) <= i {
		s.roundNodes = append(s.roundNodes, nil)
		s.roundVals = append(s.roundVals, nil)
	}
}

// finishRound copies the round accumulator into the round-i sparse lists
// and empties it for the next round.
func (s *queryState) finishRound(i int) {
	s.growRounds(i)
	s.roundNodes[i] = append(s.roundNodes[i][:0], s.round.nodes...)
	s.roundVals[i] = append(s.roundVals[i][:0], s.round.vals...)
	s.round.reset()
}

// unionRounds collects the union of the first R merged rounds' supports in
// s.union — a node's position there, in first-touch order, is its compact
// id, and its value counts the rounds it appears in — and returns the
// all-zero |union|×R matrix workspace for the per-round values. The median
// pass and the adaptive stop rule share it.
func (s *queryState) unionRounds(R int) []float64 {
	u := &s.union
	u.reset()
	for _, nodes := range s.roundNodes[:R] {
		for _, v := range nodes {
			u.add(v, 1)
		}
	}
	need := len(u.nodes) * R
	if cap(s.valsMat) < need {
		s.valsMat = make([]float64, need)
	}
	return s.valsMat[:need]
}

// medianScores computes, for every node touched by any of the first fr rounds,
// the median of its per-round estimates (missing rounds count as zero) and
// folds the non-zero medians into the final-score accumulator.
func (s *queryState) medianScores(fr int) {
	mat := s.unionRounds(fr)
	u := &s.union
	// The estimates are non-negative and missing rounds count as zero, so a
	// node's median can only be non-zero when it appears in more than half
	// the rounds. The sparse majority of the union is decided right here by
	// its round count; only majority nodes are scattered and selected.
	minNz := float64(fr - fr/2)
	for i, nodes := range s.roundNodes[:fr] {
		vals := s.roundVals[i]
		for j, v := range nodes {
			if ui := u.at(v); u.vals[ui] >= minNz {
				mat[ui*fr+i] = vals[j]
			}
		}
	}
	for ui, v := range u.nodes {
		if u.vals[ui] < minNz {
			continue
		}
		row := mat[ui*fr : (ui+1)*fr]
		if m := medianInPlace(row); m != 0 {
			s.score.add(v, m)
		}
		clear(row)
	}
}

// medianInPlace returns the median of vals, sorting them in place.
func medianInPlace(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	mid := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[mid]
	}
	return (vals[mid-1] + vals[mid]) / 2
}
