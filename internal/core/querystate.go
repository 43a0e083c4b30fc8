package core

import (
	"sort"

	"prsim/internal/walk"
)

// queryState bundles every scratch buffer a single-source query needs — the
// √c-walker with its batch buffer, the backward walker with its dense
// frontiers, the per-round and per-level accumulators, the median workspace,
// the dense final-score accumulator, and the chunk results of the query it
// merges — so that a worker can run many queries with zero steady-state
// allocation. Idle states wait on the Index's free list (getState/putState)
// and are sized to the graph on creation.
type queryState struct {
	idx *Index

	rng    *walk.RNG
	walker *walk.Walker
	bw     *backwardWalker

	// walkBuf holds one round's batch of √c-walk samples (d_r entries);
	// candWalks/candNodes collect the walks eligible for the η·π estimate and
	// metBuf their batched pair-meet indicators.
	walkBuf   []walk.Result
	candWalks []walk.Result
	candNodes []int
	metBuf    []bool

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

	// roundAcc is the dense accumulator for the current round's backward-walk
	// estimates; roundTouched lists its non-zero entries.
	roundAcc     []float64
	roundTouched []int

	// roundNodes/roundVals hold the compacted per-round estimates: round i
	// touched roundNodes[i] with values roundVals[i]. The inner slices are
	// reused across queries.
	roundNodes [][]int32
	roundVals  [][]float64

	// Median workspace (see unionRounds): uid assigns each node in the union
	// of round supports a compact id (valid when uidGen[v] == gen); valsMat
	// is the |union|×R matrix of per-round values, zeroed on release.
	uid        []int32
	uidGen     []uint32
	gen        uint32
	unionNodes []int
	cnt        []int32 // per-union-node round count, parallel to unionNodes
	valsMat    []float64

	// scoreAcc is the dense final-score accumulator the median and index-read
	// passes write into; scoreTouched lists its non-zero entries. The result
	// map is built from them in one pass at the end of the query.
	scoreAcc     []float64
	scoreTouched []int

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
	// lists above through the shared median workspace, so it keeps no dense
	// state of its own.
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
	n := idx.g.N()
	rng := walk.NewRNG(0)
	// The walker and backward walker are constructed once and re-seeded per
	// query; Options are already validated, so walker construction cannot fail.
	walker, err := walk.NewWalker(idx.g, idx.opts.C, 0)
	if err != nil {
		panic("core: queryState on invalid index: " + err.Error())
	}
	bw := newBackwardWalker(idx.g, idx.opts.C, walk.NewRNG(0))
	bw.setDegreeTables(idx.degreeTables())
	return &queryState{
		idx:      idx,
		rng:      rng,
		walker:   walker,
		bw:       bw,
		roundAcc: make([]float64, n),
		scoreAcc: make([]float64, n),
		uid:      make([]int32, n),
		uidGen:   make([]uint32, n),
	}
}

// getState pops the most recently freed query state, creating one sized to
// the graph when the free list is empty.
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

// resetScratch restores the all-zero invariant on every dense accumulator a
// previous query left filled — the η·π accumulators a completed query keeps
// until its state is reused, or whatever a cancelled batch left behind.
// Every walk phase calls it on its merging state and its borrowed workers
// (each chunk seeds the kernels itself, so nothing needs re-seeding).
func (s *queryState) resetScratch() {
	for l, touched := range s.etaTouched {
		vals := s.etaVals[l]
		for _, w := range touched {
			vals[w] = 0
		}
		s.etaTouched[l] = touched[:0]
	}
	for _, v := range s.roundTouched {
		s.roundAcc[v] = 0
	}
	s.roundTouched = s.roundTouched[:0]
	for _, v := range s.scoreTouched {
		s.scoreAcc[v] = 0
	}
	s.scoreTouched = s.scoreTouched[:0]
}

// addEtaPi folds one terminated-walk observation at hub rank into the level-ℓ
// dense accumulator, growing the per-level buffers on first touch of a level.
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

// scoreInto folds one contribution into the dense final-score accumulator.
func (s *queryState) scoreInto(v int, val float64) {
	if s.scoreAcc[v] == 0 {
		s.scoreTouched = append(s.scoreTouched, v)
	}
	s.scoreAcc[v] += val
}

// accumulate folds one backward-walk estimate (touched nodes indexing into a
// dense value buffer) into the current round's accumulator, scaling each
// contribution by invDiv = 1/(α²·d_r) (the running-mean shape of
// Algorithm 4, with the division hoisted out of the loop).
func (s *queryState) accumulate(touched []int, values []float64, invDiv float64) {
	for _, v := range touched {
		if s.roundAcc[v] == 0 {
			s.roundTouched = append(s.roundTouched, v)
		}
		s.roundAcc[v] += values[v] * invDiv
	}
}

// growRounds ensures the per-round sparse lists reach index i.
func (s *queryState) growRounds(i int) {
	for len(s.roundNodes) <= i {
		s.roundNodes = append(s.roundNodes, nil)
		s.roundVals = append(s.roundVals, nil)
	}
}

// finishRound compacts the current round accumulator into the round-i sparse
// lists and zeroes the accumulator for the next round.
func (s *queryState) finishRound(i int) {
	s.growRounds(i)
	nodes := s.roundNodes[i][:0]
	vals := s.roundVals[i][:0]
	for _, v := range s.roundTouched {
		nodes = append(nodes, int32(v))
		vals = append(vals, s.roundAcc[v])
		s.roundAcc[v] = 0
	}
	s.roundNodes[i] = nodes
	s.roundVals[i] = vals
	s.roundTouched = s.roundTouched[:0]
}

// unionRounds assigns compact ids to the union of the first R merged rounds'
// supports — uid[v], valid while uidGen[v] == gen, in first-touch order —
// counts each union node's rounds in cnt, and returns the all-zero
// |union|×R matrix workspace for the per-round values. The median pass and
// the adaptive stop rule share it.
func (s *queryState) unionRounds(R int) []float64 {
	s.gen++
	if s.gen == 0 { // generation counter wrapped; invalidate all stale marks
		clear(s.uidGen)
		s.gen = 1
	}
	s.unionNodes = s.unionNodes[:0]
	s.cnt = s.cnt[:0]
	for _, nodes := range s.roundNodes[:R] {
		for _, v32 := range nodes {
			v := int(v32)
			if s.uidGen[v] != s.gen {
				s.uidGen[v] = s.gen
				s.uid[v] = int32(len(s.unionNodes))
				s.unionNodes = append(s.unionNodes, v)
				s.cnt = append(s.cnt, 0)
			}
			s.cnt[s.uid[v]]++
		}
	}
	need := len(s.unionNodes) * R
	if cap(s.valsMat) < need {
		s.valsMat = make([]float64, need)
	}
	return s.valsMat[:need]
}

// medianScores computes, for every node touched by any of the first fr rounds,
// the median of its per-round estimates (missing rounds count as zero) and
// folds the non-zero medians into the dense final-score accumulator.
func (s *queryState) medianScores(fr int) {
	mat := s.unionRounds(fr)
	// The estimates are non-negative and missing rounds count as zero, so a
	// node's median can only be non-zero when it appears in more than half
	// the rounds. The sparse majority of the union is decided right here by
	// its round count; only majority nodes are scattered and selected.
	minNz := int32(fr - fr/2)
	for i, nodes := range s.roundNodes[:fr] {
		vals := s.roundVals[i]
		for j, v32 := range nodes {
			if ui := s.uid[v32]; s.cnt[ui] >= minNz {
				mat[int(ui)*fr+i] = vals[j]
			}
		}
	}
	for ui, v := range s.unionNodes {
		if s.cnt[ui] < minNz {
			continue
		}
		row := mat[ui*fr : (ui+1)*fr]
		if m := medianInPlace(row); m != 0 {
			s.scoreInto(v, m)
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
