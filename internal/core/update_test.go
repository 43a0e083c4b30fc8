package core

import (
	"math"
	"reflect"
	"testing"

	"prsim/internal/graph"
	"prsim/internal/walk"
)

func updateTestOptions(seed uint64) Options {
	return Options{Epsilon: 0.25, Delta: 0.05, NumHubs: 10, Seed: seed, SampleScale: 0.2}
}

// replayGraph applies the update batches to a clone of base exactly the way
// ApplyUpdates derives its serving graph: overlay, compact, re-sort, batch by
// batch. The result is byte-identical to the incremental chain's final graph.
func replayGraph(base *graph.Graph, batches [][]graph.EdgeUpdate) (*graph.Graph, error) {
	g := base.Clone()
	for _, batch := range batches {
		if err := g.ApplyUpdates(batch); err != nil {
			return nil, err
		}
		g = g.Compact()
		g.SortOutByInDegree()
	}
	return g, nil
}

// requireIndexesBitIdentical asserts the two indexes hold bitwise-equal
// sections: π, hub order, level structure, and the entry slab.
func requireIndexesBitIdentical(t *testing.T, got, want *Index) {
	t.Helper()
	if !reflect.DeepEqual(got.hubOrder, want.hubOrder) {
		t.Fatalf("hub order diverged: %v vs %v", got.hubOrder, want.hubOrder)
	}
	if !reflect.DeepEqual(got.pi, want.pi) {
		t.Fatal("reverse-PageRank vectors diverged")
	}
	if !reflect.DeepEqual(got.hubLevelPos, want.hubLevelPos) {
		t.Fatalf("hubLevelPos diverged: %v vs %v", got.hubLevelPos, want.hubLevelPos)
	}
	if !reflect.DeepEqual(got.entryOffsets, want.entryOffsets) {
		t.Fatal("entryOffsets diverged")
	}
	if !reflect.DeepEqual(got.entrySlab, want.entrySlab) {
		t.Fatal("entry slabs diverged")
	}
	if got.g.Checksum() != want.g.Checksum() {
		t.Fatal("graph checksums diverged")
	}
}

func TestApplyUpdatesMatchesForcedHubRebuild(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		g := randomGraph(seed, 60, 300)
		opts := updateTestOptions(seed)
		idx, err := BuildIndex(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		base := idx.Graph().Clone()

		var existing []graph.Edge
		idx.Graph().Edges(func(u, v int) bool {
			existing = append(existing, graph.Edge{From: u, To: v})
			return true
		})
		rng := walk.NewRNG(seed + 99)
		n := g.N()
		batch := []graph.EdgeUpdate{
			{From: rng.Intn(n), To: rng.Intn(n)},
			{From: existing[rng.Intn(len(existing))].From, To: existing[rng.Intn(len(existing))].To},
		}
		del := existing[rng.Intn(len(existing))]
		batch = append(batch, graph.EdgeUpdate{From: del.From, To: del.To, Delete: true})

		nidx, stats, err := idx.ApplyUpdates(batch)
		if err != nil {
			t.Fatal(err)
		}
		if stats.HubsRecomputed > stats.HubsTotal || stats.HubsRecomputed != len(stats.RecomputedHubs) {
			t.Fatalf("inconsistent hub stats: %+v", stats)
		}
		if stats.EntriesCarried+stats.EntriesRewritten != stats.EntriesAfter {
			t.Fatalf("entry accounting broken: %+v", stats)
		}

		rep, err := replayGraph(base, [][]graph.EdgeUpdate{batch})
		if err != nil {
			t.Fatal(err)
		}
		want, err := buildIndexWithHubs(rep, opts, idx.Hubs())
		if err != nil {
			t.Fatal(err)
		}
		requireIndexesBitIdentical(t, nidx, want)

		// Query scores of the incremental index are bit-identical to the
		// forced-hub from-scratch rebuild (same seed, same graph bytes).
		src := int(seed) % n
		got, err := query(nidx, src)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := query(want, src)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Scores, ref.Scores) {
			t.Fatal("query scores diverged from forced-hub rebuild")
		}
	}
}

func TestApplyUpdatesChainedBatches(t *testing.T) {
	seed := uint64(11)
	g := randomGraph(seed, 50, 250)
	opts := updateTestOptions(seed)
	idx, err := BuildIndex(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	base := idx.Graph().Clone()
	hubs := append([]int(nil), idx.Hubs()...)

	batches := [][]graph.EdgeUpdate{
		{{From: 1, To: 2}, {From: 3, To: 4}},
		{{From: 1, To: 2, Delete: true}, {From: 10, To: 20}},
		{{From: 5, To: 6}},
	}
	cur := idx
	for _, b := range batches {
		next, _, err := cur.ApplyUpdates(b)
		if err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	rep, err := replayGraph(base, batches)
	if err != nil {
		t.Fatal(err)
	}
	want, err := buildIndexWithHubs(rep, opts, hubs)
	if err != nil {
		t.Fatal(err)
	}
	requireIndexesBitIdentical(t, cur, want)
}

func TestApplyUpdatesCarriesCleanHubsAndReportsImpact(t *testing.T) {
	seed := uint64(3)
	g := randomGraph(seed, 80, 240)
	opts := updateTestOptions(seed)
	idx, err := BuildIndex(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	batch := []graph.EdgeUpdate{{From: 7, To: 13}}
	nidx, stats, err := idx.ApplyUpdates(batch)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stats.Endpoints, []int{7, 13}) {
		t.Fatalf("Endpoints = %v", stats.Endpoints)
	}
	recomputed := make(map[int]bool)
	for _, w := range stats.RecomputedHubs {
		recomputed[w] = true
	}
	for _, w := range idx.Hubs() {
		if recomputed[w] {
			continue
		}
		for l := 0; ; l++ {
			oldE := idx.HubEntries(w, l)
			newE := nidx.HubEntries(w, l)
			if oldE == nil && newE == nil {
				break
			}
			if !reflect.DeepEqual(oldE, newE) {
				t.Fatalf("clean hub %d level %d entries changed", w, l)
			}
		}
	}
}

func TestApplyUpdatesParityAgainstNaturalRebuild(t *testing.T) {
	// Against a natural BuildIndex (which may pick different hubs from the
	// post-update π ranking), scores agree within the ε accuracy bound: both
	// indexes answer with additive error below ε for the same walk seed.
	seed := uint64(21)
	g := randomGraph(seed, 60, 300)
	opts := updateTestOptions(seed)
	idx, err := BuildIndex(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	base := idx.Graph().Clone()
	batch := []graph.EdgeUpdate{{From: 2, To: 9}, {From: 30, To: 4}}
	nidx, _, err := idx.ApplyUpdates(batch)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := replayGraph(base, [][]graph.EdgeUpdate{batch})
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := BuildIndex(rep, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []int{0, 17, 41} {
		a, err := query(nidx, src)
		if err != nil {
			t.Fatal(err)
		}
		b, err := query(scratch, src)
		if err != nil {
			t.Fatal(err)
		}
		nodes := make(map[int]bool)
		for v := range a.Scores {
			nodes[v] = true
		}
		for v := range b.Scores {
			nodes[v] = true
		}
		for v := range nodes {
			if d := math.Abs(a.Score(v) - b.Score(v)); d > opts.Epsilon {
				t.Fatalf("source %d node %d: |%g - %g| = %g > ε=%g",
					src, v, a.Score(v), b.Score(v), d, opts.Epsilon)
			}
		}
	}
}

// TestApplyUpdatesDriftBudget pins the drift-budget trade: with a budget θ > 0
// the update recomputes no more hubs than the exact path (weakly-perturbed
// hubs are carried verbatim and counted in HubsSkippedDrift), and the drifted
// index's scores stay within ε of the exact successor's. θ = 0 must remain
// bit-identical to ApplyUpdates.
func TestApplyUpdatesDriftBudget(t *testing.T) {
	skippedAnywhere := 0
	for _, seed := range []uint64{1, 7, 42} {
		// Large enough that typical injected perturbations sit below the
		// truncation scale; on toy graphs every hub is strongly perturbed and
		// a budget changes nothing.
		g := randomGraph(seed, 1000, 6000)
		opts := updateTestOptions(seed)
		idx, err := BuildIndex(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		batch := []graph.EdgeUpdate{{From: 3, To: 500}, {From: 531, To: 12}}
		exact, est, err := idx.ApplyUpdates(batch)
		if err != nil {
			t.Fatal(err)
		}
		zero, zst, err := idx.ApplyUpdatesOpts(batch, UpdateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		requireIndexesBitIdentical(t, zero, exact)
		if zst.HubsSkippedDrift != 0 {
			t.Fatalf("zero budget skipped %d hubs", zst.HubsSkippedDrift)
		}
		drift, dst, err := idx.ApplyUpdatesOpts(batch, UpdateOptions{DriftBudget: 4})
		if err != nil {
			t.Fatal(err)
		}
		if dst.HubsRecomputed > est.HubsRecomputed {
			t.Fatalf("seed %d: drift recomputed %d hubs, exact only %d", seed, dst.HubsRecomputed, est.HubsRecomputed)
		}
		if got, want := dst.HubsSkippedDrift, est.HubsRecomputed-dst.HubsRecomputed; got != want {
			t.Fatalf("seed %d: HubsSkippedDrift = %d, want %d", seed, got, want)
		}
		skippedAnywhere += dst.HubsSkippedDrift
		for _, src := range []int{0, 333, 777} {
			a, err := query(drift, src)
			if err != nil {
				t.Fatal(err)
			}
			b, err := query(exact, src)
			if err != nil {
				t.Fatal(err)
			}
			nodes := make(map[int]bool)
			for v := range a.Scores {
				nodes[v] = true
			}
			for v := range b.Scores {
				nodes[v] = true
			}
			for v := range nodes {
				if d := math.Abs(a.Score(v) - b.Score(v)); d > opts.Epsilon {
					t.Fatalf("seed %d source %d node %d: drift |%g - %g| = %g > ε=%g",
						seed, src, v, a.Score(v), b.Score(v), d, opts.Epsilon)
				}
			}
		}
	}
	if skippedAnywhere == 0 {
		t.Fatal("drift budget skipped no hub on any seed — the budgeted path was never exercised")
	}
}

// TestApplyUpdatesExactDetectionIsLocal pins the exact activation-set
// detection: on a graph of two disconnected components, mutating an edge
// inside one component must not recompute any hub of the other (no search
// there can push from the mutation's neighborhood), and every hub of a
// freshly built index must be tested exactly rather than via the
// conservative fallback.
func TestApplyUpdatesExactDetectionIsLocal(t *testing.T) {
	seed := uint64(17)
	const half = 40
	rng := walk.NewRNG(seed)
	b := graph.NewBuilderN(2 * half)
	for i := 0; i < 200; i++ {
		u, v := rng.Intn(half), rng.Intn(half)
		if u != v {
			b.AddEdge(u, v)           // component A: nodes [0, half)
			b.AddEdge(u+half, v+half) // component B: nodes [half, 2*half)
		}
	}
	g := b.MustBuild()
	opts := updateTestOptions(seed)
	opts.NumHubs = 16
	idx, err := BuildIndex(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	var hubsInA int
	for _, w := range idx.Hubs() {
		if w < half {
			hubsInA++
		}
	}
	if hubsInA == 0 || hubsInA == len(idx.Hubs()) {
		t.Fatalf("degenerate hub split: %d of %d in component A", hubsInA, len(idx.Hubs()))
	}

	// Mutate inside component B only.
	batch := []graph.EdgeUpdate{{From: half + 1, To: half + 7}}
	nidx, stats, err := idx.ApplyUpdates(batch)
	if err != nil {
		t.Fatal(err)
	}
	if stats.HubsExact != stats.HubsTotal {
		t.Errorf("HubsExact = %d of %d: built-in-process hubs must all use exact detection",
			stats.HubsExact, stats.HubsTotal)
	}
	for _, w := range stats.RecomputedHubs {
		if w < half {
			t.Errorf("hub %d in the untouched component was recomputed", w)
		}
	}
	if stats.HubsRecomputed == 0 {
		t.Error("no hubs recomputed: detection lost the mutation entirely")
	}

	// The successor still detects exactly (activation sets carry and refresh).
	_, stats2, err := nidx.ApplyUpdates([]graph.EdgeUpdate{{From: 2, To: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if stats2.HubsExact != stats2.HubsTotal {
		t.Errorf("successor HubsExact = %d of %d", stats2.HubsExact, stats2.HubsTotal)
	}
	for _, w := range stats2.RecomputedHubs {
		if w >= half {
			t.Errorf("hub %d in component B recomputed for a component-A edge", w)
		}
	}
}

func TestApplyUpdatesRejectsBadBatch(t *testing.T) {
	seed := uint64(5)
	g := randomGraph(seed, 20, 60)
	idx, err := BuildIndex(g, updateTestOptions(seed))
	if err != nil {
		t.Fatal(err)
	}
	before := idx.Graph().Checksum()
	if _, _, err := idx.ApplyUpdates([]graph.EdgeUpdate{{From: 0, To: 1000}}); err == nil {
		t.Fatal("out-of-range update accepted")
	}
	if _, _, err := idx.ApplyUpdates([]graph.EdgeUpdate{{From: 19, To: 18, Delete: true}, {From: 0, To: 1}}); err == nil {
		// Node 19→18 may exist for this seed; only fail if it truly is absent.
		if !idx.Graph().HasEdge(19, 18) {
			t.Fatal("deleting an absent edge accepted")
		}
	}
	if idx.Graph().Checksum() != before {
		t.Fatal("failed ApplyUpdates mutated the receiver's graph")
	}

	// Empty batches are a no-op returning the receiver itself.
	same, stats, err := idx.ApplyUpdates(nil)
	if err != nil || same != idx || stats.Updates != 0 {
		t.Fatalf("empty batch: idx=%p same=%p stats=%+v err=%v", idx, same, stats, err)
	}
}

// FuzzApplyEdgeUpdates drives random insert/delete/compact sequences through
// the incremental maintenance path and checks it against a from-scratch
// rebuild over the same hub set: the graphs must agree edge-for-edge, the
// checksums must match, and the index sections and query scores must be
// bit-identical. Untouched-hub byte identity only holds if affected-hub
// detection is sound, so this is the soundness harness for markAffected.
func FuzzApplyEdgeUpdates(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 2, 1, 3, 4, 2, 0, 0, 0, 5, 6})
	f.Add(uint64(9), []byte{1, 0, 1, 0, 2, 3, 2, 0, 0, 1, 2, 3, 0, 4, 5})
	f.Add(uint64(3), []byte{2, 0, 0, 2, 0, 0})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		const n = 12
		if len(ops) > 60 {
			ops = ops[:60]
		}
		g := randomGraph(seed, n, 40)
		opts := Options{Epsilon: 0.3, Delta: 0.05, NumHubs: 4, Seed: seed, SampleScale: 0.2}
		idx, err := BuildIndex(g, opts)
		if err != nil {
			t.Skip("unbuildable fixture")
		}
		base := idx.Graph().Clone()
		hubs := append([]int(nil), idx.Hubs()...)

		var batches [][]graph.EdgeUpdate
		var pending []graph.EdgeUpdate
		// Track the live multiset so generated deletes always target a
		// present edge and the final state can be cross-checked.
		mult := make(map[[2]int]int)
		idx.Graph().Edges(func(u, v int) bool { mult[[2]int{u, v}]++; return true })
		for i := 0; i+2 < len(ops); i += 3 {
			kind, u, v := ops[i]%3, int(ops[i+1])%n, int(ops[i+2])%n
			switch kind {
			case 0: // insert
				pending = append(pending, graph.EdgeUpdate{From: u, To: v})
				mult[[2]int{u, v}]++
			case 1: // delete, only if present after pending updates
				if mult[[2]int{u, v}] > 0 {
					pending = append(pending, graph.EdgeUpdate{From: u, To: v, Delete: true})
					mult[[2]int{u, v}]--
				}
			case 2: // flush the batch through ApplyUpdates (compacts inside)
				if len(pending) > 0 {
					batches = append(batches, pending)
					pending = nil
				}
			}
		}
		if len(pending) > 0 {
			batches = append(batches, pending)
		}

		cur := idx
		for _, b := range batches {
			next, stats, err := cur.ApplyUpdates(b)
			if err != nil {
				t.Fatalf("ApplyUpdates(%v): %v", b, err)
			}
			if stats.EntriesCarried+stats.EntriesRewritten != stats.EntriesAfter {
				t.Fatalf("entry accounting broken: %+v", stats)
			}
			cur = next
		}

		// Graph parity: the final multiset must match the tracked edges.
		got := make(map[[2]int]int)
		cur.Graph().Edges(func(u, v int) bool { got[[2]int{u, v}]++; return true })
		for k, c := range mult {
			if c == 0 {
				delete(mult, k)
			}
		}
		if !reflect.DeepEqual(got, mult) {
			t.Fatalf("edge multiset diverged: got %v want %v", got, mult)
		}

		// Index parity: bit-identical to a from-scratch build over the same
		// hubs on the replayed graph.
		rep, err := replayGraph(base, batches)
		if err != nil {
			t.Fatal(err)
		}
		want, err := buildIndexWithHubs(rep, opts, hubs)
		if err != nil {
			t.Fatal(err)
		}
		requireIndexesBitIdentical(t, cur, want)
		src := int(seed) % n
		a, err := query(cur, src)
		if err != nil {
			t.Fatal(err)
		}
		b, err := query(want, src)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Scores, b.Scores) {
			t.Fatal("query scores diverged from forced-hub rebuild")
		}
	})
}

func BenchmarkApplyUpdates(b *testing.B) {
	g := randomGraph(1, 20000, 100000)
	opts := Options{Epsilon: 0.5, Seed: 1, SampleScale: 0.2}
	idx, err := BuildIndex(g, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := (i * 7919) % 20000
		v := (i*104729 + 1) % 20000
		_, _, err := idx.ApplyUpdates([]graph.EdgeUpdate{{From: u, To: v}})
		if err != nil {
			b.Fatal(err)
		}
	}
}
