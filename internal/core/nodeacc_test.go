package core

import (
	"math"
	"testing"

	"prsim/internal/walk"
)

// TestNodeAccMatchesMap drives a nodeAcc with random adds, sets and resets
// and checks it after every operation against a map plus a first-touch
// list: same nodes in the same order, same value bits, every node found at
// its position, and the table at most half full. Node ids mix a small
// clustered range (long probe runs) with ids up to 2^31-1, and each round
// grows the accumulator further than the last, so growth and reuse after a
// reset are both covered.
func TestNodeAccMatchesMap(t *testing.T) {
	rng := walk.NewRNG(17)
	var a nodeAcc
	for round := 0; round < 12; round++ {
		want := map[int32]float64{}
		var order []int32
		ops := 40 << (round % 6)
		for op := 0; op < ops; op++ {
			var v int32
			if rng.Intn(2) == 0 {
				v = int32(rng.Intn(64))
			} else {
				v = int32(rng.Uint64() >> 33)
			}
			if _, ok := want[v]; !ok {
				order = append(order, v)
				want[v] = 0
			}
			x := rng.Float64()
			if rng.Intn(4) == 0 {
				i := a.at(v)
				a.vals[i] = x
				want[v] = x
			} else {
				a.add(v, x)
				want[v] += x
			}
			if op%7 == 0 || op == ops-1 {
				checkNodeAcc(t, &a, want, order)
			}
		}
		a.reset()
		checkNodeAcc(t, &a, nil, nil)
	}
}

func checkNodeAcc(t *testing.T, a *nodeAcc, want map[int32]float64, order []int32) {
	t.Helper()
	if len(a.nodes) != len(order) || len(a.vals) != len(order) {
		t.Fatalf("%d nodes and %d values, want %d", len(a.nodes), len(a.vals), len(order))
	}
	if len(a.table) != 0 && 2*len(a.nodes) > len(a.table) {
		t.Fatalf("%d entries in a table of %d slots", len(a.nodes), len(a.table))
	}
	for i, v := range order {
		if a.nodes[i] != v {
			t.Fatalf("entry %d is node %d, want %d", i, a.nodes[i], v)
		}
		if math.Float64bits(a.vals[i]) != math.Float64bits(want[v]) {
			t.Fatalf("node %d value %v, want %v", v, a.vals[i], want[v])
		}
	}
	used := 0
	for _, s := range a.table {
		if s.pos != 0 {
			used++
		}
	}
	if used != len(order) {
		t.Fatalf("%d occupied slots for %d entries", used, len(order))
	}
	for i, v := range order {
		if got := a.at(v); got != i {
			t.Fatalf("node %d found at %d, want %d", v, got, i)
		}
	}
}
