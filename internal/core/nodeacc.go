package core

import "math/bits"

// nodeAcc is a sparse accumulator keyed by node id: the nodes it holds in
// first-touch order, their values in the same order, and an open-addressing
// table from node to position that is sized to the nodes inserted, so its
// memory follows the work of the largest query it served rather than the
// graph's node count. A node's entry starts at zero on first touch and is
// then updated in place, so a fold through it performs the same float
// operations in the same order as a dense array with a touched list.
//
// The table probes linearly from a Fibonacci hash of the node and is kept at
// most half full. Each entry records its slot, so reset empties exactly the
// occupied slots without probing. The zero value is an empty accumulator.
type nodeAcc struct {
	nodes []int32
	vals  []float64
	slots []uint32 // slots[i] is the table slot holding nodes[i]
	table []accSlot
	shift uint // 32 - log2(len(table)): the hash keeps the product's top bits
}

// accSlot is one table slot: a node and 1 + its position in nodes (0 marks
// an empty slot).
type accSlot struct {
	node, pos int32
}

const (
	accMinTable = 16
	fib32       = 0x9e3779b9 // 2^32 / golden ratio
)

// at returns v's position in nodes and vals, appending v with value zero on
// first touch. Callers must not index vals in the same expression as the
// call: the append may move it.
func (a *nodeAcc) at(v int32) int {
	// Make room for one more entry before probing, so an insert below
	// never has to grow (this also sizes the zero value's empty table).
	if 2*len(a.nodes) >= len(a.table) {
		a.grow()
	}
	mask := uint32(len(a.table) - 1)
	for h := uint32(v) * fib32 >> a.shift; ; h = (h + 1) & mask {
		s := a.table[h]
		if s.pos == 0 {
			a.table[h] = accSlot{node: v, pos: int32(len(a.nodes) + 1)}
			a.nodes = append(a.nodes, v)
			a.vals = append(a.vals, 0)
			a.slots = append(a.slots, h)
			return len(a.nodes) - 1
		}
		if s.node == v {
			return int(s.pos - 1)
		}
	}
}

// add folds x into v's entry.
func (a *nodeAcc) add(v int32, x float64) {
	i := a.at(v)
	a.vals[i] += x
}

// grow doubles the table and re-inserts the entries in first-touch order.
func (a *nodeAcc) grow() {
	size := max(2*len(a.table), accMinTable)
	a.table = make([]accSlot, size)
	a.shift = uint(32 - bits.TrailingZeros(uint(size)))
	mask := uint32(size - 1)
	for i, v := range a.nodes {
		h := uint32(v) * fib32 >> a.shift
		for a.table[h].pos != 0 {
			h = (h + 1) & mask
		}
		a.table[h] = accSlot{node: v, pos: int32(i + 1)}
		a.slots[i] = h
	}
}

// reset empties the accumulator, keeping its buffers.
func (a *nodeAcc) reset() {
	for _, h := range a.slots {
		a.table[h] = accSlot{}
	}
	a.nodes, a.vals, a.slots = a.nodes[:0], a.vals[:0], a.slots[:0]
}
