package core

import (
	"cmp"
	"math/bits"
	"slices"
)

// Integer-keyed indexes of the per-document path. Every key Stage 2 probes
// with is already an integer — a node id, a state slot, a join-value id or an
// interned variable — so none of these tables hashes through a Go map: a row index is
// an offset array (or a sorted key list), and the trie registration
// maintains for evaluation (Template.trie) is an open-addressing table with
// linear probing over one flat slice.

// fib is 2^64 / φ: multiplying by it and keeping the high bits (Fibonacci
// hashing) spreads consecutive integers over a power-of-two table.
const fib = 0x9E3779B97F4A7C15

// tableShift is the shift that maps a 64-bit hash to a slot of an n-slot
// table, n a power of two.
func tableShift(n int) uint { return uint(64 - bits.TrailingZeros(uint(n))) }

// backshift empties slot i of a linear-probing table and moves the later
// entries of its probe run back over the hole, so no lookup ever stops early.
// home returns an entry's home slot, and false for an empty slot.
func backshift[E any](slots []E, i int, home func(*E) (int, bool)) {
	mask := len(slots) - 1
	for j := (i + 1) & mask; ; j = (j + 1) & mask {
		h, used := home(&slots[j])
		if !used {
			break
		}
		// The entry at j may fill the hole unless its home lies cyclically
		// in (i, j].
		if (j > i && (h <= i || h > j)) || (j < i && h <= i && h > j) {
			slots[i] = slots[j]
			i = j
		}
	}
	var zero E
	slots[i] = zero
}

// vecTrie holds a template's live vector groups as a trie over their
// variables, one level per v slot in the order the witness-driven program
// binds them (Template.levels), so a walk extends its prefix with each
// variable it binds and stops at the first prefix no subscription
// registered. Node 0 is the root; every edge is one slot of a flat table
// keyed by packPair(node, variable), and the edges of the last level name
// their group by its index in Template.vecList.
type vecTrie struct {
	slots []trieEdge // count 0 marks an empty slot
	n     int
	shift uint
	// next is the next unused node id, free the ids of nodes whose last
	// group left.
	next int32
	free []int32
}

type trieEdge struct {
	key   int64 // packPair(parent node, variable)
	child int32 // the child node, or at the last level the group's index
	count int32 // live groups below the edge
}

// packPair packs a node id or interned class name (symtab ids, far
// below 2^31) with a variable into one key.
func packPair(a, b int64) int64 { return a<<32 | int64(uint32(b)) }

func (tr *vecTrie) home(k int64) int { return int(uint64(k) * fib >> tr.shift) }

// find returns the slot of the edge keyed k, or -1.
func (tr *vecTrie) find(k int64) int {
	if tr.n == 0 {
		return -1
	}
	mask := len(tr.slots) - 1
	for i := tr.home(k); ; i = (i + 1) & mask {
		switch e := &tr.slots[i]; {
		case e.count == 0:
			return -1
		case e.key == k:
			return i
		}
	}
}

// child returns the node reached from node over variable v, or -1 when no
// live group carries that prefix.
func (tr *vecTrie) child(node int32, v int64) int32 {
	if i := tr.find(packPair(int64(node), v)); i >= 0 {
		return tr.slots[i].child
	}
	return -1
}

// walk returns the node vars spells along levels, or -1 where the trie
// stops.
func (tr *vecTrie) walk(levels []int, vars []int32) int32 {
	node := int32(0)
	for _, p := range levels {
		if node = tr.child(node, int64(vars[p])); node < 0 {
			break
		}
	}
	return node
}

// insert adds the path vars spells along levels for a new group, whose
// index the last edge records; the edges it shares with live groups count
// one more group.
func (tr *vecTrie) insert(levels []int, vars []int32, group int32) {
	node := int32(0)
	for l, p := range levels {
		k := packPair(int64(node), int64(vars[p]))
		if i := tr.find(k); i >= 0 {
			tr.slots[i].count++
			node = tr.slots[i].child
			continue
		}
		child := group
		if l < len(levels)-1 {
			child = tr.newNode()
		}
		tr.put(trieEdge{k, child, 1})
		node = child
	}
}

// remove takes a retired group's path out of the trie, dropping every edge
// no other group shares, and returns the group's index.
func (tr *vecTrie) remove(levels []int, vars []int32) int32 {
	node := int32(0)
	for l, p := range levels {
		i := tr.find(packPair(int64(node), int64(vars[p])))
		e := &tr.slots[i]
		node = e.child
		if e.count--; e.count == 0 {
			tr.n--
			backshift(tr.slots, i, func(e *trieEdge) (int, bool) { return tr.home(e.key), e.count != 0 })
			if l < len(levels)-1 {
				tr.free = append(tr.free, node)
			}
		}
	}
	return node
}

// relink points the last edge of a live group's path at its new index.
func (tr *vecTrie) relink(levels []int, vars []int32, group int32) {
	last := len(levels) - 1
	node := tr.walk(levels[:last], vars)
	tr.slots[tr.find(packPair(int64(node), int64(vars[levels[last]])))].child = group
}

func (tr *vecTrie) newNode() int32 {
	if n := len(tr.free); n > 0 {
		id := tr.free[n-1]
		tr.free = tr.free[:n-1]
		return id
	}
	tr.next++
	return tr.next
}

// put stores an edge whose key is not in the table, growing the table to
// keep it at most three-quarters full.
func (tr *vecTrie) put(e trieEdge) {
	if 4*(tr.n+1) > 3*len(tr.slots) {
		old := tr.slots
		tr.slots = make([]trieEdge, max(8, 2*len(old)))
		tr.shift = tableShift(len(tr.slots))
		tr.n = 0
		for _, o := range old {
			if o.count != 0 {
				tr.put(o)
			}
		}
	}
	mask := len(tr.slots) - 1
	i := tr.home(e.key)
	for tr.slots[i].count != 0 {
		i = (i + 1) & mask
	}
	tr.slots[i] = e
	tr.n++
}

// rowIndex groups the rows of a relation by the value of one integer column.
// Keys spanning a range not much wider than the row count — node ids, state
// slots — get an offset array indexed by key minus the smallest key; sparse
// keys (symbols, or the node ids of a hand-made snapshot) get their distinct
// values in ascending order, found by binary search. Within a group, row
// numbers ascend. build reuses the index's storage, so an index rebuilt for
// every document allocates only when a document outgrows it.
type rowIndex struct {
	lo     int64
	sparse bool
	keys   []int64 // sparse layout: the distinct keys, ascending
	off    []int32 // group g is rows[off[g]:off[g+1]]
	rows   []int32
}

// denseSlack bounds the empty groups a dense index may carry: with a key span
// above twice the row count plus this, the index goes sparse.
const denseSlack = 64

// build indexes rows on column col.
func (x *rowIndex) build(rows [][]int64, col int) {
	x.rows = resize(x.rows, len(rows))
	x.keys = x.keys[:0]
	x.sparse = false
	if len(rows) == 0 {
		x.lo, x.off = 0, append(x.off[:0], 0)
		return
	}
	lo, hi := rows[0][col], rows[0][col]
	for _, r := range rows[1:] {
		lo, hi = min(lo, r[col]), max(hi, r[col])
	}
	// hi-lo wraps for extreme keys, but as an unsigned number it is the
	// exact span.
	if span := uint64(hi - lo); span > 2*uint64(len(rows))+denseSlack {
		x.buildSparse(rows, col)
		return
	}
	// Counting sort: off[g+1] counts group g, the prefix sums make off[g]
	// its start, placement advances off[g] to the start of g+1, and the
	// shift restores it.
	ng := int(hi-lo) + 1
	x.lo = lo
	x.off = resize(x.off, ng+1)
	clear(x.off)
	for _, r := range rows {
		x.off[r[col]-lo+1]++
	}
	for g := 1; g <= ng; g++ {
		x.off[g] += x.off[g-1]
	}
	for i, r := range rows {
		g := r[col] - lo
		x.rows[x.off[g]] = int32(i)
		x.off[g]++
	}
	copy(x.off[1:], x.off[:ng])
	x.off[0] = 0
}

func (x *rowIndex) buildSparse(rows [][]int64, col int) {
	x.sparse = true
	for i := range x.rows {
		x.rows[i] = int32(i)
	}
	slices.SortStableFunc(x.rows, func(a, b int32) int { return cmp.Compare(rows[a][col], rows[b][col]) })
	// At most one key per row: sized once, the lists never regrow.
	x.keys = slices.Grow(x.keys, len(rows))
	x.off = slices.Grow(x.off[:0], len(rows)+1)
	for i, r := range x.rows {
		if k := rows[r][col]; i == 0 || k != x.keys[len(x.keys)-1] {
			x.keys = append(x.keys, k)
			x.off = append(x.off, int32(i))
		}
	}
	x.off = append(x.off, int32(len(x.rows)))
}

// get returns the row numbers whose indexed column equals k.
func (x *rowIndex) get(k int64) []int32 {
	var g int
	if x.sparse {
		i, ok := slices.BinarySearch(x.keys, k)
		if !ok {
			return nil
		}
		g = i
	} else {
		if k < x.lo || uint64(k-x.lo) >= uint64(len(x.off)-1) {
			return nil
		}
		g = int(k - x.lo)
	}
	return x.rows[x.off[g]:x.off[g+1]]
}

// resize returns s with length n, reusing its array when it is large enough
// and otherwise growing it as append does, so a buffer that follows a slowly
// rising size is reallocated a logarithmic number of times. The contents are
// not cleared.
func resize[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}
