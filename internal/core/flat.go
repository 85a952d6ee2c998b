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
// index the last edge records, and returns the node its first depth levels
// reach; the edges it shares with live groups count one more group.
func (tr *vecTrie) insert(levels []int, vars []int32, group int32, depth int) int32 {
	node := int32(0)
	at := node
	for l, p := range levels {
		k := packPair(int64(node), int64(vars[p]))
		if i := tr.find(k); i >= 0 {
			tr.slots[i].count++
			node = tr.slots[i].child
		} else {
			child := group
			if l < len(levels)-1 {
				child = tr.newNode()
			}
			tr.put(trieEdge{k, child, 1})
			node = child
		}
		if l+1 == depth {
			at = node
		}
	}
	return at
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

// headKey is the four class names a value join's pair binds: those of its
// left endpoint's parent and of the endpoint, then the same on the right
// (Template.keyPos; noParent and anyClass stand in where a block root has
// none). A template's first value join binds them in its trie's first levels
// (cqplan.go, compileCQ); those of its later value joins are its key tuple
// (Template.tuple).
type headKey [4]int32

// hash spreads a head key over a power-of-two table (Fibonacci hashing of
// its two halves).
func (k headKey) hash() uint64 {
	a, b := uint64(packPair(int64(k[0]), int64(k[1]))), uint64(packPair(int64(k[2]), int64(k[3])))
	return (a*fib ^ b) * fib
}

// joinIndex holds every template's vector groups by their value-join keys:
// one entry per group, naming its template, its index in the template's
// vecList, the trie node below its head key (the group's index again where
// the head key ends at the group) and its key tuple's first key (the head
// key again for an empty tuple). The table is keyed by head key; a key's
// entries lie in one slice, in no order: runHeads tests each one's first key
// against the document's present keys. The rest of a tuple is read off the
// group's vector when it is needed.
type joinIndex struct {
	slots []headSlot // an empty entries marks an empty slot
	n     int
	shift uint
}

type headSlot struct {
	key     headKey
	entries []joinEntry
}

type joinEntry struct {
	first       headKey
	g           *vecGroup
	t           *Template
	group, node int32
}

func (h *joinIndex) home(k headKey) int { return int(k.hash() >> h.shift) }

// slot returns the slot of head key k, or -1.
func (h *joinIndex) slot(k headKey) int {
	if h.n == 0 {
		return -1
	}
	mask := len(h.slots) - 1
	for i := h.home(k); len(h.slots[i].entries) != 0; i = (i + 1) & mask {
		if h.slots[i].key == k {
			return i
		}
	}
	return -1
}

// find returns the slot of the head key of template t's group with vector
// vars, and the index of the group's entry there.
func (h *joinIndex) find(t *Template, vars []int32, group int32) (int, int) {
	i := h.slot(t.headKey(vars))
	es := h.slots[i].entries
	j := 0
	for es[j].t != t || es[j].group != group {
		j++
	}
	return i, j
}

// add enters template t's new group g, at index group, whose head key has
// node below it in t's trie.
func (h *joinIndex) add(t *Template, g *vecGroup, group, node int32) {
	k := t.headKey(g.vars)
	i := h.slot(k)
	if i < 0 {
		i = h.put(k)
	}
	s := &h.slots[i]
	s.entries = append(s.entries, joinEntry{first: t.firstKey(g.vars), g: g, t: t, group: group, node: node})
}

// put makes the slot of head key k, which has none, and returns it, growing
// the table to keep it at most three-quarters full; the caller gives the
// slot its first entry.
func (h *joinIndex) put(k headKey) int {
	if 4*(h.n+1) > 3*len(h.slots) {
		old := h.slots
		h.slots = make([]headSlot, max(8, 2*len(old)))
		h.shift = tableShift(len(h.slots))
		for _, o := range old {
			if len(o.entries) != 0 {
				h.slots[h.free(o.key)] = o
			}
		}
	}
	i := h.free(k)
	h.slots[i].key = k
	h.n++
	return i
}

// free returns the empty slot where k's probe run ends.
func (h *joinIndex) free(k headKey) int {
	mask := len(h.slots) - 1
	i := h.home(k)
	for len(h.slots[i].entries) != 0 {
		i = (i + 1) & mask
	}
	return i
}

// remove drops the entry of template t's retired group, with vector vars at
// index group, and the head key's slot with its last entry.
func (h *joinIndex) remove(t *Template, vars []int32, group int32) {
	i, j := h.find(t, vars, group)
	s := &h.slots[i]
	if s.entries = slices.Delete(s.entries, j, j+1); len(s.entries) > 0 {
		return
	}
	h.n--
	backshift(h.slots, i, func(s *headSlot) (int, bool) { return h.home(s.key), len(s.entries) != 0 })
}

// relink points the entry of template t's group with vector vars, moved
// from index from to index to, at its new index, and where the head key ends
// at the group, its node too.
func (h *joinIndex) relink(t *Template, vars []int32, from, to int32) {
	i, j := h.find(t, vars, from)
	e := &h.slots[i].entries[j]
	if e.group = to; t.N == t.keyDepth {
		e.node = to
	}
}

// keySet is a document's present keys, each with the first of its pairs
// (cqExec.next chains the rest) and the previous documents its pairs lie
// in, as bit in%64 of docs for each state slot in: an open-addressing table
// whose slots hold a key for the document that stamped them, so it is never
// cleared. keys lists the slots in the order their keys were first added.
type keySet struct {
	slots []keySlot
	keys  []int32
	shift uint
	doc   int64
}

type keySlot struct {
	key  headKey
	head int32
	doc  int64
	docs uint64
}

// reset empties the set for document doc, which adds at most n pairs.
func (ks *keySet) reset(doc int64, n int) {
	ks.doc, ks.keys = doc, ks.keys[:0]
	if 2*n > len(ks.slots) {
		ks.slots = make([]keySlot, max(64, 1<<bits.Len(uint(2*n))))
		ks.shift = tableShift(len(ks.slots))
	}
}

// find returns the slot of key k, or the empty slot where its probe run
// ends.
func (ks *keySet) find(k headKey) int {
	mask := len(ks.slots) - 1
	i := int(k.hash() >> ks.shift)
	for s := &ks.slots[i]; s.doc == ks.doc && s.key != k; s = &ks.slots[i] {
		i = (i + 1) & mask
	}
	return i
}

// add chains pair i, whose key is k and whose previous document lies in
// state slot in, under k, adding the key where it is new, and returns the
// pair chained after it, -1 for none.
func (ks *keySet) add(k headKey, in int64, i int32) int32 {
	si := ks.find(k)
	s := &ks.slots[si]
	if s.doc != ks.doc {
		*s = keySlot{key: k, head: -1, doc: ks.doc}
		ks.keys = append(ks.keys, int32(si))
	}
	s.docs |= 1 << (in & 63)
	next := s.head
	s.head = i
	return next
}

// docs returns the previous documents key k's pairs lie in, as keySlot.docs
// marks them: 0 when k has no pair.
func (ks *keySet) docs(k headKey) uint64 {
	if s := &ks.slots[ks.find(k)]; s.doc == ks.doc {
		return s.docs
	}
	return 0
}

// rowIndex groups the rows of a relation by the value of one integer column.
// Keys spanning a range not much wider than the row count — node ids, state
// slots — get an offset array indexed by key minus the smallest key; sparse
// keys (a deep document's node ids, symbols, or the node ids of a hand-made
// snapshot) get their distinct values in ascending order, found by binary
// search. Within a group, row numbers ascend. build reuses the index's
// storage, so an index rebuilt for every document allocates only when a
// document outgrows it.
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

// countSpan bounds the key span a sparse index is grouped by counting sort,
// with its counts on the stack, and countRatio the span per row; a wider
// span is sorted.
const (
	countSpan  = 1024
	countRatio = 16
)

// build indexes the rows laid out in vals, width values a row, on column
// col.
func (x *rowIndex) build(vals []int64, width, col int) {
	n := len(vals) / width
	x.rows = resize(x.rows, n)
	x.keys = x.keys[:0]
	x.sparse = false
	if n == 0 {
		x.lo, x.off = 0, append(x.off[:0], 0)
		return
	}
	lo, hi := vals[col], vals[col]
	for i := col + width; i < len(vals); i += width {
		lo, hi = min(lo, vals[i]), max(hi, vals[i])
	}
	// hi-lo wraps for extreme keys, but as an unsigned number it is the
	// exact span.
	span := uint64(hi - lo)
	switch {
	case span <= 2*uint64(n)+denseSlack:
		x.lo = lo
		x.off = resize(x.off, int(span)+2)
		x.group(vals, width, col, lo, x.off[1:])
		x.off[0] = 0
	case span < countSpan && span <= countRatio*uint64(n):
		// Sparse, grouped by counting sort: only the non-empty groups are
		// kept, so the index holds at most one key per row.
		var count [countSpan]int32
		x.group(vals, width, col, lo, count[:span+1])
		x.sparse = true
		x.keys = slices.Grow(x.keys, n)
		x.off = slices.Grow(x.off[:0], n+1)
		start := int32(0)
		for g, end := range count[:span+1] {
			if end > start {
				x.keys = append(x.keys, lo+int64(g))
				x.off = append(x.off, start)
			}
			start = end
		}
		x.off = append(x.off, int32(n))
	default:
		x.buildSorted(vals, width, col)
	}
}

// group places the row numbers into rows by counting sort of their keys
// minus lo, which off has a counter for each of, and leaves off[g] at the
// end of group g.
func (x *rowIndex) group(vals []int64, width, col int, lo int64, off []int32) {
	clear(off)
	for i := col; i < len(vals); i += width {
		off[vals[i]-lo]++
	}
	// The prefix sums make off[g] the end of group g; placement walks the
	// rows backwards, moving off[g] to its start, and then past it.
	for g := 1; g < len(off); g++ {
		off[g] += off[g-1]
	}
	for i := len(x.rows) - 1; i >= 0; i-- {
		g := vals[i*width+col] - lo
		off[g]--
		x.rows[off[g]] = int32(i)
	}
	// off[g] is now group g's start, which is group g-1's end.
	copy(off, off[1:])
	off[len(off)-1] = int32(len(x.rows))
}

func (x *rowIndex) buildSorted(vals []int64, width, col int) {
	x.sparse = true
	for i := range x.rows {
		x.rows[i] = int32(i)
	}
	key := func(r int32) int64 { return vals[int(r)*width+col] }
	slices.SortStableFunc(x.rows, func(a, b int32) int { return cmp.Compare(key(a), key(b)) })
	// At most one key per row: sized once, the lists never regrow.
	x.keys = slices.Grow(x.keys, len(x.rows))
	x.off = slices.Grow(x.off[:0], len(x.rows)+1)
	for i, r := range x.rows {
		if k := key(r); i == 0 || k != x.keys[len(x.keys)-1] {
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

// Every buffer kept from one document for the next follows one rule: it
// notes each document's need, in entries, and keeps its capacity while that
// is at most max(retainFloor, retainFactor × the largest need of this and
// the last epoch of retainDocs documents). So nothing under the floor is
// dropped, a steadily large shape keeps its storage and a lone burst's goes.
const retainFloor, retainFactor, retainDocs = 4096, 4, 64

// retention is one buffer's tracker, its owner's own: the last need, and the
// largest of this epoch, n documents so far, and of the last.
type retention struct{ last, cur, prev, n int }

func (t *retention) note(need int) {
	if t.last, t.cur, t.n = need, max(t.cur, need), t.n+1; t.n == retainDocs {
		t.prev, t.cur, t.n = t.cur, 0, 0
	}
}

// kept returns s emptied, or nil where t does not keep its capacity; reuse
// notes the length of s as the document's need first.
func kept[T any](t *retention, s []T) []T {
	if cap(s) <= max(retainFloor, retainFactor*max(t.cur, t.prev)) {
		return s[:0]
	}
	return nil
}

func reuse[T any](t *retention, s []T) []T {
	t.note(len(s))
	return kept(t, s)
}
