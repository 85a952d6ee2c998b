package core

import (
	"cmp"
	"math/bits"
	"slices"
)

// Integer-keyed indexes of the per-document path. Every key Stage 2 probes
// with is already an integer — a node id, a state slot, an interned symbol or
// variable — so none of these tables hashes through a Go map: a row index is
// an offset array (or a sorted key list), and the two sets registration
// maintains for evaluation (Template.vectors and Template.live) are
// open-addressing tables with linear probing over one flat slice, at most
// half full.

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

// pairSet counts, per packed (v_parent, v_p) variable pair, the live vector
// groups carrying it at one template position (Template.live).
type pairSet struct {
	slots []pairSlot // count 0 marks an empty slot
	n     int
	shift uint
}

type pairSlot struct {
	key   int64
	count int32
}

// packPair packs two interned canonical variables (symtab ids, far below
// 2^31) into one key.
func packPair(a, b int64) int64 { return a<<32 | int64(uint32(b)) }

func (s *pairSet) home(k int64) int { return int(uint64(k) * fib >> s.shift) }

// has reports whether some live vector group carries pair k.
func (s *pairSet) has(k int64) bool {
	if s.n == 0 {
		return false
	}
	mask := len(s.slots) - 1
	for i := s.home(k); ; i = (i + 1) & mask {
		switch sl := &s.slots[i]; {
		case sl.count == 0:
			return false
		case sl.key == k:
			return true
		}
	}
}

// add moves k's count by delta (±1): a pair enters at its first group and
// leaves with its last.
func (s *pairSet) add(k int64, delta int32) {
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	mask := len(s.slots) - 1
	i := s.home(k)
	for ; s.slots[i].count != 0; i = (i + 1) & mask {
		if s.slots[i].key != k {
			continue
		}
		if s.slots[i].count += delta; s.slots[i].count == 0 {
			s.n--
			backshift(s.slots, i, func(sl *pairSlot) (int, bool) { return s.home(sl.key), sl.count != 0 })
		}
		return
	}
	s.slots[i] = pairSlot{k, delta}
	s.n++
}

func (s *pairSet) grow() {
	old := s.slots
	s.slots = make([]pairSlot, max(8, 2*len(old)))
	s.shift = tableShift(len(s.slots))
	mask := len(s.slots) - 1
	for _, sl := range old {
		if sl.count == 0 {
			continue
		}
		i := s.home(sl.key)
		for s.slots[i].count != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = sl
	}
}

// vecTable finds a template's vector group by its variable vector
// (Template.vectors).
type vecTable struct {
	slots []*vecGroup // nil marks an empty slot
	n     int
	shift uint
}

// hashVec hashes a variable vector; a group keeps its vector's hash.
func hashVec(vars []int64) uint64 {
	h := uint64(len(vars))
	for _, v := range vars {
		h = (h ^ uint64(v)) * fib
	}
	return h
}

func (t *vecTable) home(h uint64) int { return int(h >> t.shift) }

// get returns the group whose vector equals vars, or nil.
func (t *vecTable) get(vars []int64) *vecGroup {
	if t.n == 0 {
		return nil
	}
	h := hashVec(vars)
	mask := len(t.slots) - 1
	for i := t.home(h); t.slots[i] != nil; i = (i + 1) & mask {
		if g := t.slots[i]; g.hash == h && slices.Equal(g.vars, vars) {
			return g
		}
	}
	return nil
}

// insert adds a group whose vector is not in the table.
func (t *vecTable) insert(g *vecGroup) {
	if 2*(t.n+1) > len(t.slots) {
		old := t.slots
		t.slots = make([]*vecGroup, max(8, 2*len(old)))
		t.shift = tableShift(len(t.slots))
		t.n = 0
		for _, o := range old {
			if o != nil {
				t.insert(o)
			}
		}
	}
	mask := len(t.slots) - 1
	i := t.home(g.hash)
	for t.slots[i] != nil {
		i = (i + 1) & mask
	}
	t.slots[i] = g
	t.n++
}

// remove deletes a group that is in the table.
func (t *vecTable) remove(g *vecGroup) {
	mask := len(t.slots) - 1
	i := t.home(g.hash)
	for t.slots[i] != g {
		i = (i + 1) & mask
	}
	t.n--
	backshift(t.slots, i, func(o **vecGroup) (int, bool) {
		if *o == nil {
			return 0, false
		}
		return t.home((*o).hash), true
	})
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
	x.off = x.off[:0]
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
