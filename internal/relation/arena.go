package relation

// Arena slab-allocates rows: many small rows are sliced out of large shared
// chunks, so building a witness relation costs one allocation per few
// thousand values instead of one per row. Rows remain immutable after
// insertion by the package convention. Dropping the arena and every relation
// built from it reclaims the memory; an owner that knows no row is in use
// any more (internal/core, once a document is consumed) calls Reset instead
// and builds the next document's rows in the same slab. Arenas are not safe
// for concurrent use.
type Arena struct {
	chunk []int64 // the unused rest of slab
	slab  []int64 // the latest chunk in full, which Reset hands out again
	// next is the size of the next chunk. Chunks grow geometrically from
	// arenaChunkStart to arenaChunkMax: a document with a handful of
	// witness rows pays for a small slab, a heavy one still amortizes to
	// one allocation per ~1000 rows.
	next int
}

// Chunk growth bounds, in values. Witness-relation rows are 2–6 values.
const (
	arenaChunkStart = 128
	arenaChunkMax   = 4096
)

// Row returns a zeroed n-value row carved from the arena. The row has
// capacity exactly n, so appending to it never bleeds into a neighbour.
func (a *Arena) Row(n int) []int64 {
	if n > len(a.chunk) {
		if a.next == 0 {
			a.next = arenaChunkStart
		}
		size := a.next
		if a.next < arenaChunkMax {
			a.next *= 2
		}
		if n > size {
			size = n
		}
		a.slab = make([]int64, size)
		a.chunk = a.slab
	}
	row := a.chunk[:n:n]
	a.chunk = a.chunk[n:]
	return row
}

// Reset empties the arena for reuse: every row carved from it so far is
// invalid from here on, and the latest chunk — the largest, so an arena that
// serves similar documents settles on one that holds a whole document — is
// zeroed where it was used and carved again.
func (a *Arena) Reset() {
	clear(a.slab[:len(a.slab)-len(a.chunk)])
	a.chunk = a.slab
}

// Insert appends a row built from vals to r, with the row's storage carved
// from the arena.
func (a *Arena) Insert(r *Relation, vals ...int64) {
	row := a.Row(len(vals))
	copy(row, vals)
	r.Insert(row...)
}
