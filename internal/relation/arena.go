package relation

// Arena slab-allocates tuples: many small rows are sliced out of large
// shared chunks, so building a witness relation costs one allocation per
// few thousand values instead of one per row. Tuples remain immutable after
// insertion by the package convention. Dropping the arena and every relation
// built from it reclaims the memory; an owner that knows no tuple is in use
// any more (internal/core, once a document is consumed) calls Reset instead
// and builds the next document's rows in the same slab. Arenas are not safe
// for concurrent use.
type Arena struct {
	chunk []Value // the unused rest of slab
	slab  []Value // the latest chunk in full, which Reset hands out again
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

// Tuple returns a zeroed n-value tuple carved from the arena. The tuple has
// capacity exactly n, so appending to it never bleeds into a neighbour.
func (a *Arena) Tuple(n int) Tuple {
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
		a.slab = make([]Value, size)
		a.chunk = a.slab
	}
	t := Tuple(a.chunk[:n:n])
	a.chunk = a.chunk[n:]
	return t
}

// Reset empties the arena for reuse: every tuple carved from it so far is
// invalid from here on, and the latest chunk — the largest, so an arena that
// serves similar documents settles on one that holds a whole document — is
// zeroed where it was used and carved again.
func (a *Arena) Reset() {
	clear(a.slab[:len(a.slab)-len(a.chunk)])
	a.chunk = a.slab
}

// Insert appends a row built from vals to r, with the tuple's storage
// carved from the arena.
func (a *Arena) Insert(r *Relation, vals ...Value) {
	if len(vals) != len(r.Schema) {
		panic("relation: arena insert arity mismatch")
	}
	t := a.Tuple(len(vals))
	copy(t, vals)
	r.Rows = append(r.Rows, t)
}
