// Package relation is the in-memory relational substrate of the MMQJP Join
// Processor: typed tuples, named schemas and append-only row stores hold the
// witness relations and the join state, and the compiled Stage-2 programs
// (internal/core/cqplan.go) read their rows directly. The paper evaluates
// its per-template conjunctive queries on a commercial SQL engine; the
// relational operators here — hash joins, semi-joins, projections, hash
// indexes and the interpreted evaluator EvalConjunctive built on them — play
// that role as the reference the compiled programs are tested against.
//
// Values are int64s (document ids, node ids, window lengths, interned
// variable names), strings (node string values), or interned symbols
// (internal/sym ids standing for node string values on the hot join path:
// 4-byte compare-and-hash instead of re-hashing string bytes per row).
// Relations are append-only row stores; operators produce new relations and
// never mutate inputs, except for the explicit mutators Insert and
// UnionInPlace used for join state maintenance (Algorithm 2).
package relation

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sym"
)

// Value is a single attribute value: an int64, a string, or an interned
// symbol.
type Value struct {
	I     int64
	S     string
	Str   bool // true when the value is the string S
	IsSym bool // true when the value is the interned symbol with id I
}

// Int returns an integer value.
func Int(i int64) Value { return Value{I: i} }

// Str returns a string value.
func Str(s string) Value { return Value{S: s, Str: true} }

// Sym returns an interned-symbol value. Symbols compare equal only to
// symbols (never to the Int of the same id or the Str of the same text), so
// plans cannot accidentally join an id column against a count column.
func Sym(id sym.ID) Value { return Value{I: int64(id), IsSym: true} }

// SymID returns the symbol id of an interned-symbol value. It panics on
// other kinds: reading a symbol out of a non-symbol column is a plan bug.
func (v Value) SymID() sym.ID {
	if !v.IsSym {
		panic("relation: SymID on non-symbol value")
	}
	return sym.ID(v.I)
}

// Equal reports value equality (distinct kinds never compare equal).
func (v Value) Equal(o Value) bool {
	if v.Str != o.Str || v.IsSym != o.IsSym {
		return false
	}
	if v.Str {
		return v.S == o.S
	}
	return v.I == o.I
}

// String renders the value for debugging and golden tests. Symbols render
// as their interned string, so goldens are identical whichever encoding a
// column uses.
func (v Value) String() string {
	if v.Str {
		return v.S
	}
	if v.IsSym {
		return sym.Name(sym.ID(v.I))
	}
	return fmt.Sprint(v.I)
}

// appendKey appends a self-delimiting encoding of v to b, for use in
// composite hash keys. The encoding is binary (kind tag, then an 8-byte
// length or integer, then string bytes); hash keys are built for every row
// of every join, so this path avoids fmt entirely. Symbols encode as their
// 4-byte id under a distinct tag — within one process equal symbols have
// equal ids, so key equality matches Equal.
func (v Value) appendKey(b []byte) []byte {
	if v.Str {
		n := uint64(len(v.S))
		b = append(b, 's',
			byte(n), byte(n>>8), byte(n>>16), byte(n>>24),
			byte(n>>32), byte(n>>40), byte(n>>48), byte(n>>56))
		return append(b, v.S...)
	}
	if v.IsSym {
		u := uint32(v.I)
		return append(b, 'y', byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
	}
	u := uint64(v.I)
	return append(b, 'i',
		byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

// Tuple is one row.
type Tuple []Value

// Key encodes the tuple's values at the given column positions as a hash key.
func (t Tuple) Key(cols []int) string {
	return string(t.appendKeyCols(make([]byte, 0, 16*len(cols)), cols))
}

// appendKeyCols appends the hash-key encoding of the values at cols to b.
// The hot joins reuse one scratch buffer across rows and look keys up as
// m[string(buf)] — a form the compiler compiles without materializing the
// string — so steady-state probes allocate nothing.
func (t Tuple) appendKeyCols(b []byte, cols []int) []byte {
	for _, c := range cols {
		b = t[c].appendKey(b)
	}
	return b
}

// Schema is an ordered list of column names.
type Schema []string

// Col returns the position of the named column, or panics: schema mismatches
// are programming errors in plan construction, never data errors.
func (s Schema) Col(name string) int {
	for i, c := range s {
		if c == name {
			return i
		}
	}
	panic(fmt.Sprintf("relation: column %q not in schema %v", name, []string(s)))
}

// Cols maps several names to positions.
func (s Schema) Cols(names ...string) []int {
	out := make([]int, len(names))
	for i, n := range names {
		out[i] = s.Col(n)
	}
	return out
}

// Has reports whether the schema contains the column.
func (s Schema) Has(name string) bool {
	for _, c := range s {
		if c == name {
			return true
		}
	}
	return false
}

// Relation is a named-schema row store.
type Relation struct {
	Schema Schema
	Rows   []Tuple
}

// New creates an empty relation with the given columns.
func New(cols ...string) *Relation {
	return &Relation{Schema: Schema(cols)}
}

// Insert appends a row. The number of values must match the schema.
func (r *Relation) Insert(vals ...Value) {
	if len(vals) != len(r.Schema) {
		panic(fmt.Sprintf("relation: inserting %d values into %d-column schema %v", len(vals), len(r.Schema), r.Schema))
	}
	r.Rows = append(r.Rows, Tuple(vals))
}

// InsertTuple appends a row without copying.
func (r *Relation) InsertTuple(t Tuple) {
	if len(t) != len(r.Schema) {
		panic("relation: tuple arity mismatch")
	}
	r.Rows = append(r.Rows, t)
}

// Len returns the number of rows.
func (r *Relation) Len() int { return len(r.Rows) }

// Clone returns a deep-enough copy (rows are shared; tuples are immutable by
// convention).
func (r *Relation) Clone() *Relation {
	return &Relation{Schema: r.Schema, Rows: append([]Tuple(nil), r.Rows...)}
}

// UnionInPlace appends all rows of o, whose schema must be identical.
// This is the ∪ of Algorithm 2 (join state maintenance).
func (r *Relation) UnionInPlace(o *Relation) {
	if len(r.Schema) != len(o.Schema) {
		panic("relation: union schema mismatch")
	}
	r.Rows = append(r.Rows, o.Rows...)
}

// Select returns the rows satisfying pred.
func (r *Relation) Select(pred func(Tuple) bool) *Relation {
	out := &Relation{Schema: r.Schema}
	for _, t := range r.Rows {
		if pred(t) {
			out.Rows = append(out.Rows, t)
		}
	}
	return out
}

// SelectEq returns the rows whose named column equals v.
func (r *Relation) SelectEq(col string, v Value) *Relation {
	c := r.Schema.Col(col)
	return r.Select(func(t Tuple) bool { return t[c].Equal(v) })
}

// Project returns the relation restricted to the named columns (in the given
// order), without deduplication.
func (r *Relation) Project(cols ...string) *Relation {
	idx := r.Schema.Cols(cols...)
	out := New(cols...)
	for _, t := range r.Rows {
		nt := make(Tuple, len(idx))
		for i, c := range idx {
			nt[i] = t[c]
		}
		out.Rows = append(out.Rows, nt)
	}
	return out
}

// Distinct returns the relation with duplicate rows removed (all columns).
func (r *Relation) Distinct() *Relation {
	all := make([]int, len(r.Schema))
	for i := range all {
		all[i] = i
	}
	seen := map[string]bool{}
	out := &Relation{Schema: r.Schema}
	var kb []byte
	for _, t := range r.Rows {
		kb = t.appendKeyCols(kb[:0], all)
		// The map lookup with string(kb) is allocation-free; the key string
		// is materialized only for the first occurrence of each row.
		if !seen[string(kb)] {
			seen[string(kb)] = true
			out.Rows = append(out.Rows, t)
		}
	}
	return out
}

// Rename returns a relation with the same rows and renamed columns.
func (r *Relation) Rename(cols ...string) *Relation {
	if len(cols) != len(r.Schema) {
		panic("relation: rename arity mismatch")
	}
	return &Relation{Schema: Schema(cols), Rows: r.Rows}
}

// Index is a hash index over a column set.
type Index struct {
	rel  *Relation
	cols []int
	m    map[string][]int
}

// BuildIndex builds a hash index on the named columns.
func (r *Relation) BuildIndex(cols ...string) *Index {
	idx := &Index{rel: r, cols: r.Schema.Cols(cols...), m: map[string][]int{}}
	var kb []byte
	for i, t := range r.Rows {
		kb = t.appendKeyCols(kb[:0], idx.cols)
		idx.m[string(kb)] = append(idx.m[string(kb)], i)
	}
	return idx
}

// Probe returns the rows matching the given key values.
func (ix *Index) Probe(vals ...Value) []Tuple {
	k := Tuple(vals).Key(identity(len(vals)))
	rows := ix.m[k]
	out := make([]Tuple, len(rows))
	for i, r := range rows {
		out[i] = ix.rel.Rows[r]
	}
	return out
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// HashJoin computes the equi-join of l and r on lCols = rCols. The output
// schema is l's columns followed by r's columns minus r's join columns;
// colliding names on the r side are suffixed with "_r".
func HashJoin(l, r *Relation, lCols, rCols []string) *Relation {
	return hashJoinArena(l, r, lCols, rCols, nil)
}

// hashJoinArena is HashJoin with the output tuples optionally carved from
// an arena (nil = heap). The conjunctive evaluator passes a per-call arena
// for its intermediate results, which never outlive the evaluation.
//
// The build table maps key → group index rather than key → rows: a scratch
// buffer plus map-access-by-string(buf) keeps the probe side allocation-free
// and materializes each key string once per distinct key, not once per row.
func hashJoinArena(l, r *Relation, lCols, rCols []string, ar *Arena) *Relation {
	li := l.Schema.Cols(lCols...)
	ri := r.Schema.Cols(rCols...)
	if len(li) != len(ri) {
		panic("relation: join column count mismatch")
	}

	// Output schema.
	keep := make([]int, 0, len(r.Schema))
	outSchema := append(Schema(nil), l.Schema...)
	for i, c := range r.Schema {
		skip := false
		for _, rc := range ri {
			if i == rc {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		keep = append(keep, i)
		name := c
		if outSchema.Has(name) {
			name += "_r"
		}
		outSchema = append(outSchema, name)
	}
	out := &Relation{Schema: outSchema}

	// Build on the smaller side.
	buildRows, probeRows := l.Rows, r.Rows
	buildCols, probeCols := li, ri
	buildIsLeft := true
	if len(r.Rows) < len(l.Rows) {
		buildRows, probeRows = r.Rows, l.Rows
		buildCols, probeCols = ri, li
		buildIsLeft = false
	}
	groupOf := map[string]int{}
	var groups [][]Tuple
	var kb []byte
	for _, t := range buildRows {
		kb = t.appendKeyCols(kb[:0], buildCols)
		gi, ok := groupOf[string(kb)]
		if !ok {
			gi = len(groups)
			groups = append(groups, nil)
			groupOf[string(kb)] = gi
		}
		groups[gi] = append(groups[gi], t)
	}
	for _, pt := range probeRows {
		kb = pt.appendKeyCols(kb[:0], probeCols)
		gi, ok := groupOf[string(kb)]
		if !ok {
			continue
		}
		for _, bt := range groups[gi] {
			lt, rt := bt, pt
			if !buildIsLeft {
				lt, rt = pt, bt
			}
			out.Rows = append(out.Rows, joinTuple(lt, rt, keep, ar))
		}
	}
	return out
}

func joinTuple(l, r Tuple, keep []int, ar *Arena) Tuple {
	var nt Tuple
	if ar != nil {
		nt = ar.Tuple(len(l) + len(keep))[:0]
	} else {
		nt = make(Tuple, 0, len(l)+len(keep))
	}
	nt = append(nt, l...)
	for _, k := range keep {
		nt = append(nt, r[k])
	}
	return nt
}

// SemiJoin returns the rows of l that have at least one join partner in r
// (l ⋉ r). Used by Algorithm 4 line 2 to compute the common string set STR.
func SemiJoin(l, r *Relation, lCols, rCols []string) *Relation {
	li := l.Schema.Cols(lCols...)
	ri := r.Schema.Cols(rCols...)
	present := map[string]bool{}
	var kb []byte
	for _, t := range r.Rows {
		kb = t.appendKeyCols(kb[:0], ri)
		if !present[string(kb)] {
			present[string(kb)] = true
		}
	}
	out := &Relation{Schema: l.Schema}
	for _, t := range l.Rows {
		kb = t.appendKeyCols(kb[:0], li)
		if present[string(kb)] {
			out.Rows = append(out.Rows, t)
		}
	}
	return out
}

// CrossProduct returns l × r. Used by Algorithm 2 to stamp witness relations
// with the current document's timestamp.
func CrossProduct(l, r *Relation) *Relation {
	return crossProductArena(l, r, nil)
}

func crossProductArena(l, r *Relation, ar *Arena) *Relation {
	outSchema := append(Schema(nil), l.Schema...)
	for _, c := range r.Schema {
		name := c
		if outSchema.Has(name) {
			name += "_r"
		}
		outSchema = append(outSchema, name)
	}
	out := &Relation{Schema: outSchema}
	for _, lt := range l.Rows {
		for _, rt := range r.Rows {
			var nt Tuple
			if ar != nil {
				nt = ar.Tuple(len(lt) + len(rt))[:0]
			} else {
				nt = make(Tuple, 0, len(lt)+len(rt))
			}
			nt = append(nt, lt...)
			nt = append(nt, rt...)
			out.Rows = append(out.Rows, nt)
		}
	}
	return out
}

// String renders the relation as an aligned table, rows sorted, for golden
// tests and the xsclc inspector.
func (r *Relation) String() string {
	var rows []string
	for _, t := range r.Rows {
		parts := make([]string, len(t))
		for i, v := range t {
			parts[i] = v.String()
		}
		rows = append(rows, strings.Join(parts, " | "))
	}
	sort.Strings(rows)
	return strings.Join(append([]string{strings.Join(r.Schema, " | ")}, rows...), "\n")
}
