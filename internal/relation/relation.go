// Package relation declares the schemas of the MMQJP Join Processor's rows:
// which column of a witness relation, a join-state record or a Stage-2 view
// holds what, and which columns hold symbols. The rows themselves are stored
// where they are used — internal/core writes each document's rows into flat
// value buffers of its join-state record and the views' rows into flat
// per-document buffers — and the compiled Stage-2 programs
// (internal/core/cqplan.go) resolve every column against these schemas once,
// when a program is compiled. Relation, a schema with its rows, is the form
// the interpreted evaluator the compiled programs are tested against takes
// its atoms in (internal/core/cqreference_test.go); it holds no operator:
// the paper hands each template's conjunctive query to a SQL engine, and the
// engine here compiles it.
//
// A row is a []int64, fixed-width and pointer-free: document ids, node ids,
// interned variable names, and interned symbols (internal/sym ids standing
// for node string values, so value-join equality is an integer compare).
// Which of these a number is belongs to the column that holds it, not to the
// number: the schema declares the symbol columns, and whoever compiles a
// program or builds an index over a symbol column asks the schema once
// (Schema.SymCol) instead of every value carrying its kind.
package relation

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sym"
)

// Column is one column of a schema: its name and whether its values are
// interned symbols (internal/sym ids) or plain integers.
type Column struct {
	Name string
	Sym  bool
}

// Int declares an integer column.
func Int(name string) Column { return Column{Name: name} }

// Sym declares a symbol column.
func Sym(name string) Column { return Column{Name: name, Sym: true} }

// Schema is an ordered list of columns.
type Schema []Column

// Col returns the position of the named column, or panics: schema mismatches
// are programming errors in plan construction, never data errors. Every name
// passed here is a literal in this repository's source, so no byte of a wire
// line or a snapshot file can reach the panic.
func (s Schema) Col(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	panic(fmt.Sprintf("relation: column %q not in schema %v", name, s))
}

// SymCol is Col for a column read as a symbol. Reading a symbol out of a
// non-symbol column is a plan bug, caught here — once, where a program is
// compiled or an index is built — and not per value. Like Col it sees only
// names and schemas written in source, never outside bytes.
func (s Schema) SymCol(name string) int {
	c := s.Col(name)
	if !s[c].Sym {
		panic(fmt.Sprintf("relation: column %q of schema %v is not a symbol column", name, s))
	}
	return c
}

// Relation is a named-schema, append-only row store.
type Relation struct {
	Schema Schema
	Rows   [][]int64
}

// New creates an empty relation with the given columns.
func New(cols ...Column) *Relation {
	return &Relation{Schema: cols}
}

// Insert appends vals as one row, without copying it. The number of values
// must match the schema; every caller passes a row whose width is fixed by
// its own source (a literal argument list, or a row cut to len(Schema)) —
// a snapshot or a document decides how many rows there are, never how wide
// one is — so the panic marks a bug, not bad input.
func (r *Relation) Insert(vals ...int64) {
	if len(vals) != len(r.Schema) {
		panic(fmt.Sprintf("relation: inserting %d values into %d-column schema %v", len(vals), len(r.Schema), r.Schema))
	}
	r.Rows = append(r.Rows, vals)
}

// Len returns the number of rows.
func (r *Relation) Len() int { return len(r.Rows) }

// String renders the relation as a table, rows sorted, for tests and
// debugging. Symbol columns render as their interned string, so the text does
// not depend on the ids a process happened to hand out.
func (r *Relation) String() string {
	names := make([]string, len(r.Schema))
	for i, c := range r.Schema {
		names[i] = c.Name
	}
	rows := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		parts := make([]string, len(row))
		for c, v := range row {
			if r.Schema[c].Sym {
				parts[c] = sym.Name(sym.ID(v))
			} else {
				parts[c] = strconv.FormatInt(v, 10)
			}
		}
		rows[i] = strings.Join(parts, " | ")
	}
	sort.Strings(rows)
	return strings.Join(append([]string{strings.Join(names, " | ")}, rows...), "\n")
}
