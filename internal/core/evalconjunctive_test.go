package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/sym"
)

// The interpreted conjunctive-query evaluator. It plays the role the SQL
// engine plays in the paper — natural joins over whole relations, in an order
// it picks itself — and is the reference the compiled Stage-2 programs
// (cqplan.go) are held to (referenceMatches, cqreference_test.go). It was
// Stage 2 until the programs replaced it; being a _test.go file, nothing but
// this package's tests can call it.

// Atom is one body atom of a conjunctive query: a relation whose columns are
// bound to conjunctive-query variables. Repeating a variable within an atom
// expresses an intra-atom equality selection; sharing variables across atoms
// expresses equi-joins. A column bound to "" (or "_") is projected away.
type Atom struct {
	Name string // for error messages
	Rel  *Relation
	Vars []string // one entry per column of Rel
}

// EvalConjunctive evaluates the natural join of the atoms and projects the
// result onto the head variables. Join order is chosen greedily: start from
// the smallest relation, then repeatedly add the atom sharing the most
// variables with the intermediate result (cross products are taken only when
// no connected atom remains, which well-formed MMQJP template queries never
// require). Intermediate results are relations whose columns are named after
// the variables and keep their kind, so a variable bound to a symbol column
// in one atom and an integer column in another is caught where they join.
func EvalConjunctive(atoms []Atom, head []string) *Relation {
	if len(atoms) == 0 {
		return projectHead(newRelation(), head)
	}
	work := make([]*Relation, len(atoms))
	for i, a := range atoms {
		if len(a.Vars) != len(a.Rel.Schema) {
			panic(fmt.Sprintf("atom %s has %d vars for %d columns", a.Name, len(a.Vars), len(a.Rel.Schema)))
		}
		work[i] = atomRelation(a)
	}
	sort.SliceStable(work, func(i, j int) bool { return work[i].Len() < work[j].Len() })
	cur, remaining := work[0], work[1:]
	for len(remaining) > 0 && cur.Len() > 0 {
		// Pick the atom sharing the most variables with the intermediate
		// result (joins on more variables are more selective; a size-first
		// rule degenerates into near cross products when several small atoms
		// share only a low-selectivity variable like docid). Ties go to the
		// smaller relation, which comes first; a disconnected query takes the
		// smallest.
		best, bestShared := 0, 0
		for k, w := range remaining {
			if shared := len(sharedCols(cur.Schema, w.Schema)); shared > bestShared {
				best, bestShared = k, shared
			}
		}
		cur = naturalJoin(cur, remaining[best])
		remaining = slices.Delete(remaining, best, best+1)
	}
	// An empty intermediate result ends the joins early: the remaining ones
	// cannot add rows, and projectHead supplies the head schema.
	return projectHead(cur, head)
}

// colOf returns the position of the named column, or -1.
func colOf(s Schema, name string) int {
	return slices.IndexFunc(s, func(c Column) bool { return c.Name == name })
}

// atomRelation converts an atom to a relation over its variable names,
// applying intra-atom equality selections and dropping ignored columns.
func atomRelation(a Atom) *Relation {
	out := newRelation()
	var outCols []int
	type eq struct{ a, b int }
	var eqs []eq
	for i, v := range a.Vars {
		if v == "" || v == "_" {
			continue
		}
		col := Column{Name: v, Sym: a.Rel.Schema[i].Sym}
		if j := colOf(out.Schema, v); j >= 0 {
			sameKind(a.Name, out.Schema[j], col)
			eqs = append(eqs, eq{outCols[j], i})
			continue
		}
		out.Schema = append(out.Schema, col)
		outCols = append(outCols, i)
	}
	for _, t := range a.Rel.Rows {
		if slices.ContainsFunc(eqs, func(e eq) bool { return t[e.a] != t[e.b] }) {
			continue
		}
		row := make([]int64, len(outCols))
		for k, c := range outCols {
			row[k] = t[c]
		}
		out.Insert(row...)
	}
	return out
}

// sameKind panics when one variable meets a symbol column and an integer
// column: equal numbers would then not mean equal values.
func sameKind(where string, a, b Column) {
	if a.Sym != b.Sym {
		panic(fmt.Sprintf("%s: variable %s is bound to a symbol column and an integer column", where, a.Name))
	}
}

// sharedCols pairs the positions of the columns l and r have in common.
func sharedCols(l, r Schema) (pairs [][2]int) {
	for ri, c := range r {
		if li := colOf(l, c.Name); li >= 0 {
			pairs = append(pairs, [2]int{li, ri})
		}
	}
	return pairs
}

// naturalJoin is the hash join of l and r on all the column names they share
// — with none, every row has the empty key and the result is the cross
// product. The output schema is l's columns followed by r's unshared ones.
func naturalJoin(l, r *Relation) *Relation {
	shared := sharedCols(l.Schema, r.Schema)
	for _, p := range shared {
		sameKind("join", l.Schema[p[0]], r.Schema[p[1]])
	}
	out := newRelation(slices.Clone(l.Schema)...)
	var keep []int
	for ri, c := range r.Schema {
		if colOf(l.Schema, c.Name) < 0 {
			keep = append(keep, ri)
			out.Schema = append(out.Schema, c)
		}
	}
	key := func(row []int64, side int) string {
		var b []byte
		for _, p := range shared {
			b = binary.LittleEndian.AppendUint64(b, uint64(row[p[side]]))
		}
		return string(b)
	}
	build := map[string][][]int64{}
	for _, rt := range r.Rows {
		k := key(rt, 1)
		build[k] = append(build[k], rt)
	}
	for _, lt := range l.Rows {
		for _, rt := range build[key(lt, 0)] {
			row := slices.Clone(lt)
			for _, c := range keep {
				row = append(row, rt[c])
			}
			out.Insert(row...)
		}
	}
	return out
}

// projectHead projects r onto the head variables. A head variable r does not
// have — evaluation stopped at an empty intermediate result before the atom
// providing it was joined — gives the empty relation over the head.
func projectHead(r *Relation, head []string) *Relation {
	out := newRelation()
	idx := make([]int, len(head))
	complete := true
	for i, h := range head {
		col := Int(h)
		if idx[i] = colOf(r.Schema, h); idx[i] >= 0 {
			col = r.Schema[idx[i]]
		} else {
			complete = false
		}
		out.Schema = append(out.Schema, col)
	}
	if !complete {
		return out
	}
	for _, t := range r.Rows {
		row := make([]int64, len(idx))
		for i, c := range idx {
			row[i] = t[c]
		}
		out.Insert(row...)
	}
	return out
}

// rel builds a relation from literal rows.
func rel(schema Schema, rows ...[]int64) *Relation {
	r := newRelation(schema...)
	for _, row := range rows {
		r.Insert(row...)
	}
	return r
}

func intCols(names ...string) Schema {
	s := make(Schema, len(names))
	for i, n := range names {
		s[i] = Int(n)
	}
	return s
}

func TestEvalConjunctiveTriangle(t *testing.T) {
	// R(a,b), S(b,c), T(c,a): a triangle query.
	r := rel(intCols("x", "y"), []int64{1, 2}, []int64{2, 3})
	s := rel(intCols("x", "y"), []int64{2, 3}, []int64{3, 1})
	u := rel(intCols("x", "y"), []int64{3, 1})

	got := EvalConjunctive([]Atom{
		{Name: "R", Rel: r, Vars: []string{"a", "b"}},
		{Name: "S", Rel: s, Vars: []string{"b", "c"}},
		{Name: "T", Rel: u, Vars: []string{"c", "a"}},
	}, []string{"a", "b", "c"})
	if got.Len() != 1 {
		t.Fatalf("rows = %d: %v", got.Len(), got)
	}
	if !slices.Equal(got.Rows[0], []int64{1, 2, 3}) {
		t.Errorf("row = %v", got.Rows[0])
	}
}

func TestEvalConjunctiveRepeatedVarSelection(t *testing.T) {
	r := rel(intCols("a", "b"), []int64{1, 1}, []int64{1, 2})
	got := EvalConjunctive([]Atom{{Name: "R", Rel: r, Vars: []string{"x", "x"}}}, []string{"x"})
	if got.Len() != 1 || got.Rows[0][0] != 1 {
		t.Errorf("got %v", got)
	}
}

func TestEvalConjunctiveIgnoredColumns(t *testing.T) {
	r := rel(intCols("a", "b", "c"), []int64{1, 2, 3})
	got := EvalConjunctive([]Atom{{Name: "R", Rel: r, Vars: []string{"x", "_", ""}}}, []string{"x"})
	if got.Len() != 1 || got.Rows[0][0] != 1 {
		t.Errorf("got %v", got)
	}
}

func TestEvalConjunctiveEmptyAtomShortCircuit(t *testing.T) {
	r := rel(intCols("a"), []int64{1})
	empty := rel(intCols("a"))
	other := rel(intCols("a"), []int64{7})
	got := EvalConjunctive([]Atom{
		{Name: "R", Rel: r, Vars: []string{"x"}},
		{Name: "E", Rel: empty, Vars: []string{"x"}},
		{Name: "O", Rel: other, Vars: []string{"y"}},
	}, []string{"x", "y"})
	if got.Len() != 0 {
		t.Errorf("got %v", got)
	}
	if len(got.Schema) != 2 || got.Schema[0].Name != "x" || got.Schema[1].Name != "y" {
		t.Errorf("schema = %v", got.Schema)
	}
}

func TestEvalConjunctiveCrossProduct(t *testing.T) {
	r := rel(intCols("a"), []int64{1}, []int64{2})
	s := rel(Schema{Sym("b")}, []int64{int64(sym.Intern("x"))})
	got := EvalConjunctive([]Atom{
		{Name: "R", Rel: r, Vars: []string{"u"}},
		{Name: "S", Rel: s, Vars: []string{"v"}},
	}, []string{"u", "v"})
	if got.Len() != 2 {
		t.Errorf("got %v", got)
	}
	if want := "u | v\n1 | x\n2 | x"; got.String() != want {
		t.Errorf("got\n%v\nwant\n%s", got, want)
	}
}

// TestEvalConjunctiveKindMismatch: one variable on a symbol column and an
// integer column is refused, within an atom and across atoms — the numbers
// could be equal without the values being.
func TestEvalConjunctiveKindMismatch(t *testing.T) {
	mixed := rel(Schema{Int("n"), Sym("s")}, []int64{1, 1})
	ints := rel(intCols("n"), []int64{1})
	for name, atoms := range map[string][]Atom{
		"within": {{Name: "M", Rel: mixed, Vars: []string{"x", "x"}}},
		"across": {{Name: "M", Rel: mixed, Vars: []string{"_", "x"}}, {Name: "I", Rel: ints, Vars: []string{"x"}}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			EvalConjunctive(atoms, []string{"x"})
		}()
	}
}

// canonRows renders rows as a sorted multiset.
func canonRows(rows [][]int64) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

// TestPropertyNaturalJoinMatchesNestedLoop holds the reference's one join to
// a nested loop, as multisets, sharing no column (the cross product), one or
// two.
func TestPropertyNaturalJoinMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	random := func(cols ...string) *Relation {
		r := newRelation(intCols(cols...)...)
		for i, n := 0, rng.Intn(20); i < n; i++ {
			row := make([]int64, len(cols))
			for j := range row {
				row[j] = int64(rng.Intn(3))
			}
			r.Insert(row...)
		}
		return r
	}
	for trial := 0; trial < 300; trial++ {
		rCols := [][]string{{"c", "d"}, {"a", "d"}, {"b", "a"}}[trial%3]
		l, r := random("a", "b"), random(rCols...)
		var want [][]int64
		for _, lt := range l.Rows {
			for _, rt := range r.Rows {
				row, match := slices.Clone(lt), true
				for ri, c := range rCols {
					if li := colOf(l.Schema, c); li < 0 {
						row = append(row, rt[ri])
					} else if lt[li] != rt[ri] {
						match = false
					}
				}
				if match {
					want = append(want, row)
				}
			}
		}
		if got := naturalJoin(l, r); !reflect.DeepEqual(canonRows(got.Rows), canonRows(want)) {
			t.Fatalf("trial %d: %v ⋈ %v:\ngot  %v\nwant %v", trial, l, r, canonRows(got.Rows), canonRows(want))
		}
	}
}

// bruteForceCQ is the oracle of the evaluator as a whole: every assignment of
// the values occurring anywhere to the variables, kept when each atom has a
// row agreeing with it.
func bruteForceCQ(atoms []Atom, head []string) map[string]bool {
	var vars []string
	var values []int64
	for _, a := range atoms {
		for _, v := range a.Vars {
			if v != "" && v != "_" && !slices.Contains(vars, v) {
				vars = append(vars, v)
			}
		}
		for _, t := range a.Rel.Rows {
			for _, v := range t {
				if !slices.Contains(values, v) {
					values = append(values, v)
				}
			}
		}
	}
	results := map[string]bool{}
	assignment := map[string]int64{}
	var rec func(i int)
	rec = func(i int) {
		if i < len(vars) {
			for _, v := range values {
				assignment[vars[i]] = v
				rec(i + 1)
			}
			return
		}
		for _, a := range atoms {
			agrees := func(t []int64) bool {
				for ci, vn := range a.Vars {
					if vn != "" && vn != "_" && t[ci] != assignment[vn] {
						return false
					}
				}
				return true
			}
			if !slices.ContainsFunc(a.Rel.Rows, agrees) {
				return
			}
		}
		row := make([]int64, len(head))
		for i, h := range head {
			row[i] = assignment[h]
		}
		results[fmt.Sprint(row)] = true
	}
	rec(0)
	return results
}

func TestPropertyEvalConjunctiveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		// 2-3 atoms over 2-3 shared variables, tiny domains.
		varNames := []string{"x", "y", "z", "_"}
		atoms := make([]Atom, 2+rng.Intn(2))
		var head []string
		for i := range atoms {
			cols := 1 + rng.Intn(2)
			r := newRelation(intCols("c0", "c1")[:cols]...)
			for n := rng.Intn(6); n > 0; n-- {
				row := make([]int64, cols)
				for c := range row {
					row[c] = int64(rng.Intn(3))
				}
				r.Insert(row...)
			}
			vars := make([]string, cols)
			for c := range vars {
				vars[c] = varNames[rng.Intn(len(varNames))]
				if vars[c] != "_" && !slices.Contains(head, vars[c]) {
					head = append(head, vars[c])
				}
			}
			atoms[i] = Atom{Name: "A", Rel: r, Vars: vars}
		}
		got := map[string]bool{}
		for _, row := range EvalConjunctive(atoms, head).Rows {
			got[fmt.Sprint(row)] = true
		}
		if want := bruteForceCQ(atoms, head); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: got %v want %v", trial, got, want)
		}
	}
}
