package relation

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestEvalConjunctiveTriangle(t *testing.T) {
	// R(a,b), S(b,c), T(c,a): a triangle query.
	r := New("x", "y")
	r.Insert(Int(1), Int(2))
	r.Insert(Int(2), Int(3))
	s := New("x", "y")
	s.Insert(Int(2), Int(3))
	s.Insert(Int(3), Int(1))
	u := New("x", "y")
	u.Insert(Int(3), Int(1))

	got := EvalConjunctive([]Atom{
		{Name: "R", Rel: r, Vars: []string{"a", "b"}},
		{Name: "S", Rel: s, Vars: []string{"b", "c"}},
		{Name: "T", Rel: u, Vars: []string{"c", "a"}},
	}, []string{"a", "b", "c"})
	if got.Len() != 1 {
		t.Fatalf("rows = %d: %v", got.Len(), got)
	}
	if got.Rows[0][0].I != 1 || got.Rows[0][1].I != 2 || got.Rows[0][2].I != 3 {
		t.Errorf("row = %v", got.Rows[0])
	}
}

func TestEvalConjunctiveRepeatedVarSelection(t *testing.T) {
	r := New("a", "b")
	r.Insert(Int(1), Int(1))
	r.Insert(Int(1), Int(2))
	got := EvalConjunctive([]Atom{{Name: "R", Rel: r, Vars: []string{"x", "x"}}}, []string{"x"})
	if got.Len() != 1 || got.Rows[0][0].I != 1 {
		t.Errorf("got %v", got)
	}
}

func TestEvalConjunctiveIgnoredColumns(t *testing.T) {
	r := New("a", "b", "c")
	r.Insert(Int(1), Int(2), Int(3))
	got := EvalConjunctive([]Atom{{Name: "R", Rel: r, Vars: []string{"x", "_", ""}}}, []string{"x"})
	if got.Len() != 1 || got.Rows[0][0].I != 1 {
		t.Errorf("got %v", got)
	}
}

func TestEvalConjunctiveEmptyAtomShortCircuit(t *testing.T) {
	r := New("a")
	r.Insert(Int(1))
	empty := New("a")
	got := EvalConjunctive([]Atom{
		{Name: "R", Rel: r, Vars: []string{"x"}},
		{Name: "E", Rel: empty, Vars: []string{"x"}},
	}, []string{"x"})
	if got.Len() != 0 {
		t.Errorf("got %v", got)
	}
	if len(got.Schema) != 1 || got.Schema[0] != "x" {
		t.Errorf("schema = %v", got.Schema)
	}
}

func TestEvalConjunctiveCrossProduct(t *testing.T) {
	r := New("a")
	r.Insert(Int(1))
	r.Insert(Int(2))
	s := New("b")
	s.Insert(Str("x"))
	got := EvalConjunctive([]Atom{
		{Name: "R", Rel: r, Vars: []string{"u"}},
		{Name: "S", Rel: s, Vars: []string{"v"}},
	}, []string{"u", "v"})
	if got.Len() != 2 {
		t.Errorf("got %v", got)
	}
}

// Oracle: enumerate all assignments by brute force.
func bruteForceCQ(atoms []Atom, head []string) map[string]bool {
	// Collect variables.
	varSet := map[string]bool{}
	for _, a := range atoms {
		for _, v := range a.Vars {
			if v != "" && v != "_" {
				varSet[v] = true
			}
		}
	}
	var vars []string
	for v := range varSet {
		vars = append(vars, v)
	}
	// Candidate values per variable: any value appearing anywhere.
	var values []Value
	seen := map[string]bool{}
	for _, a := range atoms {
		for _, t := range a.Rel.Rows {
			for _, v := range t {
				k := v.String() + kindTag(v.Str)
				if !seen[k] {
					seen[k] = true
					values = append(values, v)
				}
			}
		}
	}
	results := map[string]bool{}
	assignment := map[string]Value{}
	var rec func(i int)
	rec = func(i int) {
		if i == len(vars) {
			for _, a := range atoms {
				found := false
				for _, t := range a.Rel.Rows {
					ok := true
					for ci, vn := range a.Vars {
						if vn == "" || vn == "_" {
							continue
						}
						if !t[ci].Equal(assignment[vn]) {
							ok = false
							break
						}
					}
					if ok {
						found = true
						break
					}
				}
				if !found {
					return
				}
			}
			key := ""
			for _, h := range head {
				key += assignment[h].String() + kindTag(assignment[h].Str) + "|"
			}
			results[key] = true
			return
		}
		for _, v := range values {
			assignment[vars[i]] = v
			rec(i + 1)
		}
	}
	rec(0)
	return results
}

func kindTag(b bool) string {
	if b {
		return "s"
	}
	return "i"
}

func TestPropertyEvalConjunctiveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		// 2-3 atoms over 2-3 shared variables, tiny domains.
		varNames := []string{"x", "y", "z"}
		nAtoms := 2 + rng.Intn(2)
		atoms := make([]Atom, nAtoms)
		for i := range atoms {
			cols := 1 + rng.Intn(2)
			rel := New(colNames(cols)...)
			for r := 0; r < rng.Intn(6); r++ {
				row := make(Tuple, cols)
				for c := range row {
					row[c] = Int(int64(rng.Intn(3)))
				}
				rel.InsertTuple(row)
			}
			vars := make([]string, cols)
			for c := range vars {
				vars[c] = varNames[rng.Intn(len(varNames))]
			}
			atoms[i] = Atom{Name: "A", Rel: rel, Vars: vars}
		}
		head := usedVars(atoms)
		got := EvalConjunctive(atoms, head)

		want := bruteForceCQ(atoms, head)
		gotSet := map[string]bool{}
		for _, row := range got.Distinct().Rows {
			key := ""
			for _, v := range row {
				key += v.String() + kindTag(v.Str) + "|"
			}
			gotSet[key] = true
		}
		if !reflect.DeepEqual(gotSet, want) {
			t.Fatalf("trial %d: got %v want %v", trial, gotSet, want)
		}
	}
}

func colNames(n int) []string {
	names := []string{"c0", "c1", "c2"}
	return names[:n]
}

func usedVars(atoms []Atom) []string {
	seen := map[string]bool{}
	var out []string
	for _, a := range atoms {
		for _, v := range a.Vars {
			if v != "" && v != "_" && !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

func TestEvalConjunctiveIndexedAtom(t *testing.T) {
	// RT-style atom: big relation probed via a prebuilt index.
	rt := New("qid", "v0", "v1", "wl")
	rt.Insert(Int(1), Int(10), Int(20), Int(100))
	rt.Insert(Int(2), Int(10), Int(21), Int(200))
	rt.Insert(Int(3), Int(11), Int(20), Int(300))
	idx := rt.BuildIndex("v0", "v1")

	w := New("a", "b")
	w.Insert(Int(10), Int(20))
	w.Insert(Int(10), Int(21))
	w.Insert(Int(12), Int(20))

	got := EvalConjunctive([]Atom{
		{Name: "W", Rel: w, Vars: []string{"x", "y"}},
		{Name: "RT", Rel: rt, Vars: []string{"q", "x", "y", "wl"}, Idx: idx, IdxVars: []string{"x", "y"}},
	}, []string{"q", "x", "y", "wl"})
	if got.Len() != 2 {
		t.Fatalf("rows = %d: %v", got.Len(), got)
	}
	qids := map[int64]bool{}
	for _, r := range got.Rows {
		qids[r[0].I] = true
	}
	if !qids[1] || !qids[2] {
		t.Errorf("qids = %v", qids)
	}
}

func TestEvalConjunctiveIndexedAtomRepeatedVar(t *testing.T) {
	// Indexed atom with an intra-atom repeated variable.
	rt := New("qid", "v0", "v1")
	rt.Insert(Int(1), Int(10), Int(10))
	rt.Insert(Int(2), Int(10), Int(11))
	idx := rt.BuildIndex("v0")
	w := New("a")
	w.Insert(Int(10))
	got := EvalConjunctive([]Atom{
		{Name: "W", Rel: w, Vars: []string{"x"}},
		{Name: "RT", Rel: rt, Vars: []string{"q", "x", "x"}, Idx: idx, IdxVars: []string{"x"}},
	}, []string{"q"})
	if got.Len() != 1 || got.Rows[0][0].I != 1 {
		t.Fatalf("got %v", got)
	}
}

func TestEvalConjunctiveIndexedFallbackToScan(t *testing.T) {
	// If the index keys never become bound, the atom is scanned.
	rt := New("qid", "v0")
	rt.Insert(Int(1), Int(10))
	idx := rt.BuildIndex("v0")
	w := New("a")
	w.Insert(Int(5))
	got := EvalConjunctive([]Atom{
		{Name: "W", Rel: w, Vars: []string{"a"}},
		{Name: "RT", Rel: rt, Vars: []string{"q", "z"}, Idx: idx, IdxVars: []string{"z"}},
	}, []string{"a", "q", "z"})
	if got.Len() != 1 {
		t.Fatalf("got %v", got)
	}
}
