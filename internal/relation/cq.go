package relation

import (
	"fmt"
	"sort"
)

// Atom is one body atom of a conjunctive query: a relation whose columns are
// bound to conjunctive-query variables. Repeating a variable within an atom
// expresses an intra-atom equality selection; sharing variables across atoms
// expresses equi-joins. A column bound to "" (or "_") is projected away.
type Atom struct {
	Name string // for plan rendering and error messages
	Rel  *Relation
	Vars []string // one entry per column of Rel

	// Idx optionally carries a prebuilt hash index on Rel. When the join
	// order reaches this atom and all IdxVars are already bound by the
	// intermediate result, the evaluator probes the index per row instead
	// of scanning Rel. IdxVars names the CQ variables bound to the indexed
	// columns, in index column order.
	Idx     *Index
	IdxVars []string
}

// EvalConjunctive evaluates the natural join of the atoms and projects the
// result onto the head variables. Join order is chosen greedily: start from
// the smallest relation, then repeatedly add the connected atom with the
// smallest relation (cross products are taken only when no connected atom
// remains, which well-formed MMQJP template queries never require).
//
// This evaluator plays the role the SQL engine plays in the paper, and it is
// a test-only reference: the Join Processor evaluates each template's
// conjunctive query CQ_T (Section 4.4) with a program compiled once per
// template (internal/core/cqplan.go), and its tests hold those programs to
// what this interpreter computes from the same relations. `make lint` fails
// if a non-test file outside this package calls it.
func EvalConjunctive(atoms []Atom, head []string) *Relation {
	if len(atoms) == 0 {
		return New(head...)
	}
	for _, a := range atoms {
		if len(a.Vars) != len(a.Rel.Schema) {
			panic(fmt.Sprintf("relation: atom %s has %d vars for %d columns", a.Name, len(a.Vars), len(a.Rel.Schema)))
		}
	}

	// Intermediate results never outlive the evaluation (projectHead copies
	// the surviving rows onto the heap), so their tuples are carved from a
	// per-call arena — one allocation per slab instead of one per row.
	var ar Arena

	// Apply intra-atom selections (repeated variables) and drop ignored
	// columns, producing intermediate relations whose schemas are the CQ
	// variable names. Indexed atoms are handled by probing and skip this
	// conversion.
	work := make([]*Relation, len(atoms))
	for i, a := range atoms {
		if a.Idx == nil {
			work[i] = atomRelation(a, &ar)
		}
	}

	remaining := make([]int, 0, len(atoms))
	var indexed []int
	for i, a := range atoms {
		if a.Idx != nil {
			indexed = append(indexed, i)
		} else {
			remaining = append(remaining, i)
		}
	}
	if len(remaining) == 0 {
		panic("relation: conjunctive query with only indexed atoms")
	}
	// Start from the smallest relation.
	sort.Slice(remaining, func(i, j int) bool {
		return work[remaining[i]].Len() < work[remaining[j]].Len()
	})
	cur := work[remaining[0]]
	remaining = remaining[1:]

	for len(remaining) > 0 || len(indexed) > 0 {
		// Prefer an indexed atom whose key variables are fully bound.
		probed := false
		for k, idx := range indexed {
			if varsBound(cur.Schema, atoms[idx].IdxVars) {
				cur = probeJoin(cur, atoms[idx], &ar)
				indexed = append(indexed[:k], indexed[k+1:]...)
				probed = true
				break
			}
		}
		if probed {
			if cur.Len() == 0 {
				break
			}
			continue
		}
		if len(remaining) == 0 {
			// Indexed atoms whose keys never became bound: fall
			// back to scanning them.
			idx := indexed[0]
			indexed = indexed[1:]
			cur = naturalJoin(cur, atomRelation(atoms[idx], &ar), &ar)
			if cur.Len() == 0 {
				break
			}
			continue
		}
		// Pick the scan atom sharing the most variables with the
		// intermediate result (joins on more variables are more
		// selective; a size-first rule degenerates into near cross
		// products when several small atoms share only a low-
		// selectivity variable like docid). Ties go to the smaller
		// relation.
		best, bestShared := -1, 0
		for k, idx := range remaining {
			shared := sharedVarCount(cur.Schema, work[idx].Schema)
			if shared == 0 {
				continue
			}
			if best == -1 || shared > bestShared ||
				(shared == bestShared && work[idx].Len() < work[remaining[best]].Len()) {
				best, bestShared = k, shared
			}
		}
		if best == -1 {
			best = 0 // disconnected query: cross product
		}
		idx := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		cur = naturalJoin(cur, work[idx], &ar)
		if cur.Len() == 0 {
			// Short-circuit: the remaining joins cannot add rows,
			// but the head schema must still be correct.
			break
		}
	}
	return projectHead(cur, head)
}

func varsBound(s Schema, vars []string) bool {
	for _, v := range vars {
		if !s.Has(v) {
			return false
		}
	}
	return true
}

// probeJoin joins cur with an indexed atom by probing the atom's index once
// per row of cur. Shared variables not covered by the index are verified
// per candidate row; unshared atom variables are appended to the output.
// Probes go through the index's map directly with a reused scratch key, so
// the per-row probe allocates nothing; output tuples come from ar.
func probeJoin(cur *Relation, a Atom, ar *Arena) *Relation {
	keyCols := make([]int, len(a.IdxVars))
	for i, v := range a.IdxVars {
		keyCols[i] = cur.Schema.Col(v)
	}
	// Classify atom columns: appended (new variable), checked (shared but
	// not an index key), or ignored.
	type check struct{ atomCol, curCol int }
	var checks []check
	var appendCols []int
	outSchema := append(Schema(nil), cur.Schema...)
	firstSeen := map[string]int{}
	type intraEq struct{ a, b int }
	var intra []intraEq
	for i, v := range a.Vars {
		if v == "" || v == "_" {
			continue
		}
		if j, ok := firstSeen[v]; ok {
			intra = append(intra, intraEq{j, i})
			continue
		}
		firstSeen[v] = i
		if cur.Schema.Has(v) {
			isKey := false
			for _, kv := range a.IdxVars {
				if kv == v {
					isKey = true
					break
				}
			}
			if !isKey {
				checks = append(checks, check{i, cur.Schema.Col(v)})
			}
			continue
		}
		appendCols = append(appendCols, i)
		outSchema = append(outSchema, v)
	}
	out := &Relation{Schema: outSchema}
	var kb []byte
	for _, ct := range cur.Rows {
		kb = kb[:0]
		for _, c := range keyCols {
			kb = ct[c].appendKey(kb)
		}
		for _, ri := range a.Idx.m[string(kb)] {
			at := a.Idx.rel.Rows[ri]
			ok := true
			for _, e := range intra {
				if !at[e.a].Equal(at[e.b]) {
					ok = false
					break
				}
			}
			for _, ch := range checks {
				if !at[ch.atomCol].Equal(ct[ch.curCol]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			nt := ar.Tuple(len(outSchema))[:0]
			nt = append(nt, ct...)
			for _, c := range appendCols {
				nt = append(nt, at[c])
			}
			out.Rows = append(out.Rows, nt)
		}
	}
	return out
}

// atomRelation converts an atom to a relation over its variable names,
// applying intra-atom equality selections and dropping ignored columns.
// Copied rows are carved from ar; the common case — every column bound to a
// distinct variable — shares the atom's row slice outright (tuples are
// immutable by package convention, and the evaluator only reads them).
func atomRelation(a Atom, ar *Arena) *Relation {
	// Positions of the first occurrence of each kept variable.
	var outVars []string
	var outCols []int
	first := map[string]int{}
	type eq struct{ a, b int }
	var eqs []eq
	for i, v := range a.Vars {
		if v == "" || v == "_" {
			continue
		}
		if j, ok := first[v]; ok {
			eqs = append(eqs, eq{j, i})
			continue
		}
		first[v] = i
		outVars = append(outVars, v)
		outCols = append(outCols, i)
	}
	if len(eqs) == 0 && len(outCols) == len(a.Vars) {
		// Identity projection, no selections: alias the rows.
		return &Relation{Schema: Schema(outVars), Rows: a.Rel.Rows}
	}
	out := New(outVars...)
	for _, t := range a.Rel.Rows {
		ok := true
		for _, e := range eqs {
			if !t[e.a].Equal(t[e.b]) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		nt := ar.Tuple(len(outCols))
		for k, c := range outCols {
			nt[k] = t[c]
		}
		out.Rows = append(out.Rows, nt)
	}
	return out
}

func connected(a, b Schema) bool {
	return sharedVarCount(a, b) > 0
}

func sharedVarCount(a, b Schema) int {
	n := 0
	for _, c := range b {
		if a.Has(c) {
			n++
		}
	}
	return n
}

// naturalJoin joins on all shared column names, carving output tuples from
// ar when non-nil.
func naturalJoin(l, r *Relation, ar *Arena) *Relation {
	var shared []string
	for _, c := range r.Schema {
		if l.Schema.Has(c) {
			shared = append(shared, c)
		}
	}
	if len(shared) == 0 {
		return crossProductArena(l, r, ar)
	}
	return hashJoinArena(l, r, shared, shared, ar)
}

func projectHead(r *Relation, head []string) *Relation {
	out := New(head...)
	idx := make([]int, len(head))
	for i, h := range head {
		if !r.Schema.Has(h) {
			// Short-circuited evaluation may not have joined the
			// atom providing h; the result is empty either way.
			return out
		}
		idx[i] = r.Schema.Col(h)
	}
	for _, t := range r.Rows {
		nt := make(Tuple, len(idx))
		for i, c := range idx {
			nt[i] = t[c]
		}
		out.Rows = append(out.Rows, nt)
	}
	return out
}
