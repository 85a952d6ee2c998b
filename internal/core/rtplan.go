package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/relation"
	"repro/internal/xmldoc"
)

// The Join Processor evaluates each template's conjunctive query with one of
// two physical plans:
//
//   - The witness-driven plan (processor.go) joins outward from the
//     value-join pairs of the current document, leaving the query relation
//     RT for last. It is ideal on streams, where an incoming document's
//     string values match few stored values.
//
//   - The RT-driven plan below iterates the *distinct variable vectors* of
//     RT (queries sharing blocks and wiring collapse onto one vector) and,
//     for each vector, evaluates the now fully-selective body with index
//     probes. It corresponds to the plan a cost-based SQL optimizer picks
//     for the paper's CQ when the witness side fans out: RT as the outer
//     side with index nested loops.
//
// The two plans produce identical RoutT rows; the adaptive planner
// (planner.go) chooses per template per document using the fan-out estimate
// below calibrated by observed wall times, and the differential tests force
// and compare both.

// vecGroup is one distinct variable vector of a template's RT relation,
// with the instances (qid, window) that share it.
type vecGroup struct {
	vars  []int64 // interned canonical variable per template position
	insts []int64 // instance ids
	wls   []int64 // window per instance
}

// addVector records an instance's variable vector in its template and
// returns the group key (kept by the instance for removeVector).
func (t *Template) addVector(vars []int64, iid, wl int64) string {
	key := fmt.Sprint(vars)
	if t.vectors == nil {
		t.vectors = map[string]*vecGroup{}
	}
	g, ok := t.vectors[key]
	if !ok {
		g = &vecGroup{vars: append([]int64(nil), vars...)}
		t.vectors[key] = g
		t.vecList = append(t.vecList, g)
	}
	g.insts = append(g.insts, iid)
	g.wls = append(g.wls, wl)
	return key
}

// removeVector removes an unregistered instance from its vector group; a
// group whose last instance leaves is dropped entirely, so the RT-driven
// plan never iterates vectors no live query shares.
func (t *Template) removeVector(key string, iid int64) {
	g, ok := t.vectors[key]
	if !ok {
		return
	}
	if i := slices.Index(g.insts, iid); i >= 0 {
		g.insts = slices.Delete(g.insts, i, i+1)
		g.wls = slices.Delete(g.wls, i, i+1)
	}
	if len(g.insts) > 0 {
		return
	}
	delete(t.vectors, key)
	t.vecList = removeFirst(t.vecList, g)
}

// witnessFanout estimates the intermediate-result size of the witness-driven
// plan: value-join groups multiply per previous document, so the estimate is
// Σ_d (pairs_d)^k over the per-document pair counts of the value-join pair
// relation.
func witnessFanout(perDoc map[xmldoc.DocID]int, k int) float64 {
	est := 0.0
	//mmqjp:unordered float cost estimate feeding plan choice, which is output-invisible
	for _, n := range perDoc {
		est += math.Pow(float64(n), float64(k))
		if est > 1e15 {
			return est
		}
	}
	return est
}

// rtDrivenCost estimates the RT-driven plan: one selective evaluation per
// distinct variable vector.
func (t *Template) rtDrivenCost() float64 {
	return float64(len(t.vecList)) * float64(len(t.VJ)+t.N+1)
}

// docSubsets materializes, per incoming document, the variable-pair subsets
// of the stored witness relations used by the RT-driven plan. Subsets are
// shared across templates and vectors.
type docSubsets struct {
	state *State
	w     *CurrentWitness

	bin   map[[2]int64]*relation.Relation // Rbin rows for a var pair: (docid, node1, node2)
	binW  map[[2]int64]*relation.Relation // RbinW rows for a var pair: (node1, node2)
	root  map[int64]*relation.Relation    // Rroot rows for a var: (docid, node)
	rootW map[int64]*relation.Relation    // RrootW rows for a var: (node)
}

func newDocSubsets(state *State, w *CurrentWitness) *docSubsets {
	return &docSubsets{
		state: state, w: w,
		bin:   map[[2]int64]*relation.Relation{},
		binW:  map[[2]int64]*relation.Relation{},
		root:  map[int64]*relation.Relation{},
		rootW: map[int64]*relation.Relation{},
	}
}

func (s *docSubsets) binFor(v1, v2 int64) *relation.Relation {
	key := [2]int64{v1, v2}
	if r, ok := s.bin[key]; ok {
		return r
	}
	r := relation.New("docid", "node1", "node2")
	for _, ri := range s.state.rbinByVars[key] {
		t := s.state.Rbin.Rows[ri]
		r.Insert(t[0], t[3], t[4])
	}
	s.bin[key] = r
	return r
}

func (s *docSubsets) binWFor(v1, v2 int64) *relation.Relation {
	key := [2]int64{v1, v2}
	if r, ok := s.binW[key]; ok {
		return r
	}
	r := relation.New("node1", "node2")
	for _, t := range s.w.RbinW.Rows {
		if t[0].I == v1 && t[1].I == v2 {
			r.Insert(t[2], t[3])
		}
	}
	s.binW[key] = r
	return r
}

func (s *docSubsets) rootFor(v int64) *relation.Relation {
	if r, ok := s.root[v]; ok {
		return r
	}
	r := relation.New("docid", "node")
	for _, t := range s.state.Rroot.Rows {
		if t[1].I == v {
			r.Insert(t[0], t[2])
		}
	}
	s.root[v] = r
	return r
}

func (s *docSubsets) rootWFor(v int64) *relation.Relation {
	if r, ok := s.rootW[v]; ok {
		return r
	}
	r := relation.New("node")
	for _, t := range s.w.RrootW.Rows {
		if t[0].I == v {
			r.Insert(t[1])
		}
	}
	s.rootW[v] = r
	return r
}

// evalTemplateRTDriven evaluates one template against the current document
// by iterating its distinct variable vectors. rvj is the value-join pair
// relation (docid, nodeL, nodeR, strVal) of the current document. groups
// reports how many vector groups were actually probed (their required
// subsets were all non-empty) — the index-probe volume statistic of the
// adaptive planner.
func (p *Processor) evalTemplateRTDriven(t *Template, w *CurrentWitness, rvj *relation.Relation, subs *docSubsets, d *xmldoc.Document) (out []Match, groups int) {
	head := make([]string, 0, t.N+1)
	head = append(head, "docid")
	for i := 0; i < t.N; i++ {
		head = append(head, nvar(i))
	}

groups:
	for _, vg := range t.vecList {
		atoms := make([]relation.Atom, 0, 2*len(t.VJ)+t.N)
		emitted := map[[2]int]bool{}
		rootDone := map[Side]bool{}
		for k, e := range t.VJ {
			atoms = append(atoms, relation.Atom{
				Name: "Rvj", Rel: rvj,
				Vars: []string{"docid", nvar(e[0]), nvar(e[1]), svar(k)},
			})
			var ok bool
			atoms, ok = p.appendVectorAnchors(atoms, t, vg, subs, e[0], Left, emitted, rootDone)
			if !ok {
				continue groups
			}
			atoms, ok = p.appendVectorAnchors(atoms, t, vg, subs, e[1], Right, emitted, rootDone)
			if !ok {
				continue groups
			}
		}
		groups++
		rows := relation.EvalConjunctiveOrdered(atoms, head)
		if rows.Len() == 0 {
			continue
		}
		for _, row := range rows.Rows {
			prevDoc := xmldoc.DocID(row[0].I)
			prevTS, ok := p.state.RdocTS[prevDoc]
			if !ok {
				continue
			}
			bindings := make([]xmldoc.NodeID, t.N)
			for i := 0; i < t.N; i++ {
				bindings[i] = xmldoc.NodeID(row[1+i].I)
			}
			for _, iid := range vg.insts {
				inst := p.instances[iid]
				if !p.windowOK(inst, prevDoc, prevTS, d) {
					continue
				}
				out = append(out, p.orientMatch(t, inst, prevDoc, prevTS, bindings, d))
			}
		}
	}
	return out, groups
}

// appendVectorAnchors is the RT-driven counterpart of appendAnchors: the
// structural-edge atoms are variable-pair subsets, so the variable columns
// disappear from the conjunctive query. ok is false when a required subset
// is empty (the vector cannot match this document at all).
func (p *Processor) appendVectorAnchors(atoms []relation.Atom, t *Template, vg *vecGroup, subs *docSubsets, pos int, side Side, emitted map[[2]int]bool, rootDone map[Side]bool) ([]relation.Atom, bool) {
	single := t.SingleLeft
	if side == Right {
		single = t.SingleRight
	}
	if single {
		if rootDone[side] {
			return atoms, true
		}
		rootDone[side] = true
		if side == Left {
			rel := subs.rootFor(vg.vars[t.LeftRoot])
			if rel.Len() == 0 {
				return atoms, false
			}
			return append(atoms, relation.Atom{Name: "Rroot", Rel: rel,
				Vars: []string{"docid", nvar(t.LeftRoot)}}), true
		}
		rel := subs.rootWFor(vg.vars[t.RightRoot])
		if rel.Len() == 0 {
			return atoms, false
		}
		return append(atoms, relation.Atom{Name: "RrootW", Rel: rel,
			Vars: []string{nvar(t.RightRoot)}}), true
	}
	for c := pos; t.Parent[c] >= 0; c = t.Parent[c] {
		edge := [2]int{t.Parent[c], c}
		if emitted[edge] {
			break
		}
		emitted[edge] = true
		if side == Left {
			rel := subs.binFor(vg.vars[edge[0]], vg.vars[edge[1]])
			if rel.Len() == 0 {
				return atoms, false
			}
			atoms = append(atoms, relation.Atom{Name: "Rbin", Rel: rel,
				Vars: []string{"docid", nvar(edge[0]), nvar(edge[1])}})
		} else {
			rel := subs.binWFor(vg.vars[edge[0]], vg.vars[edge[1]])
			if rel.Len() == 0 {
				return atoms, false
			}
			atoms = append(atoms, relation.Atom{Name: "RbinW", Rel: rel,
				Vars: []string{nvar(edge[0]), nvar(edge[1])}})
		}
	}
	return atoms, true
}

// orientMatch builds a Match from an RoutT row, applying the instance's
// block orientation.
func (p *Processor) orientMatch(t *Template, inst *instance, prevDoc xmldoc.DocID, prevTS xmldoc.Timestamp, bindings []xmldoc.NodeID, d *xmldoc.Document) Match {
	m := Match{Query: inst.qid, Template: t, Bindings: bindings}
	prevRoot := bindings[t.LeftRoot]
	curRoot := bindings[t.RightRoot]
	if inst.swapped {
		m.LeftDoc, m.RightDoc = d.ID, prevDoc
		m.LeftTS, m.RightTS = d.Timestamp, prevTS
		m.LeftRoot, m.RightRoot = curRoot, prevRoot
	} else {
		m.LeftDoc, m.RightDoc = prevDoc, d.ID
		m.LeftTS, m.RightTS = prevTS, d.Timestamp
		m.LeftRoot, m.RightRoot = prevRoot, curRoot
	}
	return m
}
