package yfilter

import (
	"slices"

	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// Witness assembly: the join of one pattern's per-prefix candidate lists
// along its branch structure, for the patterns the document triggered.
// Assembly first reduces the lists bottom-up to the candidates that can head
// an embedding of their pattern subtree — a semi-join per pattern edge: the
// child's reduced list stamps the document nodes it can hang under, and the
// parent's candidates are filtered by stamp — then enumerates top-down over
// the reduced lists, where no choice can dead-end. Candidate lists ascend in
// visit number and a subtree is one interval of visit numbers
// (MatchResult.span), so during enumeration "the candidates of a child step
// under this parent binding" is a contiguous run found by one binary search.
// Its work is bounded by the candidates of the pattern at hand, the
// ancestors the stamps climb through and the witnesses it emits
// (MatchResult.Work counts it).

// assembly is what Register derives from one pattern for Bindings.
type assembly struct {
	sn *streamNFA
	// watch is the prefix whose watcher list the pattern sits on while it
	// is live.
	watch int
	prog  program
}

// program is one pattern compiled for assembly, once, at Register: a single
// int32 array that Triggered and Bindings read instead of the pattern's node
// graph, so assembling a pattern follows no pointer of the pattern. Its
// layout, after a header of progHeader words:
//
//	nodes     nodeWords words per pattern node i, in pre-order: i's prefix
//	          id, its parent's index (-1 for the root), 1 if it hangs off
//	          its parent by the child axis (0: descendant), and the offsets
//	          [lo, hi) of its children in kids
//	kids      the children of every node, node after node, in pre-order
//	vars      the bound nodes, in pre-order: a witness's bindings, in order
//	enum      the nodes whose subtree binds a variable, in pre-order.
//	          Enumeration assigns only these; the other (existential)
//	          subtrees are settled by the reduction.
//	distinct  the pattern's prefix ids, once each: the lists whose liveness
//	          the pattern holds, and that must all be non-empty for it to
//	          have a witness in a document (the trigger)
//
// The header holds the number of nodes, the offsets of vars, enum and
// distinct (each section ends where the next begins, distinct at the end of
// the array), and the dedup flag: set when an enumerated node is unbound, so
// that two assignments can agree on every binding and the second must be
// dropped. A fully bound pattern cannot repeat a witness.
type program []int32

// The header words and the fields of a node record.
const (
	progNodes = iota
	progVars
	progEnum
	progDistinct
	progDedup
	progHeader
)

const (
	nodePrefix = iota
	nodeParent
	nodeChildAxis
	nodeKidsLo
	nodeKidsHi
	nodeWords
)

func (p program) numNodes() int          { return int(p[progNodes]) }
func (p program) vars() []int32          { return p[p[progVars]:p[progEnum]] }
func (p program) enum() []int32          { return p[p[progEnum]:p[progDistinct]] }
func (p program) distinct() []int32      { return p[p[progDistinct]:] }
func (p program) dedup() bool            { return p[progDedup] != 0 }
func (p program) kids(n []int32) []int32 { return p[n[nodeKidsLo]:n[nodeKidsHi]] }

// node returns pattern node i's record.
func (p program) node(i int32) []int32 {
	o := progHeader + int(i)*nodeWords
	return p[o : o+nodeWords : o+nodeWords]
}

// newAssembly compiles pattern p, registered on sn, whose node i has prefix
// id prefix[i].
func newAssembly(p *xpath.Pattern, sn *streamNFA, prefix []int) assembly {
	n := len(p.Nodes)
	binds := make([]bool, n)
	for i := n - 1; i >= 0; i-- {
		binds[i] = p.Nodes[i].Var != ""
		for _, c := range p.Nodes[i].Children {
			binds[i] = binds[i] || binds[c.Index]
		}
	}
	prog := make(program, progHeader+n*nodeWords, progHeader+n*nodeWords+4*n)
	prog[progNodes] = int32(n)
	for i, pn := range p.Nodes {
		lo := int32(len(prog))
		for _, c := range pn.Children {
			prog = append(prog, int32(c.Index))
		}
		rec := prog.node(int32(i))
		rec[nodePrefix], rec[nodeParent] = int32(prefix[i]), int32(pn.ParentIndex)
		rec[nodeKidsLo], rec[nodeKidsHi] = lo, int32(len(prog))
		if pn.Axis == xpath.Child {
			rec[nodeChildAxis] = 1
		}
	}
	prog[progVars] = int32(len(prog))
	for _, i := range p.VarNodes {
		prog = append(prog, int32(i))
	}
	prog[progEnum] = int32(len(prog))
	for i, pn := range p.Nodes {
		if binds[i] {
			prog = append(prog, int32(i))
			if pn.Var == "" {
				prog[progDedup] = 1
			}
		}
	}
	prog[progDistinct] = int32(len(prog))
	for _, pid := range prefix {
		if !slices.Contains(prog.distinct(), int32(pid)) {
			prog = append(prog, int32(pid))
		}
	}
	return assembly{sn: sn, prog: prog}
}

// asmScratch is the part of a MatchResult that assembly works in. All of it
// is reused from pattern to pattern and document to document.
type asmScratch struct {
	// prog is the program of the pattern being assembled.
	prog program

	// sat[i] lists, in document order, the candidates of pattern node i
	// under which the pattern subtree rooted at i embeds. A leaf's list is
	// its candidate list itself; an interior node's is filtered into own[i].
	sat [][]xmldoc.NodeID
	own [][]xmldoc.NodeID
	// stamps[n] == stamp marks document node n as a parent under which the
	// pattern edge being reduced has a child binding; every edge takes a
	// fresh stamp, so the array is never cleared (but on wrap-around).
	stamps []uint32
	stamp  uint32
	// assign[i] is the document node enumeration currently binds to
	// pattern node i.
	assign []xmldoc.NodeID
	// slab collects the bindings of the witnesses emitted so far, one
	// after the other; seen is the open-addressed set over them that
	// deduplicating patterns use (1 + witness index, 0 = free).
	slab []xmldoc.NodeID
	seen []int32

	// triggered counts the patterns that reached assembly for this
	// document, probes the candidates, stamped ancestors and enumeration
	// steps assembly examined, and triggerWork the hit prefixes and
	// watchers Triggered visited.
	triggered, probes, triggerWork int64

	// trig is what Triggered returns.
	trig []PatternID
}

// Work reports the counted assembly work done on this result so far: the
// patterns that reached assembly (every prefix had a candidate) and what
// their reduction and enumeration examined. Both are pure functions of the
// document, the registered patterns and the Bindings calls made.
func (r *MatchResult) Work() (triggered, probes int64) {
	if r == nil {
		return 0, 0
	}
	return r.triggered, r.probes
}

// Triggered returns the live patterns of the result's stream every prefix of
// which has a candidate in the document — the patterns that can have
// witnesses — each once. It visits only the watchers of the prefixes the
// document hit: a pattern none of whose candidate lists the document
// touched costs nothing. The slice is the result's scratch, in no particular
// order; the caller may reorder it, and it is valid until Release.
func (r *MatchResult) Triggered() []PatternID {
	if r == nil {
		return nil
	}
	r.trig = r.trig[:0]
	for _, pid := range r.hit {
		r.triggerWork++
		for _, id := range r.sn.watchers[pid] {
			r.triggerWork++
			if r.complete(&r.eng.asm[id]) {
				r.trig = append(r.trig, id)
			}
		}
	}
	return r.trig
}

// complete reports whether every prefix of the pattern has a candidate.
func (r *MatchResult) complete(a *assembly) bool {
	for _, pid := range a.prog.distinct() {
		if len(r.candList[pid]) == 0 {
			return false
		}
	}
	return true
}

// Bindings assembles the complete witnesses of the given pattern against the
// matched document, each distinct bound-variable assignment once, and
// returns their bindings one witness after the other — witness k binds
// pattern variable v to slab[k*nv+v], nv = len(Pattern(id).VarNodes) — with
// n the number of witnesses (a pattern binding no variable has one empty
// witness when it matches). The witnesses come in enumeration order: pattern
// nodes in pre-order, candidates in document order. The slab is the result's
// scratch, valid until the next Bindings call or Release; a caller copies
// what it keeps. A pattern registered on another stream, or one of whose
// prefixes matched no node, is answered without assembly and without
// allocating; so is every call once the slab has grown to the document.
func (r *MatchResult) Bindings(id PatternID) (slab []xmldoc.NodeID, n int) {
	if r == nil {
		return nil, 0
	}
	a := &r.eng.asm[id]
	if a.sn != r.sn || !r.complete(a) {
		return nil, 0
	}
	r.triggered++
	r.prog = a.prog
	if !r.reduce() {
		return nil, 0
	}
	if len(r.prog.enum()) == 0 {
		return nil, 1 // a pure existential pattern: one empty witness
	}
	r.slab, r.seen = r.slab[:0], r.seen[:0]
	r.enumerate(0)
	return r.slab, len(r.slab) / len(r.prog.vars())
}

// reduce computes sat bottom-up (children before parents: pattern nodes are
// in pre-order) and reports whether the pattern can match at all. A node's
// candidates are filtered once per pattern child, by the stamps that child's
// reduced list leaves on its possible parents; the first filter copies into
// own[i], the later ones compact own[i] in place.
func (r *MatchResult) reduce() bool {
	prog := r.prog
	n := prog.numNodes()
	for len(r.sat) < n {
		r.sat, r.own, r.assign = append(r.sat, nil), append(r.own, nil), append(r.assign, 0)
	}
	for i := int32(n - 1); i >= 0; i-- {
		node := prog.node(i)
		list := r.candList[node[nodePrefix]]
		for _, c := range prog.kids(node) {
			r.stampParents(c)
			kept := r.own[i][:0]
			for _, d := range list {
				r.probes++
				if r.stamps[d] == r.stamp {
					kept = append(kept, d)
				}
			}
			r.own[i], list = kept, kept
		}
		if len(list) == 0 {
			return false
		}
		r.sat[i] = list
	}
	return true
}

// stampParents stamps, with a fresh stamp, every document node that can play
// pattern node c's parent for some entry of c's reduced list: the entry's
// parent on the child axis, all its proper ancestors on the descendant axis.
// An ancestor walk stops at the first node already stamped, whose own
// ancestors are stamped already, so a node is stamped at most once per edge.
func (r *MatchResult) stampParents(c int32) {
	if r.stamp++; r.stamp == 0 {
		clear(r.stamps)
		r.stamp = 1
	}
	nodes, stamps, stamp := r.doc.Nodes, r.stamps, r.stamp
	child := r.prog.node(c)[nodeChildAxis] != 0
	for _, m := range r.sat[c] {
		r.probes++
		p := nodes[m].Parent
		if child {
			stamps[p] = stamp
			continue
		}
		for ; p >= 0 && stamps[p] != stamp; p = nodes[p].Parent {
			r.probes++
			stamps[p] = stamp
		}
	}
}

// firstUnder locates the run of list (a reduced list, ascending in visit
// number) inside the subtree of document node d: it starts at list[lo] and
// lasts while an entry's visit number is <= end. These are the entries that
// relate to d by the descendant axis; for the child axis the caller still
// tests each one's parent, since a deeper candidate of the same prefix can
// sit between two children.
func (r *MatchResult) firstUnder(list []xmldoc.NodeID, d xmldoc.NodeID) (lo int, end int32) {
	iv := r.span[d]
	lo, hi := 0, len(list)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); r.span[list[m]].pre > iv.pre {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo, iv.end
}

// enumerate assigns the k-th enumerated pattern node every reduced candidate
// that relates to its parent's assignment, in document order, and emits a
// witness at full depth. The reduction guarantees that every choice extends
// to a witness.
func (r *MatchResult) enumerate(k int) {
	enum := r.prog.enum()
	if k == len(enum) {
		r.emit()
		return
	}
	i := enum[k]
	node := r.prog.node(i)
	list := r.sat[i]
	parent := node[nodeParent]
	if parent < 0 {
		for _, m := range list {
			r.probes++
			r.assign[i] = m
			r.enumerate(k + 1)
		}
		return
	}
	d := r.assign[parent]
	child := node[nodeChildAxis] != 0
	lo, end := r.firstUnder(list, d)
	for _, m := range list[lo:] {
		if r.span[m].pre > end {
			break
		}
		r.probes++
		if child && r.doc.Nodes[m].Parent != d {
			continue
		}
		r.assign[i] = m
		r.enumerate(k + 1)
	}
}

// emit appends the current assignment's bindings to the slab, unless the
// pattern deduplicates and an earlier witness carries the same bindings.
func (r *MatchResult) emit() {
	start := len(r.slab)
	for _, i := range r.prog.vars() {
		r.slab = append(r.slab, r.assign[i])
	}
	if r.prog.dedup() && !r.firstSeen(start) {
		r.slab = r.slab[:start]
	}
}

// firstSeen records the witness whose bindings start at slab[start] (the
// last one) in the seen set and reports whether it was absent.
func (r *MatchResult) firstSeen(start int) bool {
	nv := len(r.slab) - start
	w := start / nv
	if 2*(w+1) > len(r.seen) {
		// Grow and rehash the witnesses before this one.
		size := max(16, 2*len(r.seen))
		r.seen = slices.Grow(r.seen[:0], size)[:size]
		clear(r.seen)
		for v := 0; v < w; v++ {
			r.seenSlot(r.slab[v*nv:(v+1)*nv], int32(v+1))
		}
	}
	return r.seenSlot(r.slab[start:], int32(w+1))
}

// seenSlot probes the seen set for bindings b; when absent it claims the
// free slot for witness number w and reports true.
func (r *MatchResult) seenSlot(b []xmldoc.NodeID, w int32) bool {
	nv, mask := len(b), len(r.seen)-1
	h := uint32(2166136261)
	for _, x := range b {
		h = (h ^ uint32(x)) * 16777619
	}
	for s := int(h) & mask; ; s = (s + 1) & mask {
		e := int(r.seen[s])
		if e == 0 {
			r.seen[s] = w
			return true
		}
		if slices.Equal(r.slab[(e-1)*nv:e*nv], b) {
			return false
		}
	}
}
