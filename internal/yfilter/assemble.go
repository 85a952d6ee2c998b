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
	// prefix[i] is the prefix id of pattern node i.
	prefix []int
	// distinct lists the pattern's prefix ids once each: the lists whose
	// liveness the pattern holds, and that must all be non-empty for the
	// pattern to have a witness in a document (the trigger). watch is the
	// one whose watcher list the pattern sits on while it is live.
	distinct []int
	watch    int
	// enum lists, in pre-order, the pattern nodes whose subtree binds a
	// variable. Enumeration assigns only these; the other (existential)
	// subtrees are settled by the reduction.
	enum []int
	// dedup is set when an enumerated node is unbound: two assignments can
	// then agree on every binding and the second must be dropped. A fully
	// bound pattern cannot repeat a witness.
	dedup bool
}

func newAssembly(p *xpath.Pattern, sn *streamNFA, prefix []int) assembly {
	a := assembly{sn: sn, prefix: prefix, distinct: make([]int, 0, len(prefix))}
	for _, pid := range prefix {
		if !slices.Contains(a.distinct, pid) {
			a.distinct = append(a.distinct, pid)
		}
	}
	binds := make([]bool, len(p.Nodes))
	for i := len(p.Nodes) - 1; i >= 0; i-- {
		n := p.Nodes[i]
		binds[i] = n.Var != ""
		for _, c := range n.Children {
			binds[i] = binds[i] || binds[c.Index]
		}
	}
	a.enum = make([]int, 0, len(p.Nodes))
	for i, n := range p.Nodes {
		if binds[i] {
			a.enum = append(a.enum, i)
			a.dedup = a.dedup || n.Var == ""
		}
	}
	return a
}

// asmScratch is the part of a MatchResult that assembly works in. All of it
// is reused from pattern to pattern and document to document.
type asmScratch struct {
	// pat and asm are the pattern being assembled.
	pat *xpath.Pattern
	asm *assembly

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
	for _, pid := range a.distinct {
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
	r.pat, r.asm = r.eng.patterns[id], a
	if !r.reduce() {
		return nil, 0
	}
	if len(a.enum) == 0 {
		return nil, 1 // a pure existential pattern: one empty witness
	}
	r.slab, r.seen = r.slab[:0], r.seen[:0]
	r.enumerate(0)
	return r.slab, len(r.slab) / len(r.pat.VarNodes)
}

// reduce computes sat bottom-up (children before parents: pattern nodes are
// in pre-order) and reports whether the pattern can match at all. A node's
// candidates are filtered once per pattern child, by the stamps that child's
// reduced list leaves on its possible parents; the first filter copies into
// own[i], the later ones compact own[i] in place.
func (r *MatchResult) reduce() bool {
	nodes := r.pat.Nodes
	for len(r.sat) < len(nodes) {
		r.sat, r.own, r.assign = append(r.sat, nil), append(r.own, nil), append(r.assign, 0)
	}
	for i := len(nodes) - 1; i >= 0; i-- {
		list := r.candList[r.asm.prefix[i]]
		for _, c := range nodes[i].Children {
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
func (r *MatchResult) stampParents(c *xpath.PatternNode) {
	if r.stamp++; r.stamp == 0 {
		clear(r.stamps)
		r.stamp = 1
	}
	nodes, stamps, stamp := r.doc.Nodes, r.stamps, r.stamp
	for _, m := range r.sat[c.Index] {
		r.probes++
		p := nodes[m].Parent
		if c.Axis == xpath.Child {
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
	if k == len(r.asm.enum) {
		r.emit()
		return
	}
	i := r.asm.enum[k]
	pn := r.pat.Nodes[i]
	list := r.sat[i]
	if pn.ParentIndex < 0 {
		for _, m := range list {
			r.probes++
			r.assign[i] = m
			r.enumerate(k + 1)
		}
		return
	}
	d := r.assign[pn.ParentIndex]
	lo, end := r.firstUnder(list, d)
	for _, m := range list[lo:] {
		if r.span[m].pre > end {
			break
		}
		r.probes++
		if pn.Axis == xpath.Child && r.doc.Nodes[m].Parent != d {
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
	for _, i := range r.pat.VarNodes {
		r.slab = append(r.slab, r.assign[i])
	}
	if r.asm.dedup && !r.firstSeen(start) {
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
