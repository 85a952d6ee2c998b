package yfilter

import (
	"slices"

	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// Witness assembly: the join of one pattern's per-prefix candidate lists
// along its branch structure. Candidate lists ascend in visit number and a
// subtree is one interval of visit numbers (MatchResult.span), so "the
// candidates of a child step under this parent binding" is a contiguous run
// found by one binary search. Assembly first reduces the lists bottom-up to
// the candidates that can head an embedding of their pattern subtree, then
// enumerates top-down over the reduced lists, where no choice can dead-end.
// Its work is bounded by the candidates of the pattern at hand plus the
// witnesses it emits (MatchResult.Work counts it).

// assembly is what Register derives from one pattern for Witnesses.
type assembly struct {
	sn *streamNFA
	// prefix[i] is the prefix id of pattern node i.
	prefix []int
	// distinct lists the pattern's prefix ids once each: the lists whose
	// liveness the pattern holds, and that must all be non-empty for the
	// pattern to have a witness in a document (the trigger).
	distinct []int
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
	// assign[i] is the document node enumeration currently binds to
	// pattern node i.
	assign []xmldoc.NodeID
	// slab collects the bindings of the witnesses emitted so far, one
	// after the other; seen is the open-addressed set over them that
	// deduplicating patterns use (1 + witness index, 0 = free).
	slab []xmldoc.NodeID
	seen []int32

	// triggered counts the patterns that reached assembly for this
	// document, probes the candidates reduction and enumeration examined.
	triggered, probes int64
}

// Work reports the counted assembly work done on this result so far: the
// patterns that reached assembly (every prefix had a candidate) and the
// candidates their reduction and enumeration examined. Both are pure
// functions of the document, the registered patterns and the Witnesses
// calls made.
func (r *MatchResult) Work() (triggered, probes int64) {
	if r == nil {
		return 0, 0
	}
	return r.triggered, r.probes
}

// Witnesses assembles the complete witnesses of the given pattern against
// the matched document, each distinct bound-variable assignment once.
// Patterns registered on a different stream than the one the result was
// computed for have no witnesses. A pattern one of whose prefixes matched no
// node is answered without assembly and without allocating. Nothing is
// memoized: a caller that needs a pattern's witnesses twice keeps them.
func (r *MatchResult) Witnesses(id PatternID) []xpath.Witness {
	if r == nil {
		return nil
	}
	a := &r.eng.asm[id]
	if a.sn != r.sn {
		return nil
	}
	for _, pid := range a.distinct {
		if len(r.candList[pid]) == 0 {
			return nil
		}
	}
	r.triggered++
	r.pat, r.asm = r.eng.patterns[id], a
	if !r.reduce() {
		return nil
	}
	if len(a.enum) == 0 {
		// Pure existential pattern: a single empty witness.
		return []xpath.Witness{{}}
	}
	r.slab, r.seen = r.slab[:0], r.seen[:0]
	r.enumerate(0)

	// The slab is scratch; the witnesses leave in one array of their own.
	nv := len(r.pat.VarNodes)
	bindings := make([]xmldoc.NodeID, len(r.slab))
	copy(bindings, r.slab)
	ws := make([]xpath.Witness, len(bindings)/nv)
	for i := range ws {
		ws[i].Bindings = bindings[i*nv : (i+1)*nv : (i+1)*nv]
	}
	return ws
}

// reduce computes sat bottom-up (children before parents: pattern nodes are
// in pre-order) and reports whether the pattern can match at all.
func (r *MatchResult) reduce() bool {
	nodes := r.pat.Nodes
	for len(r.sat) < len(nodes) {
		r.sat, r.own, r.assign = append(r.sat, nil), append(r.own, nil), append(r.assign, 0)
	}
	for i := len(nodes) - 1; i >= 0; i-- {
		list := r.candList[r.asm.prefix[i]]
		if pn := nodes[i]; len(pn.Children) > 0 {
			kept := r.own[i][:0]
		candidates:
			for _, d := range list {
				r.probes++
				for _, c := range pn.Children {
					if !r.anyUnder(c, d) {
						continue candidates
					}
				}
				kept = append(kept, d)
			}
			r.own[i] = kept
			list = kept
		}
		if len(list) == 0 {
			return false
		}
		r.sat[i] = list
	}
	return true
}

// firstUnder locates the run of list (a candidate or reduced list, ascending
// in visit number) inside the subtree of document node d: it starts at
// list[lo] and lasts while an entry's visit number is <= end. These are the
// entries that relate to d by the descendant axis; for the child axis the
// caller still tests each one's parent, since a deeper candidate of the same
// prefix can sit between two children.
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

// anyUnder reports whether some node of sat[c] can play pattern node c when
// c's pattern parent is bound to d.
func (r *MatchResult) anyUnder(c *xpath.PatternNode, d xmldoc.NodeID) bool {
	list := r.sat[c.Index]
	lo, end := r.firstUnder(list, d)
	for _, m := range list[lo:] {
		if r.span[m].pre > end {
			break
		}
		r.probes++
		if c.Axis == xpath.Descendant || r.doc.Nodes[m].Parent == d {
			return true
		}
	}
	return false
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
