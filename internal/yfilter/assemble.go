package yfilter

import (
	"cmp"
	"math"
	"math/bits"
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
// the array), and the dedup flag: set when an enumerated node is not fixed
// by the bindings (it is unbound and reaches no fixed child by the child
// axis), so that two assignments can agree on every binding and the second
// must be dropped. A fully bound pattern cannot repeat a witness, nor can
// one whose unbound enumerated nodes each sit, by child steps, above a bound
// node.
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
	// binds[i]: i's subtree binds a variable, so enumeration assigns i.
	// fixed[i]: a witness's bindings determine i's node — i is bound, or a
	// child it reaches by the child axis is fixed, that child's one parent.
	flags := make([]bool, 2*n)
	binds, fixed := flags[:n], flags[n:]
	for i := n - 1; i >= 0; i-- {
		binds[i], fixed[i] = p.Nodes[i].Var != "", p.Nodes[i].Var != ""
		for _, c := range p.Nodes[i].Children {
			binds[i] = binds[i] || binds[c.Index]
			fixed[i] = fixed[i] || fixed[c.Index] && c.Axis == xpath.Child
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
	for i := range p.Nodes {
		if binds[i] {
			prog = append(prog, int32(i))
			if !fixed[i] {
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
	// pattern edge being reduced has a child binding, or as a node the
	// current step of a counting climb has passed; every edge and step
	// takes a fresh stamp, so the array is never cleared (but on
	// wrap-around).
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

	// The counting climb (RootCounts): fr is the frontier, the candidates
	// of the pattern node reached with their counts, and next the one being
	// built for its parent; near[n], for a document node the current step
	// has stamped, is the slot in next of n's nearest ancestor-or-self on
	// the parent's list (-1: none); ord orders next's slots for the
	// step's sums. below[memoAt[i]+k] memoises the count under the k-th
	// candidate of pattern node i off the climb's path (unknown: not yet
	// counted; memoAt[i] is -1 for a node without a region). roots and
	// counts are what RootCounts returns.
	fr, next  []tally
	near, ord []int32
	below     []int64
	memoAt    []int32
	roots     []xmldoc.NodeID
	counts    []int64

	// trigAt[id] == epoch marks pattern id as one Triggered returned for
	// this document (every prefix checked); MatchDocument moves the epoch.
	trigAt []uint32
	epoch  uint32

	// triggered counts the patterns that reached assembly for this
	// document, probes the candidates, stamped ancestors and enumeration
	// steps assembly examined and the climb steps, passed ancestors and
	// tried candidates of counting, and triggerWork the hit prefixes and
	// watchers Triggered visited.
	triggered, probes, triggerWork int64

	// trig is what Triggered returns.
	trig []PatternID
}

// Work reports the counted assembly work done on this result so far: the
// patterns that reached assembly (every prefix had a candidate) and what
// their reduction and enumeration, or their counting, examined. Both are
// pure functions of the document, the registered patterns and the Bindings
// and RootCounts calls made.
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
// order; the caller may reorder it, and it is valid until Release. The
// patterns it returns are marked, so Bindings and RootCounts do not check
// their prefixes again.
func (r *MatchResult) Triggered() []PatternID {
	if r == nil {
		return nil
	}
	if n := len(r.eng.asm); len(r.trigAt) < n {
		r.trigAt = append(r.trigAt, make([]uint32, n-len(r.trigAt))...)
	}
	r.trig = r.trig[:0]
	for _, pid := range r.hit {
		r.triggerWork++
		for _, id := range r.sn.watchers[pid] {
			r.triggerWork++
			if r.complete(&r.eng.asm[id]) {
				r.trig = append(r.trig, id)
				r.trigAt[id] = r.epoch
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

// start begins assembling pattern id, unless it is registered on another
// stream or one of its prefixes matched no node (a pattern Triggered
// returned is known complete).
func (r *MatchResult) start(id PatternID) bool {
	a := &r.eng.asm[id]
	if a.sn != r.sn {
		return false
	}
	if (int(id) >= len(r.trigAt) || r.trigAt[id] != r.epoch) && !r.complete(a) {
		return false
	}
	r.triggered++
	r.prog = a.prog
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
	if r == nil || !r.start(id) {
		return nil, 0
	}
	return r.assemble()
}

// assemble reduces and enumerates the pattern start began.
func (r *MatchResult) assemble() (slab []xmldoc.NodeID, n int) {
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
				if r.stamps[d] == r.stamp {
					kept = append(kept, d)
				}
			}
			r.probes += int64(len(list))
			r.own[i], list = kept, kept
		}
		if len(list) == 0 {
			return false
		}
		r.sat[i] = list
	}
	return true
}

// freshStamp takes a stamp no document node carries.
func (r *MatchResult) freshStamp() uint32 {
	if r.stamp++; r.stamp == 0 {
		clear(r.stamps)
		r.stamp = 1
	}
	return r.stamp
}

// stampParents stamps, with a fresh stamp, every document node that can play
// pattern node c's parent for some entry of c's reduced list: the entry's
// parent on the child axis, all its proper ancestors on the descendant axis.
// An ancestor walk stops at the first node already stamped, whose own
// ancestors are stamped already, so a node is stamped at most once per edge.
func (r *MatchResult) stampParents(c int32) {
	nodes, stamps, stamp := r.doc.Nodes, r.stamps, r.freshStamp()
	child := r.prog.node(c)[nodeChildAxis] != 0
	probes := int64(len(r.sat[c]))
	for _, m := range r.sat[c] {
		p := nodes[m].Parent
		if child {
			stamps[p] = stamp
			continue
		}
		for ; p >= 0 && stamps[p] != stamp; p = nodes[p].Parent {
			probes++
			stamps[p] = stamp
		}
	}
	r.probes += probes
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
		r.probes += int64(len(list))
		for _, m := range list {
			r.assign[i] = m
			r.enumerate(k + 1)
		}
		return
	}
	d := r.assign[parent]
	child := node[nodeChildAxis] != 0
	lo, end := r.firstUnder(list, d)
	tried := 0
	for _, m := range list[lo:] {
		if r.span[m].pre > end {
			break
		}
		tried++
		if child && r.doc.Nodes[m].Parent != d {
			continue
		}
		r.assign[i] = m
		r.enumerate(k + 1)
	}
	r.probes += int64(tried)
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

// Counting. A caller that reads of each witness only its root and how many
// there are — internal/core's single-block queries — asks RootCounts, which
// builds no witness. A fully bound pattern's witnesses are its embeddings,
// so the witnesses at a root candidate number a sum of products: for each
// pattern child, the sum over its candidates below the root's node of the
// count under them. RootCounts evaluates it from the pattern's leaf with
// the fewest candidates in the document (on a topic filter, the one topic
// element): it climbs from that leaf to the root carrying sums, and counts
// each branch off that path top-down under the nodes the climb reaches only.
// The candidate lists are path-verified by the walk — a candidate of prefix
// P/x has its parent on P's list, one of P//x an ancestor on it — so a child
// step is one parent hop and a descendant step a walk to the ancestors on
// the parent's list. Its work follows the leaf's candidates, the ancestors
// they climb through and the branches under the nodes reached, not the
// length of the broad lists (entries, spans) a reduction filters in full.

// tally is one frontier entry of a counting climb: a candidate of the
// pattern node reached, its count — the embeddings of the pattern nodes the
// climb has covered, with this candidate at the top — and, during a
// descendant step, the slot of its nearest proper ancestor on the same list.
type tally struct {
	node xmldoc.NodeID
	up   int32
	n    int64
}

// unknown marks a below entry not yet counted. A count of -1 is one past
// int64 (addCount, mulCount).
const unknown = -2

// RootCounts counts the witnesses of the given pattern per root: roots
// lists, in document order, the root bindings of its witnesses and counts[k]
// the number of witnesses binding roots[k] — what Bindings returns, for a
// caller that reads of each witness only its first binding. The pattern must
// be fully bound, every node binding a variable (the normalized form
// internal/core registers for single-block queries), for only then are its
// witnesses its embeddings; RootCounts panics on any other. It builds no
// witness unless a count passes int64: then, and only then, it groups
// Bindings' witnesses by root. The slices are the result's scratch, valid
// until the next RootCounts call or Release.
func (r *MatchResult) RootCounts(id PatternID) (roots []xmldoc.NodeID, counts []int64) {
	if r == nil || !r.start(id) {
		return nil, nil
	}
	nv := len(r.prog.vars())
	if nv != r.prog.numNodes() {
		panic("yfilter: RootCounts of a pattern that is not fully bound")
	}
	r.roots, r.counts = r.roots[:0], r.counts[:0]
	if r.climb() {
		return r.roots, r.counts
	}
	slab, n := r.assemble()
	for k := 0; k < n; k++ {
		root := slab[k*nv]
		if last := len(r.roots) - 1; last >= 0 && r.roots[last] == root {
			r.counts[last]++
		} else {
			r.roots, r.counts = append(r.roots, root), append(r.counts, 1)
		}
	}
	return r.roots, r.counts
}

// climb counts the witnesses of the fully bound pattern being assembled per
// root candidate into roots and counts, and reports false when a count
// overflows int64.
func (r *MatchResult) climb() bool {
	prog := r.prog
	n := int32(prog.numNodes())
	// The anchor is the leaf with the fewest candidates and, among those,
	// the one whose path to the root holds the most, which leaves the
	// fewest to the branches counted top-down.
	anchor, fewest, along := int32(-1), 0, 0
	for i := range n {
		node := prog.node(i)
		l := len(r.candList[node[nodePrefix]])
		if node[nodeKidsLo] != node[nodeKidsHi] || anchor >= 0 && l > fewest {
			continue
		}
		path := 0
		for j := i; j >= 0; j = prog.node(j)[nodeParent] {
			path += len(r.candList[prog.node(j)[nodePrefix]])
		}
		if anchor < 0 || l < fewest || path >= along {
			anchor, fewest, along = i, l, path
		}
	}
	r.memoRegions(anchor)

	r.fr = r.fr[:0]
	for _, c := range r.candList[prog.node(anchor)[nodePrefix]] {
		r.fr = append(r.fr, tally{node: c, up: -1, n: 1})
	}
	var probes int64
	for i := anchor; len(r.fr) > 0; {
		node := prog.node(i)
		j := node[nodeParent]
		if j < 0 {
			break
		}
		parent := prog.node(j)
		probes += int64(len(r.fr))
		if node[nodeChildAxis] != 0 {
			r.childStep()
		} else {
			probes += r.descendantStep(r.candList[parent[nodePrefix]])
		}
		// Each entry's count times the count of every branch off the path.
		kids, kept := prog.kids(parent), r.next[:0]
		for _, t := range r.next {
			for _, u := range kids {
				if u != i && t.n > 0 {
					t.n = mulCount(t.n, r.under(u, t.node))
				}
			}
			if t.n < 0 {
				r.probes += probes
				return false
			}
			if t.n > 0 {
				kept = append(kept, t)
			}
		}
		r.fr, r.next, i = kept, r.fr, j
	}
	r.probes += probes
	if len(r.fr) > 1 {
		slices.SortFunc(r.fr, func(a, b tally) int { return cmp.Compare(r.span[a.node].pre, r.span[b.node].pre) })
	}
	for _, t := range r.fr {
		r.roots, r.counts = append(r.roots, t.node), append(r.counts, t.n)
	}
	return true
}

// memoRegions lays out below: a region, one entry per candidate, for every
// interior node off the anchor's path that hangs off its parent by the
// descendant axis, whose candidates alone can lie under several of the
// parent's.
func (r *MatchResult) memoRegions(anchor int32) {
	prog := r.prog
	n := int32(prog.numNodes())
	r.memoAt = slices.Grow(r.memoAt[:0], int(n))[:n]
	clear(r.memoAt)
	for i := anchor; i >= 0; i = prog.node(i)[nodeParent] {
		r.memoAt[i] = -1
	}
	size := int32(0)
	for i := range n {
		if node := prog.node(i); r.memoAt[i] == 0 && node[nodeKidsLo] != node[nodeKidsHi] && node[nodeChildAxis] == 0 {
			r.memoAt[i] = size
			size += int32(len(r.candList[node[nodePrefix]]))
		} else {
			r.memoAt[i] = -1
		}
	}
	r.below = slices.Grow(r.below[:0], int(size))[:size]
	for k := range r.below {
		r.below[k] = unknown
	}
}

// childStep moves the frontier up a child step into next: each candidate's
// count goes to its parent, which the parent pattern node's list holds.
func (r *MatchResult) childStep() {
	nodes, stamps, s := r.doc.Nodes, r.stamps, r.freshStamp()
	r.next = r.next[:0]
	for _, t := range r.fr {
		p := nodes[t.node].Parent
		if stamps[p] != s {
			stamps[p], r.near[p] = s, int32(len(r.next))
			r.next = append(r.next, tally{node: p, up: -1})
		}
		e := &r.next[r.near[p]]
		e.n = addCount(e.n, t.n)
	}
}

// descendantStep moves the frontier up a descendant step into next, onto
// list, the parent pattern node's candidates, each of which must collect the
// counts of every frontier candidate below it. A candidate's count goes to
// its nearest proper ancestor on list only, and each entry so reached passes
// its sum on to its own nearest ancestor on list, entries taken in reverse
// document order (after all their descendants), so every document node is
// passed at most once per step however deep same-name elements nest. It
// returns the number of nodes passed.
func (r *MatchResult) descendantStep(list []xmldoc.NodeID) int64 {
	nodes := r.doc.Nodes
	r.freshStamp()
	r.next = r.next[:0]
	var passed int64
	for _, t := range r.fr {
		slot, m := r.nearest(nodes[t.node].Parent, list)
		if passed += m; slot >= 0 {
			e := &r.next[slot]
			e.n = addCount(e.n, t.n)
		}
	}
	r.ord = r.ord[:0]
	for k := 0; k < len(r.next); k++ {
		up, m := r.nearest(nodes[r.next[k].node].Parent, list)
		r.next[k].up, passed = up, passed+m
		r.ord = append(r.ord, int32(k))
	}
	slices.SortFunc(r.ord, func(a, b int32) int {
		return cmp.Compare(r.span[r.next[b].node].pre, r.span[r.next[a].node].pre)
	})
	for _, k := range r.ord {
		if up := r.next[k].up; up >= 0 {
			r.next[up].n = addCount(r.next[up].n, r.next[k].n)
		}
	}
	return passed
}

// nearest returns the slot in next of document node n's nearest
// ancestor-or-self on list (n = -1 has none), adding it with count 0 when
// new, or -1 when there is none, and the number of nodes it passed. It stops
// at a node the current step has passed before, and stamps the nodes it
// passes with the answer.
func (r *MatchResult) nearest(n xmldoc.NodeID, list []xmldoc.NodeID) (slot int32, passed int64) {
	nodes, stamps, s := r.doc.Nodes, r.stamps, r.stamp
	slot = -1
	m := n
	for ; m >= 0; m = nodes[m].Parent {
		if stamps[m] == s {
			slot = r.near[m]
			break
		}
		passed++
		if lo, _ := r.firstUnder(list, m); lo > 0 && list[lo-1] == m {
			slot = int32(len(r.next))
			r.next = append(r.next, tally{node: m, up: -1})
			stamps[m], r.near[m] = s, slot
			break
		}
	}
	for ; n != m; n = nodes[n].Parent {
		stamps[n], r.near[n] = s, slot
	}
	return slot, passed
}

// under counts the embeddings of pattern node u's subtree with u on a
// candidate below document node p by u's axis: the candidates in p's
// interval (a parent test more on the child axis), each weighted by the
// count under it (belowCount; 1 for a leaf).
func (r *MatchResult) under(u int32, p xmldoc.NodeID) int64 {
	node, at := r.prog.node(u), int(r.memoAt[u])
	list, kids := r.candList[node[nodePrefix]], r.prog.kids(node)
	child := node[nodeChildAxis] != 0
	lo, end := r.firstUnder(list, p)
	sum, k := int64(0), lo
	for ; k < len(list) && r.span[list[k]].pre <= end; k++ {
		if child && r.doc.Nodes[list[k]].Parent != p {
			continue
		}
		w := int64(1)
		if len(kids) > 0 {
			w = r.belowCount(kids, at, k, list[k])
		}
		sum = addCount(sum, w)
	}
	r.probes += int64(k - lo)
	return sum
}

// belowCount returns the count under candidate c, the k-th of an interior
// pattern node with children kids: the product of the children's counts
// under c, memoised in the node's region at (-1: none).
func (r *MatchResult) belowCount(kids []int32, at, k int, c xmldoc.NodeID) int64 {
	if at >= 0 && r.below[at+k] != unknown {
		return r.below[at+k]
	}
	w := int64(1)
	for _, x := range kids {
		if w = mulCount(w, r.under(x, c)); w <= 0 {
			break
		}
	}
	if at >= 0 {
		r.below[at+k] = w
	}
	return w
}

// addCount and mulCount add and multiply witness counts; -1 stands for a
// count past int64, as an operand and as the result.
func addCount(a, b int64) int64 {
	if s := a + b; a >= 0 && b >= 0 && s >= 0 {
		return s
	}
	return -1
}

func mulCount(a, b int64) int64 {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if a < 0 || b < 0 || hi != 0 || lo > math.MaxInt64 {
		return -1
	}
	return int64(lo)
}
