package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/xmldoc"
	"repro/internal/xscl"
)

// Compiled Stage-2 programs.
//
// A template's conjunctive query CQ_T is fixed by the template's structure,
// so it is compiled once, when the template is created, into a cqProgram: an
// ordered list of index-probe steps over a fixed integer binding frame
//
//	slot 0          slot    the previous document's state slot
//	slots 1..N      n_p     node bound at template position p
//	slots N+1..2N   v_p     interned class name at position p
//
// No slot holds a join value: a value join's pair names both its nodes, and
// a node has one value.
//
// Every step names a source relation, the bound slot its probe key comes
// from, the row columns it assigns to still-unbound slots and the columns it
// only checks against bound ones, every column a node or a class name, so
// evaluation compares and copies bare int64s. Column offsets are the
// sources' column constants (the witness relations' and the pairs'), fixed at
// compile time; evaluation (cqExec.step) is a depth-first index nested loop
// over the frame that writes each complete frame into the processor's result
// as runs (cqExec.emit). No intermediate
// relation is materialized, and no step scans join state: a document's rows
// — a previous one's or the current one's — are reached through its record's
// node indexes (docRec.seal builds them at the end of the document's Stage
// 1), the value-join pairs through the index built once per document
// (stage2Shared). No step hashes: every index is an offset array or a flat
// table over integer keys (flat.go).
//
// The program joins outward from the document's value-join pairs and assigns
// the v slots from the rows it walks. The query relation RT is one more atom
// of that walk: the template's vector groups form a trie (Template.trie)
// whose levels are the v slots in the order this program assigns them, and
// every v slot a step assigns extends the frame's trie node (cqExec.nodes) or
// ends the branch. A walk therefore never completes a variable vector no
// subscription registered, and the edge its last v slot takes names the
// vector group whose instances it emits.
//
// Every value join is one step on the pair relation, whose rows carry both
// endpoints' nodes and the classes of the endpoints and of their parents
// (cqExec.buildPairs builds it once per document, for all templates). The
// first value join's pairs bind the head key, and Stage 2 enters a template
// below its head key's trie node through the join index, only where every
// later value join of one of its vector groups has a pair in the state slot,
// modulo 64, of a previous document one of the head key's pairs lies in
// (cqExec.runHeads); each later value join probes the pairs by the frame's
// state slot.

// cqSource names the relation a step reads.
type cqSource uint8

const (
	srcPairs cqSource = iota // value-join pairs by slot and key shape
	srcRbin                  // Rbin: the slot's record by node2
	srcRbinW                 // RbinW: the current record by node2
)

// The columns of the per-document value-join pair relation's rows: the
// previous document's state slot; for each endpoint, left then right, an
// Rbin row — the classes of its parent and its own and the parent's node and
// its own (an endpoint without a parent has noParent for the parent's class
// and node, and one heading a side of more than one node anyClass for its own
// class); and last what the pairs are indexed by: the slot times numShapes
// plus the pair's key shape (keyShape).
const pairSlot, pairL, pairR, pairSlotShape, pairWidth = 0, 1, 1 + rbinWidth, 1 + 2*rbinWidth, 2 + 2*rbinWidth

const slotDoc = 0

// colSlot pairs a source-row column with a frame slot.
type colSlot struct{ col, slot int }

// cqStep is one step of a compiled program.
type cqStep struct {
	src cqSource
	// key is the bound slot the probe key is read from (Rbin reads the
	// record of the slotDoc slot); -1 for the first value join, whose pairs
	// the join index hands out (cqExec.runEntry).
	key    int
	assign []colSlot
	check  []colSlot
	// vars are the v slots the step assigns, in assignment order: the
	// levels of the template's trie this step descends.
	vars []int
	// shape is the key shape (keyShape) of a pair step's value join, which
	// the step probes by with the slot: a node can bind an end of two kinds
	// with one class — a parentless Rbin row and one with a parent — so the
	// step takes only pairs of its own shape.
	shape int64
}

// cqProgram is a template's compiled conjunctive query.
// Programs are immutable after compilation and shared by every document.
type cqProgram struct {
	t     *Template
	steps []cqStep
}

func (t *Template) nSlot(p int) int { return 1 + p }
func (t *Template) vSlot(p int) int { return 1 + t.N + p }
func (t *Template) numSlots() int   { return 1 + 2*t.N }

// single reports whether position p is the whole of its side.
func (t *Template) single(p int) bool {
	if t.SideOf[p] == Left {
		return t.SingleLeft
	}
	return t.SingleRight
}

// The key of a value join lists, for each endpoint, the position of its
// parent and its own; a key position below 0 stands for itself as a class
// name (spell), which no interned name takes. A block root has noParent, and
// one heading a side of more than one node has anyClass for itself: Stage 1
// writes no parentless row for it (an atom below it binds its class), so a
// pair carries anyClass there whatever the node.
const (
	noParent = -1
	anyClass = -2
)

// keyPos returns the positions of value join k's key.
func (t *Template) keyPos(k int) [4]int {
	var key [4]int
	for i, p := range t.VJ[k] {
		switch {
		case t.Parent[p] >= 0:
			key[2*i], key[2*i+1] = t.Parent[p], p
		case t.single(p):
			key[2*i], key[2*i+1] = noParent, p
		default:
			key[2*i], key[2*i+1] = noParent, anyClass
		}
	}
	return key
}

// endKind returns the kind of a key's half, given its parent's and its own
// class or position: 0 the root of a single-node side (a parentless Rbin
// row), 1 a node with a parent (an Rbin row with one), 2 anyClass.
func endKind[E int | int32 | int64](pa, c E) int {
	switch {
	case pa >= 0:
		return 1
	case c == anyClass:
		return 2
	}
	return 0
}

// keyShape returns the shape of a key, or of its positions: its halves'
// kinds.
func keyShape[E int | int32 | int64](k [4]E) int { return 3*endKind(k[0], k[1]) + endKind(k[2], k[3]) }

const numShapes = 3 * 3

// pairKey returns the key a pair row binds: its endpoints' classes and
// their parents'.
func pairKey(row []int64) headKey {
	return headKey{int32(row[pairL+rbinVar1]), int32(row[pairL+rbinVar2]), int32(row[pairR+rbinVar1]), int32(row[pairR+rbinVar2])}
}

// compile builds the template's program and its value joins' keys, and lays
// out its trie's levels in the order the program assigns the v slots.
func (t *Template) compile() {
	t.prog = compileCQ(t)
	t.key = t.keyPos(0)
	t.shapes = 1 << keyShape(t.key)
	for k := 1; k < len(t.VJ); k++ {
		t.tuple = append(t.tuple, t.keyPos(k))
		t.shapes |= 1 << keyShape(t.tuple[k-1])
	}
	for _, st := range t.prog.steps {
		for _, slot := range st.vars {
			t.levels = append(t.levels, slot-t.vSlot(0))
		}
	}
	t.keyDepth = len(t.prog.steps[0].vars)
	// Every position lies on the path from a value-join endpoint to its
	// side root, so every v slot is assigned once.
	if len(t.levels) != t.N {
		panic(fmt.Sprintf("core: the program of %s assigns %d of %d variables", t.Sig, len(t.levels), t.N))
	}
}

// cqCompiler tracks which slots are bound and which structural atoms have
// been emitted while the steps of one program are laid out.
type cqCompiler struct {
	t       *Template
	prog    *cqProgram
	bound   []bool
	emitted []bool // per position: its class is bound by its pair or its atom to its parent
}

func compileCQ(t *Template) *cqProgram {
	c := &cqCompiler{
		t:       t,
		prog:    &cqProgram{t: t},
		bound:   make([]bool, t.numSlots()),
		emitted: make([]bool, t.N),
	}
	// Each value join is one step on the pairs, which binds its endpoints'
	// classes and their parents', and is followed at once by the structural
	// atoms anchoring its endpoints up to the side roots, so every step after
	// the first probes with a bound key. The first value join's step binds
	// the head key's classes, in its order, and the previous document's
	// slot, by which the later ones probe.
	for k, e := range t.VJ {
		docKey := slotDoc
		if k == 0 {
			docKey = -1
		}
		key := t.keyPos(k)
		cols := []int{slotDoc}
		for i, p := range e {
			pa, cl := key[2*i], key[2*i+1]
			cols = append(cols, orSkip(t.vSlot, pa), orSkip(t.vSlot, cl), orSkip(t.nSlot, pa), t.nSlot(p))
			// The pair binds the endpoint's class: its Rbin row, to its
			// parent or parentless.
			c.emitted[p] = c.emitted[p] || cl >= 0
		}
		c.atom(srcPairs, docKey, cols...).shape = int64(keyShape(key))
		c.anchor(t.Parent[e[0]])
		c.anchor(t.Parent[e[1]])
	}
	return c.prog
}

// skip is the frame slot of a column a step neither assigns nor checks.
const skip = -1

// orSkip returns slot(pos), or skip for a key position below 0.
func orSkip(slot func(int) int, pos int) int {
	if pos < 0 {
		return skip
	}
	return slot(pos)
}

// anchor emits the structural atoms from position pos up to its side root,
// stopping at the first already emitted; pos -1 (a root's parent) emits
// none, and so does the root of a side, whose class an atom below it binds
// (a single-node side's root is never a parent). n_pos is bound when anchor
// is called. The step's probe also finds the parentless rows of n_pos, if
// any: the check of the parent's class, or the trie at the class it would
// assign, rejects them.
func (c *cqCompiler) anchor(pos int) {
	t := c.t
	for ; pos >= 0 && !c.emitted[pos] && t.Parent[pos] >= 0; pos = t.Parent[pos] {
		src := srcRbinW
		if t.SideOf[pos] == Left {
			src = srcRbin
		}
		pa := t.Parent[pos]
		c.atom(src, t.nSlot(pos), t.vSlot(pa), t.vSlot(pos), t.nSlot(pa), t.nSlot(pos))
		c.emitted[pos] = true
	}
}

// atom appends the step reading src with probe key slot key; cols[i] is the
// frame slot column i of the source row binds, or skip. Key columns equal
// the frame by construction of the index; every other column is assigned
// when its slot is still unbound and checked otherwise. It returns the step.
func (c *cqCompiler) atom(src cqSource, key int, cols ...int) *cqStep {
	st := cqStep{src: src, key: key}
	for col, slot := range cols {
		switch {
		case slot == skip:
		case slot == key:
		case c.bound[slot]:
			st.check = append(st.check, colSlot{col, slot})
		default:
			st.assign = append(st.assign, colSlot{col, slot})
			c.bound[slot] = true
			if slot >= c.t.vSlot(0) {
				st.vars = append(st.vars, slot)
			}
		}
	}
	c.prog.steps = append(c.prog.steps, st)
	return &c.prog.steps[len(c.prog.steps)-1]
}

// vecGroup is one distinct variable vector of a template — the RT rows of
// every instance registered with the same class name at each position
// collapse onto it — with the instances sharing it, as window classes. The
// first class is inline: nearly every group has exactly one.
type vecGroup struct {
	vars  []int32 // interned class name per template position
	first windowClass
	more  *[]windowClass // the other classes, nil when there are none
}

// windowKey is what Algorithm 3 reads of an instance, and the orientation
// its matches take: the instances of a vector group with one key pass or
// fail the window together for a frame, and their matches differ only in
// the query.
type windowKey struct {
	window  int64
	op      xscl.OpKind
	kind    xscl.WindowKind
	swapped bool
}

// windowClass is a vector group's instances with one window key: their
// query ids, ascending. No query has two instances with one key in one
// group, since a JOIN's second instance is the swapped one. result is
// Stage 2's: where the class was last listed in a document's
// Matches.classes (emitClass).
type windowClass struct {
	key    windowKey
	qids   []QueryID
	result int32
}

// class returns g's class with key k, nil when there is none.
func (g *vecGroup) class(k windowKey) *windowClass {
	if g.first.key == k {
		return &g.first
	}
	if g.more != nil {
		for i := range *g.more {
			if c := &(*g.more)[i]; c.key == k {
				return c
			}
		}
	}
	return nil
}

// add inserts query qid into g's class with key k, which it starts when g
// has none.
func (g *vecGroup) add(k windowKey, qid QueryID) {
	c := g.class(k)
	if c == nil {
		if g.more == nil {
			g.more = new([]windowClass)
		}
		*g.more = append(*g.more, windowClass{key: k, qids: []QueryID{qid}})
		return
	}
	i, _ := slices.BinarySearch(c.qids, qid)
	c.qids = slices.Insert(c.qids, i, qid)
}

// remove deletes query qid from g's class with key k, and the class when it
// empties; the last of the other classes fills an emptied first one. It
// reports whether g is left without an instance.
func (g *vecGroup) remove(k windowKey, qid QueryID) bool {
	c := g.class(k)
	if i, ok := slices.BinarySearch(c.qids, qid); ok {
		c.qids = slices.Delete(c.qids, i, i+1)
	}
	if len(c.qids) > 0 {
		return false
	}
	if g.more == nil {
		return true
	}
	more := *g.more
	last := len(more) - 1
	*c = more[last]
	if last == 0 {
		g.more = nil
	} else {
		more[last] = windowClass{}
		*g.more = more[:last]
	}
	return false
}

// spell returns the key the positions pos spell in vector v; a position
// below 0 spells itself (noParent, anyClass).
func spell(v []int32, pos [4]int) headKey {
	var k headKey
	for i, p := range pos {
		if k[i] = int32(p); p >= 0 {
			k[i] = v[p]
		}
	}
	return k
}

// headKey returns the head key of the template's vector vars.
func (t *Template) headKey(v []int32) headKey { return spell(v, t.key) }

// firstKey returns the first key of the tuple of the template's vector v,
// or its head key when the tuple is empty: the second key the join index
// finds v's entry by.
func (t *Template) firstKey(v []int32) headKey {
	if len(t.tuple) == 0 {
		return t.headKey(v)
	}
	return spell(v, t.tuple[0])
}

// addVector records an instance of query qid with window key k and
// variable vector vars in its template and returns its group (kept by the
// instance for removeVector). A new group's path enters the trie and the
// join index.
func (t *Template) addVector(joins *joinIndex, vars []int32, k windowKey, qid QueryID) *vecGroup {
	if gi := t.trie.walk(t.levels, vars); gi >= 0 {
		g := t.vecList[gi]
		g.add(k, qid)
		return g
	}
	g := &vecGroup{vars: slices.Clone(vars), first: windowClass{key: k, qids: []QueryID{qid}}}
	gi := int32(len(t.vecList))
	node := t.trie.insert(t.levels, g.vars, gi, t.keyDepth)
	t.vecList = append(t.vecList, g)
	joins.add(t, g, gi, node)
	return g
}

// removeVector removes an unregistered instance from its vector group; a
// group whose last instance leaves is dropped entirely — its path leaves the
// trie and its entry the join index, and the last group takes its index —
// so no plan visits a vector no live query shares.
func (t *Template) removeVector(joins *joinIndex, g *vecGroup, k windowKey, qid QueryID) {
	if !g.remove(k, qid) {
		return
	}
	gi := t.trie.remove(t.levels, g.vars)
	joins.remove(t, g.vars, gi)
	last := len(t.vecList) - 1
	if moved := t.vecList[last]; int(gi) != last {
		t.vecList[gi] = moved
		t.trie.relink(t.levels, moved.vars, gi)
		joins.relink(t, moved.vars, int32(last), gi)
	}
	t.vecList[last] = nil
	t.vecList = t.vecList[:last]
}

// cqExec evaluates compiled programs for the processor (Processor.ex), one
// document at a time. It reads the processor's registration-time structures, the join
// state and the per-document inputs, all read-only during Process; everything
// it writes (frame, output, counters) is its own.
type cqExec struct {
	p   *Processor
	cur *docRec // the current document's record
	d   *xmldoc.Document
	pre *stage2Shared

	prog  *cqProgram
	frame []int64
	// nodes[i] is the frame's trie node when step i starts: the root at
	// step 0; once every v slot is bound, the vector group's index.
	nodes []int32
	// doc numbers the documents (Template.entered), plans their entries;
	// keys numbers the head keys runHeads looks up (Template.keyed).
	doc, plans, keys int64

	// present and next are runHeads' scratch: the document's keys, and for
	// each pair the next pair with its key (keySet), -1 after the last.
	// ends is buildPairs': one join value's endpoint classes.
	present keySet
	next    []int32
	keep    retention // follows the pairs, for present and next
	ends    []int64

	// slab is carved into the Bindings of the emitted matches: every
	// carving is handed out once, so Bindings never alias each other or a
	// later document's.
	slab []xmldoc.NodeID

	// probes counts index entries visited, rows RoutT rows produced.
	probes, rows int64
}

// buildPairs builds the document's value-join pairs into pre, once for all
// templates, and reports whether there is one. For each join value the
// document shares with the join state (STR, Algorithm 4 line 2), in the
// state's id order, it reads the endpoint classes of each current node with
// the value and of each previous document's node on its posting list, once
// per node, and pairs every left class with every right one, keeping the
// pairs whose key has a shape some live template's value join has
// (Processor.keyShapes); it reads only the row kinds those shapes take. The
// ids are the state's (State.resolve), so the order follows the state's
// history and only enumeration order depends on it: the output leaves in
// the canonical order regardless. It counts the rows it reads and the pairs
// it keeps as probes.
func (ex *cqExec) buildPairs() bool {
	p, s, cur, pre := ex.p, ex.p.state, ex.cur, ex.pre
	pre.reset()
	var live uint16
	var kinds [2]uint8
	for sh, n := range p.keyShapes {
		if n > 0 {
			live |= 1 << sh
			kinds[0] |= 1 << (sh / 3)
			kinds[1] |= 1 << (sh % 3)
		}
	}
	// The current nodes whose value the state holds, by value.
	held := pre.held[:0]
	for i := range int32(cur.numDoc()) {
		if row := cur.docRow(i); s.HasValue(int32(row[rdocStrVal])) {
			held = append(held, [2]int64{row[rdocStrVal], row[rdocNode]})
		}
	}
	slices.SortFunc(held, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	pre.held = held
	vals, ends := pre.vals, ex.ends
	for len(held) > 0 {
		id, n := held[0][0], 1
		for n < len(held) && held[n][0] == id {
			n++
		}
		ends = ends[:0]
		for _, h := range held[:n] {
			ends = ex.appendEnds(ends, cur, h[1], kinds[1])
		}
		right := len(ends)
		for _, ref := range s.postings(int32(id)) {
			r := &s.recs[ref.slot]
			ends = ex.appendEnds(ends[:right], r, r.docRow(ref.row)[rdocNode], kinds[0])
			for a := right; a < len(ends); a += rbinWidth {
				for b := 0; b < right; b += rbinWidth {
					if sh := keyShape([4]int64{ends[a], ends[a+1], ends[b], ends[b+1]}); live&(1<<sh) != 0 {
						ex.probes++
						vals = growRow(vals, pairWidth)
						vals = append(append(append(vals, int64(ref.slot)), ends[a:a+rbinWidth]...), ends[b:b+rbinWidth]...)
						vals = append(vals, int64(ref.slot)*numShapes+int64(sh))
					}
				}
			}
		}
		held = held[n:]
	}
	pre.vals, ex.ends = vals, ends
	pre.bySlot.build(vals, pairWidth, pairSlotShape)
	return len(vals) > 0
}

// growRow returns vals with room for one more row of width values. A full
// array doubles, so a buffer that follows the largest document seen regrows
// a logarithmic number of times (stage2Shared.reset keeps it as far as its
// tracker does).
func growRow(vals []int64, width int) []int64 {
	if len(vals)+width <= cap(vals) {
		return vals
	}
	return append(make([]int64, 0, max(2*cap(vals), len(vals)+width)), vals...)
}

// appendEnds appends the ends node n of record r binds a value-join endpoint
// to, of each kind (endKind) kinds has, as Rbin rows — the parent's class,
// its own, the parent's node and its own: its Rbin rows by node2,
// parentless (the root of a single-node side) or not, and anyClass. It
// counts every Rbin row it reads as a probe, kept or not.
func (ex *cqExec) appendEnds(out []int64, r *docRec, n int64, kinds uint8) []int64 {
	if kinds&3 != 0 {
		for _, i := range r.binByNode2.get(n) {
			ex.probes++
			if row := r.binRow(i); kinds&(1<<endKind(row[rbinVar1], row[rbinVar2])) != 0 {
				out = append(out, row...)
			}
		}
	}
	if kinds&4 != 0 {
		out = append(out, noParent, anyClass, noParent, n)
	}
	return out
}

// runHeads chains the document's pairs by key: the distinct keys are the
// document's present keys. Under each present key it reads each entry of
// the join index whose first key's pairs share a previous document's state
// slot, modulo 64, with the head key's (keySlot.docs), and enters its
// template where the rest of the key tuple does too, once, for every pair
// with the key (runEntry). It counts the entries it finds as probes. Nothing
// else is looked at: every value join of a frame pairs with the frame's
// previous document, so an entry whose keys' pairs share no state slot
// names groups no frame of this document completes.
func (ex *cqExec) runHeads(joins *joinIndex) {
	vals, present := ex.pre.vals, &ex.present
	n := len(vals) / pairWidth
	present.reset(ex.doc, n)
	ex.next = resize(ex.next, n)
	for i := range int32(n) {
		row := stride(vals, pairWidth, i)
		ex.next[i] = present.add(pairKey(row), row[pairSlot], i)
	}
	for _, ki := range present.keys {
		k := &present.slots[ki]
		si := joins.slot(k.key)
		if si < 0 {
			continue
		}
		ex.keys++
		es := joins.slots[si].entries
		for x := range es {
			if e := &es[x]; present.docs(e.first)&k.docs != 0 {
				ex.probes++
				ex.runEntry(e, k)
			}
		}
	}
	if ex.keep.note(n); kept(&ex.keep, ex.next) == nil {
		ex.next, ex.present = nil, keySet{}
	}
}

// runEntry runs entry e's template from its second step, at e's trie node,
// for each pair of e's head key k, its frame seeded from the pair as the
// first step would. It does nothing when the template ran under k already
// or the state slots of k's pairs and those of each key of e's tuple share
// none modulo 64 (keySlot.docs): no previous document then pairs every
// value join of e's group.
func (ex *cqExec) runEntry(e *joinEntry, k *keySlot) {
	t := e.t
	if t.keyed == ex.keys {
		return
	}
	docs := k.docs & ex.present.docs(e.first)
	for _, pos := range t.tuple[min(1, len(t.tuple)):] {
		if docs &= ex.present.docs(spell(e.g.vars, pos)); docs == 0 {
			return
		}
	}
	t.keyed = ex.keys
	ex.enter(t)
	f, first := ex.frame, &ex.prog.steps[0]
	for i := k.head; i >= 0; i = ex.next[i] {
		row := stride(ex.pre.vals, pairWidth, i)
		for _, a := range first.assign {
			f[a.slot] = row[a.col]
		}
		ex.nodes[1] = e.node
		ex.step(1)
	}
}

// enter makes t's program the frame's, from the trie's root, counting its
// first entry per document. Each complete frame appends a run to the
// processor's result for every window class that passes the window.
func (ex *cqExec) enter(t *Template) {
	ex.prog = t.prog
	ex.frame = resize(ex.frame, t.numSlots())
	ex.nodes = resize(ex.nodes, len(t.prog.steps)+1)
	ex.nodes[0] = 0
	if t.entered != ex.doc {
		t.entered = ex.doc
		t.runs++
		ex.plans++
	}
}

// step runs step i for the current frame and recurses into step i+1 for
// every source row that passes the step's checks.
func (ex *cqExec) step(i int) {
	if i == len(ex.prog.steps) {
		ex.emit(ex.prog.t.vecList[ex.nodes[i]])
		return
	}
	st := &ex.prog.steps[i]
	f, s := ex.frame, ex.p.state
	vals, width := ex.pre.vals, pairWidth
	var idx []int32
	switch st.src {
	case srcPairs:
		idx = ex.pre.bySlot.get(f[st.key]*numShapes + st.shape)
	case srcRbin:
		r := &s.recs[f[slotDoc]]
		vals, width, idx = r.binVals, rbinWidth, r.binByNode2.get(f[st.key])
	case srcRbinW:
		vals, width, idx = ex.cur.binVals, rbinWidth, ex.cur.binByNode2.get(f[st.key])
	}
	for _, ri := range idx {
		ex.try(st, stride(vals, width, ri), i)
	}
}

// try binds one source row into the frame and continues with the next step
// unless a check rejects it or a variable it binds leaves the trie. The
// compiler paired every column with a slot of its kind, so comparing the
// integers is value equality.
func (ex *cqExec) try(st *cqStep, row []int64, i int) {
	ex.probes++
	f := ex.frame
	for _, c := range st.check {
		if row[c.col] != f[c.slot] {
			return
		}
	}
	for _, a := range st.assign {
		f[a.slot] = row[a.col]
	}
	node := ex.nodes[i]
	for _, slot := range st.vars {
		if node = ex.prog.t.trie.child(node, f[slot]); node < 0 {
			return
		}
	}
	ex.nodes[i+1] = node
	ex.step(i + 1)
}

// emit turns the complete frame into the RoutT rows of its vector group g —
// one per instance sharing it — and writes one run to the processor's
// result for each window class that passes Algorithm 3: the class's query
// ids and the frame's oriented match. The runs of one frame share one
// Bindings slice, carved from the slab.
func (ex *cqExec) emit(g *vecGroup) {
	bindings := ex.emitClass(&g.first, nil)
	if g.more != nil {
		for i := range *g.more {
			bindings = ex.emitClass(&(*g.more)[i], bindings)
		}
	}
}

// emitClass writes class c's run when it passes the window, carving the
// frame's bindings unless an earlier class of the frame did, and returns
// them. The class's first run of the document lists it in the result, so
// the walk takes its frames as one source.
func (ex *cqExec) emitClass(c *windowClass, bindings []xmldoc.NodeID) []xmldoc.NodeID {
	p, t, f := ex.p, ex.prog.t, ex.frame
	prev := &p.state.recs[f[slotDoc]]
	ex.rows += int64(len(c.qids))
	if !p.windowOK(c.key, prev, ex.d) {
		return bindings
	}
	if bindings == nil {
		if len(ex.slab) < t.N {
			ex.slab = make([]xmldoc.NodeID, max(256, t.N))
		}
		bindings, ex.slab = ex.slab[:t.N:t.N], ex.slab[t.N:]
		for i := range bindings {
			bindings[i] = xmldoc.NodeID(f[t.nSlot(i)])
		}
	}
	// The entry at c.result is this document's listing of c exactly when
	// it holds c's ids: no two live classes share an ids array.
	if cs := p.result.classes; int(c.result) >= len(cs) || &cs[c.result].qids[0] != &c.qids[0] {
		c.result = int32(len(cs))
		p.result.classes = append(cs, runClass{qids: c.qids})
	}
	runs := slices.Grow(p.result.runs, 1)[:len(p.result.runs)+1]
	run := &runs[len(runs)-1]
	run.class = c.result
	orientKey(&run.key, t, c.key.swapped, prev.id, prev.ts, bindings, ex.d)
	p.result.runs = runs
	return bindings
}

// orientKey writes into m every field of the match of an RoutT row but the
// query, applying the block orientation: the matches of one frame and one
// window class differ only in their query. The run keeps the previous
// document's id and timestamp, not its slot, since the merge and window
// collection run before the result is read.
func orientKey(m *Match, t *Template, swapped bool, prevDoc xmldoc.DocID, prevTS xmldoc.Timestamp, bindings []xmldoc.NodeID, d *xmldoc.Document) {
	m.Query, m.Template, m.Bindings = 0, t, bindings
	prevRoot := bindings[t.LeftRoot]
	curRoot := bindings[t.RightRoot]
	if swapped {
		m.LeftDoc, m.RightDoc = d.ID, prevDoc
		m.LeftTS, m.RightTS = d.Timestamp, prevTS
		m.LeftRoot, m.RightRoot = curRoot, prevRoot
	} else {
		m.LeftDoc, m.RightDoc = prevDoc, d.ID
		m.LeftTS, m.RightTS = prevTS, d.Timestamp
		m.LeftRoot, m.RightRoot = prevRoot, curRoot
	}
}

// TemplatePlanStats is one live template's Stage-2 snapshot, as returned by
// Processor.PlanStats.
type TemplatePlanStats struct {
	Template TemplateID
	Sig      string
	// VecGroups is the live distinct-variable-vector count: the vector
	// groups the template's trie holds.
	VecGroups int
	// WitnessRuns counts the documents that entered the template's program.
	WitnessRuns int64
}

// PlanStats returns a snapshot of the live templates' Stage-2 statistics, in
// template-id order (templateList's registration order). Like Stats, it must
// not race a Process call (the engine facade serializes them).
func (p *Processor) PlanStats() []TemplatePlanStats {
	out := make([]TemplatePlanStats, 0, len(p.templateList))
	for _, t := range p.templateList {
		out = append(out, TemplatePlanStats{
			Template:    t.ID,
			Sig:         t.Sig,
			VecGroups:   len(t.vecList),
			WitnessRuns: t.runs,
		})
	}
	return out
}
