package core

import (
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
//	slots 2N+1..    s_k     join-value id (the state's) of value join k
//
// Every step names a source relation, the bound slot its probe key comes
// from, the row columns it assigns to still-unbound slots and the columns it
// only checks against bound ones. Column offsets are resolved at compile
// time, against the source's schema (cqSchemas); evaluation (cqExec.step) is
// a depth-first index nested loop over the frame that writes each complete
// frame into the processor's result as runs (cqExec.emit). No intermediate
// relation is materialized, and no step scans join state: a document's rows
// — a previous one's or the current one's — are reached through its record's
// node indexes (docRec.seal builds them at the end of the document's Stage
// 1), the views through the indexes built once per document in
// stage2Shared. No step hashes: every index is an offset array or a flat
// table over integer keys (flat.go).
//
// The program joins outward from the document's value-join pairs and assigns
// the v slots from the structural rows it walks. The query relation RT is one
// more atom of that walk: the template's vector groups form a trie
// (Template.trie) whose levels are the v slots in the order this program
// assigns them, and every v slot a step assigns extends the frame's trie node
// (cqExec.nodes) or ends the branch. A walk therefore never completes a
// variable vector no subscription registered, and the edge its last v slot
// takes names the vector group whose instances it emits.
//
// Every program starts with the pairs of its first value join, which bind its
// head key: the class names of both endpoints and of their parents. A join
// that reads the views reads RL, then RR; one on a block root reads Rvj, then
// each endpoint's Rroot or Rbin row. Stage 2 builds every pair of the
// document once, for all templates (cqExec.runHeads), and enters a template
// below its head key's trie node through the join index, only where every
// later value join of one of its vector groups has a pair in the state slot,
// modulo 64, of a previous document one of the head key's pairs lies in.

// cqSource names the relation a step reads.
type cqSource uint8

const (
	srcRvj    cqSource = iota // value-join pairs: all, or by slot
	srcRL                     // left view: all, or by slot
	srcRR                     // right view by strVal
	srcRbin                   // Rbin: the slot's record by node2
	srcRbinW                  // RbinW: the current record by node2
	srcRroot                  // Rroot: the slot's record by node
	srcRrootW                 // RrootW: the current record by node
)

// The per-document relations' schemas: the value-join pairs and the Section-5
// left view; the right view RR is RL without the slot.
var (
	rvjSchema = Schema{Int("slot"), Int("nodeL"), Int("nodeR"), Sym("strVal")}
	rlSchema  = Schema{Int("slot"), Int("var1"), Int("var2"), Int("node1"), Int("node2"), Sym("strVal")}

	rlVar1, rlVar2, rlStrVal = rlSchema.Col("var1"), rlSchema.Col("var2"), rlSchema.SymCol("strVal")
	rrVar1, rrVar2, rrStrVal = rlSchema[1:].Col("var1"), rlSchema[1:].Col("var2"), rlSchema[1:].SymCol("strVal")
	rvjNodeL, rvjNodeR       = rvjSchema.Col("nodeL"), rvjSchema.Col("nodeR")
	rbinVar1, rbinVar2       = rbinSchema.Col("var1"), rbinSchema.Col("var2")
	rrootVar                 = rrootSchema.Col("var")
)

// cqSchemas is the schema of the rows each source yields: a witness
// relation's rows are the same records' rows, whether the current document's
// or a previous one's, so they share one schema. cqCompiler.atom holds every
// step to it — a symbol column binds an s slot and nothing else does — so
// evaluation compares and copies bare int64s without asking what they are.
var cqSchemas = [...]Schema{
	srcRvj:    rvjSchema,
	srcRL:     rlSchema,
	srcRR:     rlSchema[1:],
	srcRbin:   rbinSchema,
	srcRbinW:  rbinSchema,
	srcRroot:  rrootSchema,
	srcRrootW: rrootSchema,
}

const slotDoc = 0

// colSlot pairs a source-row column with a frame slot.
type colSlot struct{ col, slot int }

// cqStep is one step of a compiled program.
type cqStep struct {
	src cqSource
	// key is the bound slot the probe key is read from (Rbin and Rroot
	// read the record of the slotDoc slot); -1 reads every row of the
	// source.
	key    int
	assign []colSlot
	check  []colSlot
	// vars are the v slots the step assigns, in assignment order: the
	// levels of the template's trie this step descends.
	vars []int
}

// cqProgram is a template's compiled conjunctive query.
// Programs are immutable after compilation and shared by every document.
type cqProgram struct {
	t     *Template
	steps []cqStep
}

func (t *Template) nSlot(p int) int { return 1 + p }
func (t *Template) vSlot(p int) int { return 1 + t.N + p }
func (t *Template) sSlot(k int) int { return 1 + 2*t.N + k }
func (t *Template) numSlots() int   { return 1 + 2*t.N + len(t.VJ) }

// usesViews reports whether value join k is served by the Section-5 views:
// RL and RR fold the endpoint's edge to its parent into the view, so both
// endpoints need one. A value join on a side root reads the pair relation
// Rvj instead.
func (t *Template) usesViews(k int) bool {
	return t.Parent[t.VJ[k][0]] >= 0 && t.Parent[t.VJ[k][1]] >= 0
}

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
// writes no Rroot row for it (an atom below it binds its class), so a pair
// carries anyClass there whatever the node. A view join's key has four real
// classes, and one on a block root never does, so the two never meet in one
// key.
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
// class or position: 0 the root of a single-node side (an Rroot row), 1 a
// node with a parent (an Rbin row), 2 anyClass.
func endKind[E int | int32](pa, c E) int {
	switch {
	case pa >= 0:
		return 1
	case c == anyClass:
		return 2
	}
	return 0
}

// keyShape returns the shape of a key, or of its positions: its halves'
// kinds. A key of viewShape is a view join's; the pairs of every other shape
// come from Rvj.
func keyShape[E int | int32](k [4]E) int { return 3*endKind(k[0], k[1]) + endKind(k[2], k[3]) }

const (
	viewShape = 3*1 + 1
	numShapes = 3 * 3
)

// keyLevels returns the number of trie levels the head key's classes take:
// the program's seeded steps bind them first.
func (t *Template) keyLevels() int {
	n := 0
	for _, p := range t.key {
		if p >= 0 {
			n++
		}
	}
	return n
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
	emitted []bool // per position: the atom binding it to its parent (or its root atom)
}

func compileCQ(t *Template) *cqProgram {
	c := &cqCompiler{
		t:       t,
		prog:    &cqProgram{t: t},
		bound:   make([]bool, t.numSlots()),
		emitted: make([]bool, t.N),
	}
	// Each value join reads its pair and the atoms that bind its endpoints'
	// classes, and is followed at once by the structural atoms anchoring its
	// endpoints up to the side roots, so every step after the first probes
	// with a bound key. The first value join's steps up to the anchors are
	// the ones its pairs seed (Template.seed), and the classes they bind are
	// the head key, in its order.
	for k, e := range t.VJ {
		l, r := e[0], e[1]
		// The first value join reads every pair (or left-view row); it
		// binds the previous document's slot, and the later ones probe by
		// it.
		docKey := slotDoc
		if k == 0 {
			docKey = -1
		}
		if t.usesViews(k) {
			pl, pr := t.Parent[l], t.Parent[r]
			c.atom(srcRL, docKey, slotDoc, t.vSlot(pl), t.vSlot(l), t.nSlot(pl), t.nSlot(l), t.sSlot(k))
			c.emitted[l] = true
			if k > 0 {
				c.anchor(pl)
			}
			c.atom(srcRR, t.sSlot(k), t.vSlot(pr), t.vSlot(r), t.nSlot(pr), t.nSlot(r), t.sSlot(k))
			c.emitted[r] = true
		} else {
			c.atom(srcRvj, docKey, slotDoc, t.nSlot(l), t.nSlot(r), t.sSlot(k))
			c.edge(l)
			c.edge(r)
		}
		if k == 0 {
			t.seed = len(c.prog.steps)
		}
		c.anchor(t.Parent[l])
		c.anchor(t.Parent[r])
	}
	return c.prog
}

// anchor emits the structural atoms from position pos up to its side root,
// stopping at the first already emitted; pos -1 (a root's parent) emits
// none. n_pos is bound when anchor is called.
func (c *cqCompiler) anchor(pos int) {
	for ; pos >= 0 && !c.emitted[pos]; pos = c.t.Parent[pos] {
		c.edge(pos)
	}
}

// edge emits the atom binding position pos's class unless it was emitted:
// the unary root atom of a single-node side, the structural atom to pos's
// parent, and none for the root of a larger side, whose class an atom below
// it binds.
func (c *cqCompiler) edge(pos int) {
	t := c.t
	left, pa := t.SideOf[pos] == Left, t.Parent[pos]
	switch {
	case c.emitted[pos]:
		return
	case t.single(pos):
		src := srcRrootW
		if left {
			src = srcRroot
		}
		c.atom(src, t.nSlot(pos), t.vSlot(pos), t.nSlot(pos))
	case pa >= 0:
		src := srcRbinW
		if left {
			src = srcRbin
		}
		c.atom(src, t.nSlot(pos), t.vSlot(pa), t.vSlot(pos), t.nSlot(pa), t.nSlot(pos))
	default:
		return
	}
	c.emitted[pos] = true
}

// atom appends the step reading src with probe key slot key; cols[i] is the
// frame slot column i of the source row binds. Key columns equal the frame
// by construction of the index; every other column is assigned when its
// slot is still unbound and checked otherwise.
func (c *cqCompiler) atom(src cqSource, key int, cols ...int) {
	st := cqStep{src: src, key: key}
	schema := cqSchemas[src]
	for col, slot := range cols {
		// Reading a symbol into a node or variable slot, or the reverse, is
		// a bug in compileCQ: which column meets which kind of slot is
		// written there, and no subscription's text can change it.
		if schema[col].Sym != (slot >= c.t.sSlot(0)) {
			panic(fmt.Sprintf("core: column %q of %v bound to slot %d", schema[col].Name, schema, slot))
		}
		switch {
		case slot == key:
		case c.bound[slot]:
			st.check = append(st.check, colSlot{col, slot})
		default:
			st.assign = append(st.assign, colSlot{col, slot})
			c.bound[slot] = true
			if slot >= c.t.vSlot(0) && slot < c.t.sSlot(0) {
				st.vars = append(st.vars, slot)
			}
		}
	}
	c.prog.steps = append(c.prog.steps, st)
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
	t.trie.insert(t.levels, g.vars, int32(len(t.vecList)))
	t.vecList = append(t.vecList, g)
	joins.add(t, g, int32(len(t.vecList)-1), t.trie.walk(t.levels[:t.keyLevels()], g.vars))
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

	// pairs, present and ends are runHeads' scratch: the document's
	// head-join pairs, their keys, and one value-join pair's endpoint
	// classes.
	pairs   []headPair
	present keySet
	ends    []endClass

	// slab is carved into the Bindings of the emitted matches: every
	// carving is handed out once, so Bindings never alias each other or a
	// later document's.
	slab []xmldoc.NodeID

	// probes counts index entries visited, rows RoutT rows produced.
	probes, rows int64
}

// headPair is one pair of a head join, with its key: an RL row l and an RR
// row r of one value, or the value-join pair j (an Rvj row) and the rows its
// endpoints' classes come from — l an Rroot or Rbin row of the previous
// document, r one of the current document's, -1 for anyClass. in is the
// previous document's state slot, and next the next pair with its key
// (keySet), -1 after the last.
type headPair struct {
	key               headKey
	l, r, j, in, next int32
}

// endClass is one way an endpoint node of a value-join pair binds a key: the
// classes of its parent and its own, and the row they come from.
type endClass struct {
	pa, c, row int32
}

// runHeads builds every pair of the document's head joins, once for all
// templates: every RL row with every RR row of its value, and every
// value-join pair under each class pair its endpoints bind. The distinct
// keys of its pairs are the document's present keys. Under each present key
// it reads each entry whose first key's pairs share a previous document's
// state slot, modulo 64, with the head key's (keySlot.docs), and enters its
// template where the rest of the key tuple does too, once, for every pair
// with the key (runEntry). It counts the rows it reads and the entries it
// finds as probes. Nothing else is looked at: every value join of a frame
// pairs with the frame's previous document, so an entry whose keys' pairs
// share no state slot names groups no frame of this document completes.
func (ex *cqExec) runHeads(joins *joinIndex) {
	if joins.n == 0 {
		return
	}
	pre, s := ex.pre, ex.p.state
	pairs := ex.pairs[:0]
	for li, l := range pre.rl {
		ex.probes++
		for _, ri := range pre.rrBySym.get(l[rlStrVal]) {
			r := pre.rr[ri]
			ex.probes++
			pairs = append(pairs, headPair{headKey{int32(l[rlVar1]), int32(l[rlVar2]), int32(r[rrVar1]), int32(r[rrVar2])}, int32(li), ri, -1, int32(l[slotDoc]), -1})
		}
	}
	// A value-join pair binds a key of each shape some live template's key
	// has, and reads only the rows those shapes take.
	var live uint16
	var kinds [2]uint8
	for sh, n := range ex.p.keyShapes {
		if n > 0 && sh != viewShape {
			live |= 1 << sh
			kinds[0] |= 1 << (sh / 3)
			kinds[1] |= 1 << (sh % 3)
		}
	}
	ends := ex.ends
	for j, v := range pre.rvj {
		ex.probes++
		ends = ex.appendEnds(ends[:0], &s.recs[v[slotDoc]], v[rvjNodeL], kinds[0])
		nl := len(ends)
		ends = ex.appendEnds(ends, ex.cur, v[rvjNodeR], kinds[1])
		for _, a := range ends[:nl] {
			for _, b := range ends[nl:] {
				if k := (headKey{a.pa, a.c, b.pa, b.c}); live&(1<<keyShape(k)) != 0 {
					pairs = append(pairs, headPair{k, a.row, b.row, int32(j), int32(v[slotDoc]), -1})
				}
			}
		}
	}
	present := &ex.present
	present.reset(ex.doc, len(pairs))
	for i := range pairs {
		present.add(pairs, i)
	}
	ex.pairs, ex.ends = pairs, ends
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
	if cap(pairs) > recKeep {
		ex.pairs, ex.present = nil, keySet{}
	}
}

// appendEnds appends the classes node n of record r binds a value-join
// endpoint to, of each kind (endKind) kinds has, counting the rows it reads
// as probes: its Rroot rows' classes with noParent, its Rbin rows' by node2,
// and anyClass.
func (ex *cqExec) appendEnds(out []endClass, r *docRec, n int64, kinds uint8) []endClass {
	if kinds&1 != 0 {
		for _, i := range r.rootByNode.get(n) {
			ex.probes++
			out = append(out, endClass{noParent, int32(r.root[i][rrootVar]), i})
		}
	}
	if kinds&2 != 0 {
		for _, i := range r.binByNode2.get(n) {
			ex.probes++
			row := r.bin[i]
			out = append(out, endClass{int32(row[rbinVar1]), int32(row[rbinVar2]), i})
		}
	}
	if kinds&4 != 0 {
		out = append(out, endClass{noParent, anyClass, -1})
	}
	return out
}

// runEntry runs entry e's template from the step after its seeded ones, at
// e's trie node, for each pair of e's head key k, its frame seeded as those
// steps would from the pair's rows. It does nothing when the template ran
// under k already or the state slots of k's pairs and those of each key of
// e's tuple share none modulo 64 (keySlot.docs): no previous document then
// pairs every value join of e's group.
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
	f, seeded := ex.frame, ex.prog.steps[:t.seed]
	for i := k.head; i >= 0; i = ex.pairs[i].next {
		for si := range seeded {
			st := &seeded[si]
			row := ex.seedRow(st.src, &ex.pairs[i])
			for _, a := range st.assign {
				f[a.slot] = row[a.col]
			}
		}
		ex.nodes[t.seed] = e.node
		ex.step(t.seed)
	}
}

// seedRow returns the row of pair pr that a seeded step reading src binds.
// No seeded step checks a column: each assigns slots no earlier step bound.
func (ex *cqExec) seedRow(src cqSource, pr *headPair) []int64 {
	switch src {
	case srcRL:
		return ex.pre.rl[pr.l]
	case srcRR:
		return ex.pre.rr[pr.r]
	case srcRvj:
		return ex.pre.rvj[pr.j]
	case srcRroot:
		return ex.p.state.recs[ex.frame[slotDoc]].root[pr.l]
	case srcRbin:
		return ex.p.state.recs[ex.frame[slotDoc]].bin[pr.l]
	case srcRrootW:
		return ex.cur.root[pr.r]
	}
	return ex.cur.bin[pr.r]
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
	f, s, pre := ex.frame, ex.p.state, ex.pre
	var rows [][]int64
	var idx []int32
	switch st.src {
	case srcRvj:
		rows = pre.rvj
		if st.key >= 0 {
			idx = pre.rvjByDoc.get(f[st.key])
		}
	case srcRL:
		rows, idx = pre.rl, pre.rlByDoc.get(f[st.key])
	case srcRR:
		rows, idx = pre.rr, pre.rrBySym.get(f[st.key])
	case srcRbin:
		r := &s.recs[f[slotDoc]]
		rows, idx = r.bin, r.binByNode2.get(f[st.key])
	case srcRbinW:
		rows, idx = ex.cur.bin, ex.cur.binByNode2.get(f[st.key])
	case srcRroot:
		r := &s.recs[f[slotDoc]]
		rows, idx = r.root, r.rootByNode.get(f[st.key])
	case srcRrootW:
		rows, idx = ex.cur.root, ex.cur.rootByNode.get(f[st.key])
	}
	if st.key < 0 {
		for _, row := range rows {
			ex.try(st, row, i)
		}
		return
	}
	for _, ri := range idx {
		ex.try(st, rows[ri], i)
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
