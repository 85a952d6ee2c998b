package core

import (
	"fmt"
	"slices"

	"repro/internal/xmldoc"
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
// a depth-first index nested loop over the frame that emits complete frames
// straight into the processor's emit buffer. No intermediate relation is
// materialized, and no step scans join state: a document's rows — a previous
// one's or the current one's — are reached through its record's node indexes
// (docRec.seal builds them at the end of the document's Stage 1), the views
// through the indexes built once per document in stage2Shared. No step
// hashes: every index is an offset array or a flat table over integer keys
// (flat.go).
//
// The program joins outward from the document's value-join pairs and assigns
// the v slots from the structural rows it walks. The query relation RT is one
// more atom of that walk: the template's vector groups form a trie
// (Template.trie) whose levels are the v slots in the order this program
// assigns them, and every v slot a step assigns extends the frame's trie node
// (cqExec.nodes) or ends the branch. A walk therefore never completes a
// variable vector no subscription registered, and the edge its last v slot
// takes names the vector group whose instances it emits.

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

	rrStrVal = rlSchema[1:].SymCol("strVal")
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

// compile builds the template's program (setting needRvj when a step reads
// the pair relation) and lays out its trie's levels in the order the program
// assigns the v slots.
func (t *Template) compile() {
	t.prog = compileCQ(t)
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
	// Each value join is followed at once by the structural atoms anchoring
	// its endpoints up to the side roots, so every step after the first
	// probes with a bound key.
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
			c.anchor(pl)
			c.atom(srcRR, t.sSlot(k), t.vSlot(pr), t.vSlot(r), t.nSlot(pr), t.nSlot(r), t.sSlot(k))
			c.emitted[r] = true
			c.anchor(pr)
			continue
		}
		t.needRvj = true
		c.atom(srcRvj, docKey, slotDoc, t.nSlot(l), t.nSlot(r), t.sSlot(k))
		c.anchor(l)
		c.anchor(r)
	}
	return c.prog
}

// anchor emits the structural atoms from position pos up to its side root
// (stopping at the first already emitted), or the unary root atom of a
// single-node side. n_pos is bound when anchor is called.
func (c *cqCompiler) anchor(pos int) {
	t := c.t
	left := t.SideOf[pos] == Left
	if (left && t.SingleLeft) || (!left && t.SingleRight) {
		if c.emitted[pos] {
			return
		}
		c.emitted[pos] = true
		src := srcRrootW
		if left {
			src = srcRroot
		}
		c.atom(src, t.nSlot(pos), t.vSlot(pos), t.nSlot(pos))
		return
	}
	src := srcRbinW
	if left {
		src = srcRbin
	}
	for ch := pos; t.Parent[ch] >= 0 && !c.emitted[ch]; ch = t.Parent[ch] {
		c.emitted[ch] = true
		pa := t.Parent[ch]
		c.atom(src, t.nSlot(ch), t.vSlot(pa), t.vSlot(ch), t.nSlot(pa), t.nSlot(ch))
	}
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
// every instance registered with the same class name at each
// position collapse onto it — with the instances sharing it.
type vecGroup struct {
	vars  []int32 // interned class name per template position
	insts []int64 // instance ids
}

// addVector records an instance's variable vector in its template and
// returns its group (kept by the instance for removeVector). A new group's
// path enters the trie.
func (t *Template) addVector(vars []int32, iid int64) *vecGroup {
	if gi := t.trie.walk(t.levels, vars); gi >= 0 {
		g := t.vecList[gi]
		g.insts = append(g.insts, iid)
		return g
	}
	g := &vecGroup{vars: slices.Clone(vars), insts: []int64{iid}}
	t.trie.insert(t.levels, g.vars, int32(len(t.vecList)))
	t.vecList = append(t.vecList, g)
	return g
}

// removeVector removes an unregistered instance from its vector group; a
// group whose last instance leaves is dropped entirely — its path leaves the
// trie and the last group takes its index — so no plan visits a vector no
// live query shares.
func (t *Template) removeVector(g *vecGroup, iid int64) {
	if g.insts = removeFirst(g.insts, iid); len(g.insts) > 0 {
		return
	}
	gi := t.trie.remove(t.levels, g.vars)
	last := len(t.vecList) - 1
	if moved := t.vecList[last]; int(gi) != last {
		t.vecList[gi] = moved
		t.trie.relink(t.levels, moved.vars, gi)
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
	out   []Match

	// slab is carved into the Bindings of the emitted matches: every
	// carving is handed out once, so Bindings never alias each other or a
	// later document's.
	slab []xmldoc.NodeID

	// probes counts index entries visited, rows RoutT rows produced.
	probes, rows int64
}

// run evaluates prog against the document, appending the matches that pass
// their instance's window to ex.out.
func (ex *cqExec) run(prog *cqProgram) {
	ex.prog = prog
	ex.frame = resize(ex.frame, prog.t.numSlots())
	ex.nodes = resize(ex.nodes, len(prog.steps)+1)
	ex.nodes[0] = 0
	ex.step(0)
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
		rows = pre.rl
		if st.key >= 0 {
			idx = pre.rlByDoc.get(f[st.key])
		}
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
// one per instance sharing it — and appends those that pass the instance's
// window (Algorithm 3) as matches. The rows of one frame share one Bindings
// slice, carved from the slab.
func (ex *cqExec) emit(g *vecGroup) {
	p, t, f := ex.p, ex.prog.t, ex.frame
	prev := &p.state.recs[f[slotDoc]]
	var bindings []xmldoc.NodeID
	for _, iid := range g.insts {
		ex.rows++
		inst := p.instances[iid]
		if !p.windowOK(inst, prev, ex.d) {
			continue
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
		ex.out = slices.Grow(ex.out, 1)[:len(ex.out)+1]
		orientMatch(&ex.out[len(ex.out)-1], t, inst, prev.id, prev.ts, bindings, ex.d)
	}
}

// orientMatch writes the Match of an RoutT row into m, every field, applying
// the instance's block orientation. Writing in place spares the emit buffer
// a copy of every match; m may hold a previous document's match.
func orientMatch(m *Match, t *Template, inst *instance, prevDoc xmldoc.DocID, prevTS xmldoc.Timestamp, bindings []xmldoc.NodeID, d *xmldoc.Document) {
	m.Query, m.Template, m.Bindings = inst.qid, t, bindings
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
}

// TemplatePlanStats is one live template's Stage-2 snapshot, as returned by
// Processor.PlanStats.
type TemplatePlanStats struct {
	Template TemplateID
	Sig      string
	// VecGroups is the live distinct-variable-vector count: the vector
	// groups the template's trie holds.
	VecGroups int
	// WitnessRuns counts the template's program runs.
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
