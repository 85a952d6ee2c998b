package core

import (
	"math"
	"slices"
	"sync"

	"repro/internal/relation"
	"repro/internal/sym"
	"repro/internal/xmldoc"
)

// symtab interns canonical variable names as dense int64 ids so that the
// witness relations can store them as integer attributes.
type symtab struct {
	ids   map[string]int64
	names []string
}

func newSymtab() *symtab { return &symtab{ids: map[string]int64{}} }

func (s *symtab) intern(name string) int64 {
	if id, ok := s.ids[name]; ok {
		return id
	}
	id := int64(len(s.names))
	s.ids[name] = id
	s.names = append(s.names, name)
	return id
}

func (s *symtab) name(id int64) string { return s.names[id] }

// State is the Join Processor's join state: the witness relations of the
// previously processed documents still inside some window (Section 3.1),
// held as one record per document.
//
//	Rbin  (slot, var1, var2, node1, node2) — bindings of template structural
//	       edges
//	Rdoc  (slot, node, strVal)             — string values of value-join
//	       nodes; strVal is a symbol column (relation.Sym: interned ids), so
//	       value-join equality is an integer compare and never rehashes
//	       string bytes
//	Rroot (slot, var, node)                — root bindings for templates
//	       whose side is a single node (see DESIGN.md)
//
// A document's record sits on a dense slot and holds its id, timestamp and
// arrival index (the window bookkeeping), its rows of the three relations and
// its own indexes over them — never the document itself, which a caller that
// renders outputs keeps. The slot, not the document id, is what a state row
// and the Stage-2 frame carry, so reaching a document's rows is an array
// index. Across records, rdocBySym lists every
// Rdoc row by string value, in arrival order.
//
// Expiry (GC) frees the expired records and pops their rows off the front of
// the posting lists: it touches the expired rows, never the live ones. A
// freed slot is reused by a later Merge. Nothing outside the state keeps a
// slot-stamped row across documents: Stage 2 reads the views off the
// posting lists for each document (prepareViews).
type State struct {
	// recs holds the records by slot. A free slot's record keeps its row
	// storage for the next document placed there.
	recs []docRec
	free []int32
	// order lists the live slots in arrival order.
	order []int32

	// rdocBySym holds, per symbol id, 1 + the index in lists of the posting
	// list of the Rdoc rows carrying that string value (0: none does). A
	// list that empties is released to freeLists, so lists stays as long as
	// the peak number of distinct live values; rdocBySym itself is one int32
	// per symbol the process has interned.
	rdocBySym []int32
	lists     []postList
	freeLists []int32

	// nextSeq is the arrival index of the next document (tuple-based windows
	// are expressed over it); it survives GC.
	nextSeq int64

	// maxTS bounds the live documents' timestamps from above: every merge
	// raises it, and a collection that had to test every record (some
	// document was late) lowers it to the live maximum; otherwise it already
	// is the newest live document's timestamp. A document merged below it is
	// late, and late counts the live late documents. A document that is not
	// late is at or above every live document that arrived before it, so
	// while late is 0 the live documents are in timestamp order as well as
	// arrival order, and the expired ones are a prefix of the arrival order.
	maxTS xmldoc.Timestamp
	late  int

	// rows counts the live rows of Rbin, Rdoc and Rroot.
	rows [3]int

	// gcStale counts consecutive negative shouldGC prefix verdicts since
	// the last full expiry scan (see gcFullScanEvery).
	gcStale int

	// expired and dirty are GC's scratch, reused: the expired slots and the
	// symbols whose lists lost a row that was not at their front.
	expired []int32
	dirty   []sym.ID

	// maxDoc is the largest document id ever consumed (it survives GC), so a
	// restored engine can hand out fresh ids that cannot collide with
	// earlier documents.
	maxDoc xmldoc.DocID
}

// docRec is one in-window document.
type docRec struct {
	id         xmldoc.DocID
	ts         xmldoc.Timestamp
	seq        int64 // arrival index
	live, late bool

	// bin, rdoc and root are the document's rows of Rbin, Rdoc and Rroot,
	// each carved from vals, their headers from hdr. binByNode2 indexes bin
	// by node2 (the walk from a bound node up to its parent), rootByNode
	// root by node.
	bin, rdoc, root        [][]int64
	binByNode2, rootByNode rowIndex
	hdr                    [][]int64
	vals                   []int64
}

// recKeep bounds the row storage, in values, a freed record keeps for the
// next document on its slot: a burst document's storage goes with it.
const recKeep = 4096

// expired reports whether the document is out of every window: timestamp
// below cutoffTS and arrival index below cutoffSeq.
func (r *docRec) expired(cutoffTS xmldoc.Timestamp, cutoffSeq int64) bool {
	return r.ts < cutoffTS && r.seq < cutoffSeq
}

// rowRef names one Rdoc row: a record's slot and the row's position in it.
type rowRef struct{ slot, row int32 }

// postList is one string value's Rdoc rows in arrival order: refs[head:] are
// live. Expiry pops the front; a push slides the live part back or grows the
// array only when it is full, so both are amortized O(1).
type postList struct {
	refs  []rowRef
	head  int
	dirty bool // queued in State.dirty
}

func (l *postList) live() []rowRef { return l.refs[l.head:] }

func (l *postList) push(r rowRef) {
	if len(l.refs) == cap(l.refs) && l.head > 0 {
		if live := l.live(); 2*len(live) > cap(l.refs) {
			l.refs = append(make([]rowRef, 0, 2*cap(l.refs)), live...)
		} else {
			l.refs = l.refs[:copy(l.refs, live)]
		}
		l.head = 0
	}
	l.refs = append(l.refs, r)
}

// The schemas of the witness relations. A current-document relation is its
// state relation without the slot (State.add relies on it). strVal is the
// only symbol column; the code that reads symbols out of it by position
// (State.add, sharedRvj, prepareViews) resolves the position through
// Schema.SymCol, once.
var (
	rbinSchema  = relation.Schema{relation.Int("slot"), relation.Int("var1"), relation.Int("var2"), relation.Int("node1"), relation.Int("node2")}
	rdocSchema  = relation.Schema{relation.Int("slot"), relation.Int("node"), relation.Sym("strVal")}
	rrootSchema = relation.Schema{relation.Int("slot"), relation.Int("var"), relation.Int("node")}

	rbinNode2   = rbinSchema.Col("node2")
	rdocNode    = rdocSchema.Col("node")
	rdocStrVal  = rdocSchema.SymCol("strVal")
	rdocWStrVal = rdocSchema[1:].SymCol("strVal")
	rrootNode   = rrootSchema.Col("node")
)

// NewState returns empty join state.
func NewState() *State {
	return &State{maxTS: math.MinInt64}
}

// CurrentWitness holds the Stage-1 output for the document currently being
// processed: RbinW, RdocW and RrootW of Section 3.1.
type CurrentWitness struct {
	RbinW  *relation.Relation // (var1, var2, node1, node2)
	RdocW  *relation.Relation // (node, strVal)
	RrootW *relation.Relation // (var, node)
	DocID  xmldoc.DocID
	TS     xmldoc.Timestamp
	Doc    *xmldoc.Document

	// nodes deduplicates the rows by node id: nodes[n] speaks for node n of
	// this document only while its gen equals gen, which Release advances,
	// so a later document finds every entry stale without a clear.
	// binNext[r] (rootNext[r]) chains RbinW (RrootW) row r to the previous
	// row with the same child (root) node, -1 ending the chain.
	gen      uint32
	nodes    []witnessNode
	binNext  []int32
	rootNext []int32

	// arena slab-allocates the witness rows: the relations above are
	// per-document and dropped together, so their tuples share chunks
	// instead of costing one allocation each. Merge copies the rows into
	// the join state's own storage, so nothing arena-backed outlives the
	// document — which is what lets Release hand the slab to the next one.
	arena relation.Arena

	// order is RunStage1's scratch: the triggered patterns' sort keys
	// (Processor.triggerOrder), kept with the witness so that a pooled
	// witness brings its storage to the next document.
	order []uint64
}

// witnessNode is what the current document's rows hold for one node: the
// newest RbinW row with it as node2, the newest RrootW row with it as node,
// and its RdocW row, each -1 for none.
type witnessNode struct {
	gen            uint32
	bin, root, doc int32
}

// witnessPool holds the witness relations of consumed documents (Release):
// row slices, dedup arrays and the arena's slab serve the next document, so a
// document's Stage-1 output costs no allocation once they have grown to its
// size. Stage-1 workers of concurrently admitted documents each take their
// own.
//
//mmqjp:pooled witnesses are emptied by Release, after Consume has merged the document; the join state (State.add) keeps copies of the rows, never the arena's
var witnessPool = sync.Pool{New: func() any {
	return &CurrentWitness{
		RbinW:  relation.New(rbinSchema[1:]...),
		RdocW:  relation.New(rdocSchema[1:]...),
		RrootW: relation.New(rrootSchema[1:]...),
		gen:    1,
	}
}}

// witnessKeep bounds what Release keeps, in rows and in node entries: a burst
// document's slab and arrays go with it instead of being cleared for every
// document after it.
const witnessKeep = 4096

// NewCurrentWitness returns empty current-document witness relations.
func NewCurrentWitness(d *xmldoc.Document) *CurrentWitness {
	w := witnessPool.Get().(*CurrentWitness)
	w.DocID, w.TS, w.Doc = d.ID, d.Timestamp, d
	return w
}

// Release gives the witness's storage to a later document. The caller is
// done with the document: every row has been copied where it is kept
// (Merge), and nothing reads w or a row of it afterwards.
func (w *CurrentWitness) Release() {
	if w.RbinW.Len()+w.RdocW.Len()+w.RrootW.Len() > witnessKeep || len(w.nodes) > witnessKeep {
		return
	}
	for _, r := range [...]*relation.Relation{w.RbinW, w.RdocW, w.RrootW} {
		clear(r.Rows)
		r.Rows = r.Rows[:0]
	}
	w.binNext, w.rootNext = w.binNext[:0], w.rootNext[:0]
	if w.gen++; w.gen == 0 {
		clear(w.nodes)
		w.gen = 1
	}
	w.arena.Reset()
	w.Doc = nil
	witnessPool.Put(w)
}

// node returns node n's entry for the current document.
func (w *CurrentWitness) node(n xmldoc.NodeID) *witnessNode {
	if need := int(n) + 1; need > len(w.nodes) {
		w.nodes = slices.Grow(w.nodes, need-len(w.nodes))[:need]
	}
	e := &w.nodes[n]
	if e.gen != w.gen {
		*e = witnessNode{gen: w.gen, bin: -1, root: -1, doc: -1}
	}
	return e
}

// AddBin inserts a deduplicated structural-edge binding tuple.
func (w *CurrentWitness) AddBin(var1, var2 int64, n1, n2 xmldoc.NodeID) {
	e := w.node(n2)
	for r := e.bin; r >= 0; r = w.binNext[r] {
		if row := w.RbinW.Rows[r]; row[0] == var1 && row[1] == var2 && row[2] == int64(n1) {
			return
		}
	}
	w.binNext = append(w.binNext, e.bin)
	e.bin = int32(w.RbinW.Len())
	w.arena.Insert(w.RbinW, var1, var2, int64(n1), int64(n2))
}

// AddDoc inserts a deduplicated string-value tuple for node n of the
// witness's document. The value is computed — an interior element's is
// concatenated (xmldoc.Document.StringValue) — and interned only when the
// row is new, at the Stage-1 boundary: everything downstream (witness
// joins, the views, the state's posting lists) sees only the symbol.
func (w *CurrentWitness) AddDoc(n xmldoc.NodeID) {
	if e := w.node(n); e.doc < 0 {
		w.insertDoc(e, n, w.Doc.StringValue(n))
	}
}

// insertDoc inserts node n's row, with string value strVal, as its entry e
// records.
func (w *CurrentWitness) insertDoc(e *witnessNode, n xmldoc.NodeID, strVal string) {
	e.doc = int32(w.RdocW.Len())
	w.arena.Insert(w.RdocW, int64(n), int64(sym.Intern(strVal)))
}

// AddRoot inserts a deduplicated root binding tuple.
func (w *CurrentWitness) AddRoot(v int64, n xmldoc.NodeID) {
	e := w.node(n)
	for r := e.root; r >= 0; r = w.rootNext[r] {
		if w.RrootW.Rows[r][0] == v {
			return
		}
	}
	w.rootNext = append(w.rootNext, e.root)
	e.root = int32(w.RrootW.Len())
	w.arena.Insert(w.RrootW, v, int64(n))
}

// docSym returns the string value symbol of node n, if the document has an
// RdocW row for it.
func (w *CurrentWitness) docSym(n int64) (sym.ID, bool) {
	if n < 0 || n >= int64(len(w.nodes)) {
		return 0, false
	}
	if e := &w.nodes[n]; e.gen == w.gen && e.doc >= 0 {
		return sym.ID(w.RdocW.Rows[e.doc][rdocWStrVal]), true
	}
	return 0, false
}

// Merge folds the current document's witness relations into the join state,
// implementing Algorithm 2 — the timestamp cross product of the paper is
// realized by the document's record, which its rows point at through their
// slot column.
func (s *State) Merge(w *CurrentWitness) {
	s.add(w.DocID, w.TS, s.nextSeq, w.RbinW.Rows, w.RdocW.Rows, w.RrootW.Rows)
	s.pass(w.DocID)
}

// pass counts a consumed document, merged or not.
func (s *State) pass(id xmldoc.DocID) {
	s.nextSeq++
	s.maxDoc = max(s.maxDoc, id)
}

// add places a document on a free slot: its witness-shaped rows (no slot
// column) are copied into the record behind the slot, indexed, and posted
// under their string values.
func (s *State) add(id xmldoc.DocID, ts xmldoc.Timestamp, seq int64, bin, rdoc, root [][]int64) {
	var slot int32
	if n := len(s.free); n > 0 {
		slot, s.free = s.free[n-1], s.free[:n-1]
	} else {
		slot = int32(len(s.recs))
		s.recs = append(s.recs, docRec{})
	}
	r := &s.recs[slot]
	r.id, r.ts, r.seq, r.live = id, ts, seq, true
	if r.late = ts < s.maxTS; r.late {
		s.late++
	} else {
		s.maxTS = ts
	}
	r.vals = resize(r.vals, len(bin)*len(rbinSchema)+len(rdoc)*len(rdocSchema)+len(root)*len(rrootSchema))
	r.hdr = resize(r.hdr, len(bin)+len(rdoc)+len(root))
	hdr, vals := r.hdr, r.vals
	r.bin, hdr, vals = stampRows(hdr, vals, slot, bin, len(rbinSchema))
	r.rdoc, hdr, vals = stampRows(hdr, vals, slot, rdoc, len(rdocSchema))
	r.root, _, _ = stampRows(hdr, vals, slot, root, len(rrootSchema))
	r.binByNode2.build(r.bin, rbinNode2)
	r.rootByNode.build(r.root, rrootNode)
	for i, row := range r.rdoc {
		s.post(sym.ID(row[rdocStrVal]), rowRef{slot, int32(i)})
	}
	s.rows[0] += len(bin)
	s.rows[1] += len(rdoc)
	s.rows[2] += len(root)
	s.order = append(s.order, slot)
}

// stampRows carves len(rows) rows of width n from hdr and vals, each the
// slot followed by the witness row, and returns them with what is left of
// hdr and vals. A state row is 8·n bytes the collector never looks into.
func stampRows(hdr [][]int64, vals []int64, slot int32, rows [][]int64, n int) (out, restHdr [][]int64, restVals []int64) {
	out = hdr[:len(rows):len(rows)]
	for i, t := range rows {
		row := vals[:n:n]
		vals = vals[n:]
		row[0] = int64(slot)
		copy(row[1:], t)
		out[i] = row
	}
	return out, hdr[len(rows):], vals
}

// post appends an Rdoc row to its value's posting list.
func (s *State) post(id sym.ID, ref rowRef) {
	if need := int(id) + 1; need > len(s.rdocBySym) {
		s.rdocBySym = slices.Grow(s.rdocBySym, need-len(s.rdocBySym))[:need]
	}
	li := s.rdocBySym[id]
	if li == 0 {
		if n := len(s.freeLists); n > 0 {
			li, s.freeLists = s.freeLists[n-1], s.freeLists[:n-1]
		} else {
			s.lists = append(s.lists, postList{})
			li = int32(len(s.lists))
		}
		s.rdocBySym[id] = li
	}
	s.lists[li-1].push(ref)
}

// postings returns the live Rdoc rows carrying the string value id, in
// arrival order.
func (s *State) postings(id sym.ID) []rowRef {
	if int(id) >= len(s.rdocBySym) || s.rdocBySym[id] == 0 {
		return nil
	}
	return s.lists[s.rdocBySym[id]-1].live()
}

// releaseList returns the emptied posting list of id to the free lists.
func (s *State) releaseList(id sym.ID) {
	li := s.rdocBySym[id]
	l := &s.lists[li-1]
	l.refs, l.head, l.dirty = l.refs[:0], 0, false
	if cap(l.refs) > recKeep {
		l.refs = nil
	}
	s.rdocBySym[id] = 0
	s.freeLists = append(s.freeLists, li)
}

// HasSym reports whether any previous document produced a value-join node
// with the given (interned) string value — the semi-join of Algorithm 4,
// line 2, served from the posting lists.
func (s *State) HasSym(id sym.ID) bool {
	return int(id) < len(s.rdocBySym) && s.rdocBySym[id] != 0
}

// appendRL appends to vals the rows of E_{L,s} = σ_{strVal=s}(Rdoc)
// ⋈_{node=node2} Rbin, the part of the left view RL (Section 5) whose rows
// carry the string value s, and returns the extended buffer: rlSchema rows,
// one after another, read off the posting list of s and each record's Rbin
// index by node2.
func (s *State) appendRL(vals []int64, id sym.ID) []int64 {
	for _, ref := range s.postings(id) {
		r := &s.recs[ref.slot]
		for _, bi := range r.binByNode2.get(r.rdoc[ref.row][rdocNode]) {
			vals = append(append(vals, r.bin[bi]...), int64(id))
		}
	}
	return vals
}

// GC removes every document expired in both window dimensions (timestamp <
// cutoffTS and arrival index < cutoffSeq), whether they form a prefix of the
// arrival order or not, appends their ids to gone in the order it frees them
// and returns it with the number of rows they held. While no live document is late the
// expired ones are a prefix of the arrival order and the scan stops at the
// first live one; otherwise every live record is tested. Each expired row is
// popped off the front of its value's posting list, which is where it sits
// when expiry follows arrival; a list that lost a row elsewhere (clock skew)
// is filtered once at the end. The expired records are freed and their
// slots reused by later merges.
func (s *State) GC(cutoffTS xmldoc.Timestamp, cutoffSeq int64, gone []xmldoc.DocID) ([]xmldoc.DocID, int) {
	expired, dropped := s.expired[:0], 0
	if s.late == 0 {
		n := 0
		for n < len(s.order) && s.recs[s.order[n]].expired(cutoffTS, cutoffSeq) {
			n++
		}
		expired = append(expired, s.order[:n]...)
		s.order = s.order[n:]
	} else {
		kept := s.order[:0]
		s.maxTS = math.MinInt64
		for _, slot := range s.order {
			if r := &s.recs[slot]; r.expired(cutoffTS, cutoffSeq) {
				expired = append(expired, slot)
			} else {
				kept = append(kept, slot)
				s.maxTS = max(s.maxTS, r.ts)
			}
		}
		s.order = kept
	}
	s.expired = expired
	for _, slot := range expired {
		s.recs[slot].live = false
	}
	for _, slot := range expired {
		r := &s.recs[slot]
		gone = append(gone, r.id)
		for i, row := range r.rdoc {
			s.unpost(sym.ID(row[rdocStrVal]), rowRef{slot, int32(i)})
		}
		dropped += len(r.bin) + len(r.rdoc) + len(r.root)
		s.rows[0] -= len(r.bin)
		s.rows[1] -= len(r.rdoc)
		s.rows[2] -= len(r.root)
		if r.late {
			s.late--
		}
		r.bin, r.rdoc, r.root = nil, nil, nil
		if cap(r.vals) > recKeep {
			*r = docRec{}
		}
		s.free = append(s.free, slot)
	}
	for _, id := range s.dirty {
		l := &s.lists[s.rdocBySym[id]-1]
		kept := l.refs[:l.head]
		for _, ref := range l.live() {
			if s.recs[ref.slot].live {
				kept = append(kept, ref)
			}
		}
		l.refs, l.dirty = kept, false
		if len(l.live()) == 0 {
			s.releaseList(id)
		}
	}
	s.dirty = s.dirty[:0]
	return gone, dropped
}

// unpost removes an expired Rdoc row from its value's posting list: off the
// front when it is there, else by queueing the list for GC's filter pass.
func (s *State) unpost(id sym.ID, ref rowRef) {
	l := &s.lists[s.rdocBySym[id]-1]
	if l.live()[0] != ref {
		if !l.dirty {
			l.dirty = true
			s.dirty = append(s.dirty, id)
		}
		return
	}
	if l.head++; l.head == len(l.refs) && !l.dirty {
		s.releaseList(id)
	}
}

// gcBatchMin is the expired-prefix length beyond which a GC pays for the
// collection regardless of the live fraction.
const gcBatchMin = 32

// gcFullScanEvery bounds trigger starvation under out-of-order timestamps:
// the cheap per-publish check scans only the expired prefix of the arrival
// order, so a single early document with a far-future timestamp (clock skew)
// would otherwise hide an unbounded number of expired successors from the
// trigger forever. Every gcFullScanEvery consecutive negative prefix
// verdicts, the check pays one full scan — amortized O(len/gcFullScanEvery)
// per publish — so non-prefix expiry is still collected (GC itself already
// removes any expired document, prefix or not). While no live document is
// late the full scan would count the prefix again, so it is skipped: the
// verdict is the same.
const gcFullScanEvery = 64

// shouldGC reports whether enough documents have expired to make a
// collection worthwhile. A document is expired when its timestamp is below
// cutoffTS AND its arrival index is below cutoffSeq (pass the maximum value
// for a dimension with no active windows). Documents normally arrive in
// timestamp order, so expired documents form a prefix of the arrival order:
// the scan stops at the first live document (and at gcBatchMin, when the
// verdict is already decided), so this per-publish check is O(min(expired,
// gcBatchMin)) — except for the periodic full scan that guards against
// out-of-order arrivals (gcFullScanEvery).
func (s *State) shouldGC(cutoffTS xmldoc.Timestamp, cutoffSeq int64) bool {
	expired := 0
	for _, slot := range s.order {
		if !s.recs[slot].expired(cutoffTS, cutoffSeq) {
			break
		}
		expired++
		if expired >= gcBatchMin {
			s.gcStale = 0
			return true
		}
	}
	if expired > 0 && 2*expired >= len(s.order) {
		s.gcStale = 0
		return true
	}
	if s.gcStale++; s.gcStale < gcFullScanEvery {
		return false
	}
	s.gcStale = 0
	if s.late == 0 {
		return false
	}
	total := 0
	for _, slot := range s.order {
		if s.recs[slot].expired(cutoffTS, cutoffSeq) {
			total++
			if total >= gcBatchMin {
				return true
			}
		}
	}
	return total > 0 && 2*total >= len(s.order)
}

// NumDocs returns the number of documents currently in the join state.
func (s *State) NumDocs() int { return len(s.order) }

// Rows returns the live row counts of Rbin, Rdoc and Rroot.
func (s *State) Rows() (bin, doc, root int) { return s.rows[0], s.rows[1], s.rows[2] }
