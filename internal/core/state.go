package core

import (
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

// State is the Join Processor's join state: the witness relations of all
// previously processed documents (Section 3.1) plus the indexes that the
// view-materialization path maintains over them (Section 5).
//
//	Rbin   (docid, var1, var2, node1, node2) — bindings of template
//	        structural edges from previous documents
//	Rdoc   (docid, node, strVal)             — string values of value-join
//	        nodes from previous documents; strVal is a symbol column
//	        (relation.Sym: interned ids), so value-join equality is an
//	        integer compare and never rehashes string bytes
//	Rroot  (docid, var, node)                — root bindings for templates
//	        whose side is a single node (see DESIGN.md)
//	RdocTS (docid, timestamp)
type State struct {
	Rbin   *relation.Relation
	Rdoc   *relation.Relation
	Rroot  *relation.Relation
	RdocTS map[xmldoc.DocID]xmldoc.Timestamp

	// docIDs in insertion (timestamp) order, for window GC.
	docIDs []xmldoc.DocID
	// seq assigns each document its arrival index (monotone, survives
	// GC); tuple-based windows are expressed over this sequence.
	seq     map[xmldoc.DocID]int64
	nextSeq int64

	// The indexes the compiled Stage-2 steps (cqplan.go) and the view
	// slices (SliceEL) reach the relations through, as row numbers, each
	// list ascending. Merge extends them row by row, GC renumbers them in
	// place, and NewState and RestoreState build them in row order
	// (reindex); all three yield the same lists. rdocBySym: Rdoc by string
	// value. rbinByNode2: Rbin by (docid, node2), the walk from a bound
	// node up to its parent. rrootByNode: Rroot by (docid, node).
	rdocBySym   map[sym.ID][]int
	rbinByNode2 map[binKey][]int
	rrootByNode map[binKey][]int

	// remap is GC's old row number → new row number scratch (-1 for a
	// dropped row), reused across collections and relations.
	remap []int32

	// docs retains full documents for output construction when enabled.
	docs map[xmldoc.DocID]*xmldoc.Document

	// gcStale counts consecutive negative shouldGC prefix verdicts since
	// the last full expiry scan (see gcFullScanEvery).
	gcStale int

	// maxDoc is the largest document id ever merged (it survives GC), so a
	// restored engine can hand out fresh ids that cannot collide with
	// retained state.
	maxDoc xmldoc.DocID
}

type binKey struct {
	doc  xmldoc.DocID
	node xmldoc.NodeID
}

// The schemas of the witness relations. A current-document relation is its
// state relation without the docid (stampRows relies on it). strVal is the
// only symbol column; the code that reads symbols out of it by position
// (indexDoc, sharedRvj, prepareViewMat) resolves the position through
// Schema.SymCol, once.
var (
	rbinSchema  = relation.Schema{relation.Int("docid"), relation.Int("var1"), relation.Int("var2"), relation.Int("node1"), relation.Int("node2")}
	rdocSchema  = relation.Schema{relation.Int("docid"), relation.Int("node"), relation.Sym("strVal")}
	rrootSchema = relation.Schema{relation.Int("docid"), relation.Int("var"), relation.Int("node")}

	rdocStrVal  = rdocSchema.SymCol("strVal")
	rdocWStrVal = rdocSchema[1:].SymCol("strVal")
)

// NewState returns empty join state.
func NewState() *State {
	s := &State{
		Rbin:   relation.New(rbinSchema...),
		Rdoc:   relation.New(rdocSchema...),
		Rroot:  relation.New(rrootSchema...),
		RdocTS: map[xmldoc.DocID]xmldoc.Timestamp{},
		seq:    map[xmldoc.DocID]int64{},
		docs:   map[xmldoc.DocID]*xmldoc.Document{},
	}
	s.reindex()
	return s
}

// reindex builds every index from the relations, in row order: the starting
// point of an empty or restored state. Window expiry maintains the indexes
// in place (GC) and never comes through here.
func (s *State) reindex() {
	s.rdocBySym = map[sym.ID][]int{}
	s.rbinByNode2 = map[binKey][]int{}
	s.rrootByNode = map[binKey][]int{}
	for i := range s.Rbin.Rows {
		s.indexBin(i)
	}
	for i := range s.Rdoc.Rows {
		s.indexDoc(i)
	}
	for i := range s.Rroot.Rows {
		s.indexRoot(i)
	}
}

func (s *State) indexBin(i int) {
	t := s.Rbin.Rows[i]
	nk := binKey{xmldoc.DocID(t[0]), xmldoc.NodeID(t[4])}
	s.rbinByNode2[nk] = append(s.rbinByNode2[nk], i)
}

func (s *State) indexDoc(i int) {
	id := sym.ID(s.Rdoc.Rows[i][rdocStrVal])
	s.rdocBySym[id] = append(s.rdocBySym[id], i)
}

func (s *State) indexRoot(i int) {
	t := s.Rroot.Rows[i]
	nk := binKey{xmldoc.DocID(t[0]), xmldoc.NodeID(t[2])}
	s.rrootByNode[nk] = append(s.rrootByNode[nk], i)
}

// CurrentWitness holds the Stage-1 output for the document currently being
// processed: RbinW, RdocW, RrootW and RdocTSW of Section 3.1.
type CurrentWitness struct {
	RbinW   *relation.Relation // (var1, var2, node1, node2)
	RdocW   *relation.Relation // (node, strVal)
	RrootW  *relation.Relation // (var, node)
	DocID   xmldoc.DocID
	TS      xmldoc.Timestamp
	Doc     *xmldoc.Document
	binSeen map[[4]int64]bool
	docSeen map[xmldoc.NodeID]bool
	rtSeen  map[[2]int64]bool

	// arena slab-allocates the witness rows: the relations above are
	// per-document and dropped together, so their tuples share chunks
	// instead of costing one allocation each. Merge copies the rows into
	// the join state's own storage, so nothing arena-backed outlives the
	// document — which is what lets Release hand the slab to the next one.
	arena relation.Arena

	// rrSlices holds the current document's RR rows (var1, var2, node1,
	// node2, strVal) between conjunctive-query evaluation and view-cache
	// maintenance (Algorithm 5).
	rrSlices *relation.Relation
}

// witnessPool holds the witness relations of consumed documents (Release):
// row slices, dedup sets and the arena's slab serve the next document, so a
// document's Stage-1 output costs no allocation once they have grown to its
// size. Stage-1 workers of concurrently admitted documents each take their
// own.
//
//mmqjp:pooled witnesses are emptied by Release, after Consume has merged the document; the join state (stampRows) and the view caches (Insert) keep copies of the rows, never the arena's
var witnessPool = sync.Pool{New: func() any {
	return &CurrentWitness{
		RbinW:   relation.New(rbinSchema[1:]...),
		RdocW:   relation.New(rdocSchema[1:]...),
		RrootW:  relation.New(rrootSchema[1:]...),
		binSeen: map[[4]int64]bool{},
		docSeen: map[xmldoc.NodeID]bool{},
		rtSeen:  map[[2]int64]bool{},
	}
}}

// witnessKeep bounds what Release keeps, in rows: a burst document's slab and
// sets go with it instead of being cleared for every document after it.
const witnessKeep = 4096

// NewCurrentWitness returns empty current-document witness relations.
func NewCurrentWitness(d *xmldoc.Document) *CurrentWitness {
	w := witnessPool.Get().(*CurrentWitness)
	w.DocID, w.TS, w.Doc = d.ID, d.Timestamp, d
	return w
}

// Release gives the witness's storage to a later document. The caller is
// done with the document: every row has been copied where it is kept (Merge,
// the view caches' Insert), and nothing reads w or a row of it afterwards.
func (w *CurrentWitness) Release() {
	if w.RbinW.Len()+w.RdocW.Len()+w.RrootW.Len() > witnessKeep {
		return
	}
	for _, r := range [...]*relation.Relation{w.RbinW, w.RdocW, w.RrootW} {
		clear(r.Rows)
		r.Rows = r.Rows[:0]
	}
	clear(w.binSeen)
	clear(w.docSeen)
	clear(w.rtSeen)
	w.arena.Reset()
	w.Doc, w.rrSlices = nil, nil
	witnessPool.Put(w)
}

// AddBin inserts a deduplicated structural-edge binding tuple.
func (w *CurrentWitness) AddBin(var1, var2 int64, n1, n2 xmldoc.NodeID) {
	k := [4]int64{var1, var2, int64(n1), int64(n2)}
	if w.binSeen[k] {
		return
	}
	w.binSeen[k] = true
	w.arena.Insert(w.RbinW, var1, var2, int64(n1), int64(n2))
}

// AddDoc inserts a deduplicated node string value tuple. The string value is
// interned here, at the Stage-1 boundary: everything downstream (witness
// joins, the view caches, the incremental indexes) sees only the symbol.
func (w *CurrentWitness) AddDoc(n xmldoc.NodeID, strVal string) {
	if w.docSeen[n] {
		return
	}
	w.docSeen[n] = true
	w.arena.Insert(w.RdocW, int64(n), int64(sym.Intern(strVal)))
}

// AddRoot inserts a deduplicated root binding tuple.
func (w *CurrentWitness) AddRoot(v int64, n xmldoc.NodeID) {
	k := [2]int64{v, int64(n)}
	if w.rtSeen[k] {
		return
	}
	w.rtSeen[k] = true
	w.arena.Insert(w.RrootW, v, int64(n))
}

// Merge folds the current document's witness relations into the join state,
// implementing Algorithm 2 (the timestamp cross product of the paper is
// realized by stamping each tuple with the document id and recording the
// id→timestamp pair in RdocTS).
func (s *State) Merge(w *CurrentWitness, retainDoc bool) {
	did := int64(w.DocID)
	for i := stampRows(s.Rbin, did, w.RbinW.Rows); i < s.Rbin.Len(); i++ {
		s.indexBin(i)
	}
	for i := stampRows(s.Rdoc, did, w.RdocW.Rows); i < s.Rdoc.Len(); i++ {
		s.indexDoc(i)
	}
	for i := stampRows(s.Rroot, did, w.RrootW.Rows); i < s.Rroot.Len(); i++ {
		s.indexRoot(i)
	}
	s.RdocTS[w.DocID] = w.TS
	s.seq[w.DocID] = s.nextSeq
	s.nextSeq++
	s.docIDs = append(s.docIDs, w.DocID)
	if w.DocID > s.maxDoc {
		s.maxDoc = w.DocID
	}
	if retainDoc {
		s.docs[w.DocID] = w.Doc
	}
}

// stampRows appends the rows of one witness relation to the state relation
// r, each prefixed with the document id, and returns the number of the first
// row added. A document's rows of one relation share one backing array — they
// are merged together and expire together — so a merge allocates per
// relation, not per row, and a state row of n columns is 8·n bytes the
// collector never looks into.
func stampRows(r *relation.Relation, did int64, rows [][]int64) int {
	first := r.Len()
	n := len(r.Schema)
	backing := make([]int64, n*len(rows))
	for _, t := range rows {
		row := backing[:n:n]
		backing = backing[n:]
		row[0] = did
		copy(row[1:], t)
		r.Insert(row...)
	}
	return first
}

// HasSym reports whether any previous document produced a value-join node
// with the given (interned) string value — the semi-join of Algorithm 4,
// line 2, served from the incremental index.
func (s *State) HasSym(id sym.ID) bool { return len(s.rdocBySym[id]) > 0 }

// SliceEL computes E_{L,s} = σ_{strVal=s}(Rdoc) ⋈_{node=node2} Rbin — the
// per-string slice of the left view RL (Section 5) — using the incremental
// indexes. The result schema is (docid, var1, var2, node1, node2, strVal).
// Slices are cached across documents (ViewCache), so their rows are heap
// allocated, never arena carved.
func (s *State) SliceEL(id sym.ID) *relation.Relation {
	out := relation.New(rlSchema...)
	sv := int64(id)
	for _, ri := range s.rdocBySym[id] {
		dt := s.Rdoc.Rows[ri]
		doc := xmldoc.DocID(dt[0])
		node := xmldoc.NodeID(dt[1])
		for _, bi := range s.rbinByNode2[binKey{doc, node}] {
			bt := s.Rbin.Rows[bi]
			out.Insert(bt[0], bt[1], bt[2], bt[3], bt[4], sv)
		}
	}
	return out
}

// GC removes all state belonging to documents expired in both window
// dimensions (timestamp < cutoffTS and arrival index < cutoffSeq), whether
// they form a prefix of the arrival order or not. The relations are compacted
// in place — surviving rows keep their order and shift down over the expired
// ones — and the indexes are renumbered in place, so a collection allocates
// nothing per surviving row and every relation and index shrinks to the live
// documents. The expired document set is returned so callers can scope
// downstream invalidation (view-cache entries) to exactly the documents that
// left, with the counted work: rows dropped, and surviving rows that moved to
// a lower row number.
func (s *State) GC(cutoffTS xmldoc.Timestamp, cutoffSeq int64) (expired map[xmldoc.DocID]bool, dropped, moved int) {
	expired = map[xmldoc.DocID]bool{}
	keptIDs := s.docIDs[:0]
	for _, id := range s.docIDs {
		if s.RdocTS[id] < cutoffTS && s.seq[id] < cutoffSeq {
			expired[id] = true
			delete(s.RdocTS, id)
			delete(s.seq, id)
			delete(s.docs, id)
		} else {
			keptIDs = append(keptIDs, id)
		}
	}
	s.docIDs = keptIDs
	if len(expired) == 0 {
		return expired, 0, 0
	}
	d1, m1 := expireRows(s, s.Rbin, s.rbinByNode2, expired)
	d2, m2 := expireRows(s, s.Rdoc, s.rdocBySym, expired)
	d3, m3 := expireRows(s, s.Rroot, s.rrootByNode, expired)
	return expired, d1 + d2 + d3, m1 + m2 + m3
}

// expireRows removes the expired documents' rows from one state relation and
// its index.
func expireRows[K comparable](s *State, r *relation.Relation, idx map[K][]int, expired map[xmldoc.DocID]bool) (dropped, moved int) {
	dropped, moved = s.compact(r, expired)
	if dropped > 0 {
		renumber(idx, s.remap)
	}
	return dropped, moved
}

// compact drops the rows of expired documents from r (column 0 is the
// docid in every state relation), shifting the survivors down in order, and
// leaves the old → new row numbers in s.remap. The vacated tail is cleared,
// so the row store does not pin the expired documents' rows.
func (s *State) compact(r *relation.Relation, expired map[xmldoc.DocID]bool) (dropped, moved int) {
	if cap(s.remap) < len(r.Rows) {
		s.remap = make([]int32, len(r.Rows))
	}
	s.remap = s.remap[:len(r.Rows)]
	n := 0
	for i, t := range r.Rows {
		if expired[xmldoc.DocID(t[0])] {
			s.remap[i] = -1
			continue
		}
		if n != i {
			r.Rows[n] = t
			moved++
		}
		s.remap[i] = int32(n)
		n++
	}
	dropped = len(r.Rows) - n
	clear(r.Rows[n:])
	r.Rows = r.Rows[:n]
	return dropped, moved
}

// renumber rewrites every row list of idx through remap, in place: dropped
// rows leave their list, a list left empty leaves the index. remap is
// monotone over the surviving rows, so the lists stay ascending.
func renumber[K comparable](idx map[K][]int, remap []int32) {
	//mmqjp:unordered each key's list is rewritten on its own; nothing is read across keys
	for k, rows := range idx {
		kept := rows[:0]
		for _, row := range rows {
			if n := remap[row]; n >= 0 {
				kept = append(kept, int(n))
			}
		}
		switch {
		case len(kept) == 0:
			delete(idx, k)
		case len(kept) < len(rows):
			idx[k] = kept
		}
	}
}

// gcBatchMin is the expired-prefix length beyond which a GC pays for the
// pass over the live state regardless of the live fraction.
const gcBatchMin = 32

// gcFullScanEvery bounds trigger starvation under out-of-order timestamps:
// the cheap per-publish check scans only the expired prefix of docIDs, so a
// single early document with a far-future timestamp (clock skew) would
// otherwise hide an unbounded number of expired successors from the trigger
// forever. Every gcFullScanEvery consecutive negative prefix verdicts, the
// check pays one full scan — amortized O(len/gcFullScanEvery) per publish —
// so non-prefix expiry is still collected (GC itself already removes any
// expired document, prefix or not).
const gcFullScanEvery = 64

// shouldGC reports whether enough documents have expired to make a
// collection's pass over the join state worthwhile. A document is expired
// when its timestamp is below cutoffTS AND its arrival index is below
// cutoffSeq (pass the maximum value for a dimension with no active windows).
// Documents normally arrive in timestamp order, so expired documents form a
// prefix of docIDs: the scan stops at the first live document (and at
// gcBatchMin, when the verdict is already decided), so this per-publish check
// is O(min(expired, gcBatchMin)) — except for the periodic full scan that
// guards against out-of-order arrivals (gcFullScanEvery).
func (s *State) shouldGC(cutoffTS xmldoc.Timestamp, cutoffSeq int64) bool {
	expired := 0
	for _, id := range s.docIDs {
		if s.RdocTS[id] >= cutoffTS || s.seq[id] >= cutoffSeq {
			break
		}
		expired++
		if expired >= gcBatchMin {
			s.gcStale = 0
			return true
		}
	}
	if expired > 0 && 2*expired >= len(s.docIDs) {
		s.gcStale = 0
		return true
	}
	if s.gcStale++; s.gcStale < gcFullScanEvery {
		return false
	}
	s.gcStale = 0
	total := 0
	for _, id := range s.docIDs {
		if s.RdocTS[id] < cutoffTS && s.seq[id] < cutoffSeq {
			total++
			if total >= gcBatchMin {
				return true
			}
		}
	}
	return total > 0 && 2*total >= len(s.docIDs)
}

// Doc returns a retained document, or nil.
func (s *State) Doc(id xmldoc.DocID) *xmldoc.Document { return s.docs[id] }

// NumDocs returns the number of documents currently in the join state.
func (s *State) NumDocs() int { return len(s.docIDs) }
