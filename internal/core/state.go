package core

import (
	"fmt"
	"hash/maphash"
	"math"
	"strings"

	"repro/internal/xmldoc"
)

// symtab interns class names (classNames) as dense int64 ids so that the
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
//	Rbin  (var1, var2, node1, node2) — bindings of template structural edges
//	Rdoc  (node, strVal)             — string values of value-join nodes;
//	       strVal is a symbol column (Sym: the state's value ids), so
//	       value-join equality is an integer compare and never rehashes
//	       string bytes
//	Rroot (var, node)                — root bindings for templates whose
//	       side is a single node (see DESIGN.md)
//
// A document's record sits on a dense slot and holds its id, timestamp and
// arrival index (the window bookkeeping), its rows of the three relations and
// its own indexes over them — never the document itself, which a caller that
// renders outputs keeps. The record is the one Stage 1 built for the
// document (Stage1Result): Merge adopts it onto a free slot, so a state row
// is exactly the row Stage 1 wrote, and the slot, which is where a reader
// found the record, is not in it. A posting-list reference (rowRef) and the
// Stage-2 frame carry the slot, so reaching a document's rows is an array
// index. Across records, one posting list per join value lists every Rdoc row
// carrying it, in arrival order.
//
// The state owns its join values. A value's id is the index of its posting
// list, and the value dictionary (valueDict) finds the id from the string:
// Consume resolves each of a document's Rdoc rows once (State.resolve), and a
// value the state does not hold yet gets an empty list there, which Merge
// fills in the same call. The value retires when expiry empties its list, and
// the id and the list go to the next new value. So ids depend on the state's
// history — which values came and went, in what order — and only enumeration
// order depends on them: the output leaves through Matches.sort, and a
// snapshot carries the strings.
//
// Expiry (GC) frees the expired records and pops their rows off the front of
// the posting lists: it touches the expired rows, never the live ones. A
// freed slot's storage goes to the next document Merge places there, in
// exchange for that document's record. Nothing outside the state keeps a
// state row across documents: Stage 2 reads the views off the posting lists
// for each document (prepareViews).
type State struct {
	// recs holds the records by slot. A free slot's record keeps its row
	// storage until Merge swaps it for the next record placed there.
	recs []docRec
	free []int32
	// order lists the live slots in arrival order.
	order []int32

	// lists holds the posting list of each join value the state holds, at
	// the value's id, and values finds the id from the value. A list that
	// empties retires its value: the value leaves values and its id goes to
	// freeLists for the next new value. So lists and values are as long as
	// the peak number of distinct live values, whatever the stream length.
	lists     []postList
	freeLists []int32
	values    valueDict

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
	// values whose lists lost a row that was not at their front.
	expired []int32
	dirty   []int32

	// maxDoc is the largest document id ever consumed (it survives GC), so a
	// restored engine can hand out fresh ids that cannot collide with
	// earlier documents.
	maxDoc xmldoc.DocID
}

// docRec is one document's record: built detached by Stage 1 (or a
// restore), adopted by the state on Merge, and kept there while the
// document is inside some window.
type docRec struct {
	id         xmldoc.DocID
	ts         xmldoc.Timestamp
	seq        int64 // arrival index, set when the state adopts the record
	live, late bool

	// bin, rdoc and root are the document's rows of Rbin, Rdoc and Rroot in
	// the order they were written. The add methods append each row's values
	// to binVals, rdocVals and rootVals; seal points the rows at them, their
	// headers carved from hdr, and indexes bin by node2 (binByNode2: the
	// walk from a bound node up to its parent) and root by node
	// (rootByNode). A row is 8 bytes a value, which the collector never
	// looks into.
	bin, rdoc, root             [][]int64
	binByNode2, rootByNode      rowIndex
	hdr                         [][]int64
	binVals, rdocVals, rootVals []int64
}

// recKeep bounds the storage kept for a later document wherever it is
// recycled, in values: a record's rows, the Stage-1 dedup arrays
// (Stage1Result.reset) and the Stage-2 view buffers (stage2Shared.reset). A
// burst document's storage goes with it instead of being cleared for every
// document after it.
const recKeep = 4096

// The row widths of the witness relations.
var (
	rbinWidth  = len(rbinSchema)
	rdocWidth  = len(rdocSchema)
	rrootWidth = len(rrootSchema)
)

// addBin, addDoc and addRoot append one row of Rbin, Rdoc and Rroot, as
// given: deduplication is the caller's (Stage1Result.AddBin and its
// siblings).
func (r *docRec) addBin(var1, var2, n1, n2 int64) {
	r.binVals = append(r.binVals, var1, var2, n1, n2)
}

func (r *docRec) addDoc(n int64, strVal int32) {
	r.rdocVals = append(r.rdocVals, n, int64(strVal))
}

func (r *docRec) addRoot(v, n int64) {
	r.rootVals = append(r.rootVals, v, n)
}

// seal points the record's rows at the values written and indexes them: the
// record is then what Stage 2 reads as the current document and what Merge
// adopts.
func (r *docRec) seal() {
	nb, nd := len(r.binVals)/rbinWidth, len(r.rdocVals)/rdocWidth
	n := nb + nd + len(r.rootVals)/rrootWidth
	r.hdr = resize(r.hdr, n)
	r.bin = headRows(r.hdr[:nb:nb], r.binVals, rbinWidth)
	r.rdoc = headRows(r.hdr[nb:nb+nd:nb+nd], r.rdocVals, rdocWidth)
	r.root = headRows(r.hdr[nb+nd:n:n], r.rootVals, rrootWidth)
	r.binByNode2.build(r.bin, rbinNode2)
	r.rootByNode.build(r.root, rrootNode)
}

// empty readies the record's storage for another document: no row. Storage
// grown past recKeep values is dropped instead.
func (r *docRec) empty() {
	if r.storage() > recKeep {
		*r = docRec{}
		return
	}
	r.bin, r.rdoc, r.root = nil, nil, nil
	r.binVals, r.rdocVals, r.rootVals = r.binVals[:0], r.rdocVals[:0], r.rootVals[:0]
}

// carve gives a record that has no storage room for n[0], n[1] and n[2]
// values of Rbin, Rdoc and Rroot, carved from one allocation; a relation that
// outgrows its part grows alone.
func (r *docRec) carve(n [3]int) {
	total := n[0] + n[1] + n[2]
	if total == 0 || total > recKeep {
		return
	}
	buf := make([]int64, total)
	r.binVals = buf[:0:n[0]]
	r.rdocVals = buf[n[0] : n[0] : n[0]+n[1]]
	r.rootVals = buf[n[0]+n[1] : n[0]+n[1] : total]
}

// storage is the record's row storage, in values.
func (r *docRec) storage() int { return cap(r.binVals) + cap(r.rdocVals) + cap(r.rootVals) }

// numRows is the record's row count over the three relations.
func (r *docRec) numRows() int { return len(r.bin) + len(r.rdoc) + len(r.root) }

// expired reports whether the document is out of every window: timestamp
// below cutoffTS and arrival index below cutoffSeq.
func (r *docRec) expired(cutoffTS xmldoc.Timestamp, cutoffSeq int64) bool {
	return r.ts < cutoffTS && r.seq < cutoffSeq
}

// rowRef names one Rdoc row: a record's slot and the row's position in it.
type rowRef struct{ slot, row int32 }

// postList is one join value's Rdoc rows in arrival order: refs[head:] are
// live. Expiry pops the front; a push slides the live part back or grows the
// array only when it is full, so both are amortized O(1). val is the value,
// the state's own copy, and hash its hash (valueSeed), which the dictionary
// probes and refiles by.
type postList struct {
	refs  []rowRef
	head  int
	dirty bool // queued in State.dirty
	val   string
	hash  uint64
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

// Column is one column of a row schema: its name and whether its values are
// symbols (join-value ids, which the state's dictionary hands out) or plain
// integers. A row is a
// pointer-free []int64, and what a number is belongs to its column: whoever
// reads a symbol column asks the schema once (Schema.SymCol).
type Column struct {
	Name string
	Sym  bool
}

// Int declares an integer column.
func Int(name string) Column { return Column{Name: name} }

// Sym declares a symbol column.
func Sym(name string) Column { return Column{Name: name, Sym: true} }

// Schema is an ordered list of columns.
type Schema []Column

// Col returns the position of the named column, or panics: every name passed
// here is a literal in this package's source, so a mismatch is a plan bug
// that no byte of a wire line or a snapshot file can reach.
func (s Schema) Col(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	panic(fmt.Sprintf("core: column %q not in schema %v", name, s))
}

// SymCol is Col for a column read as a symbol: reading a symbol out of a
// non-symbol column is a plan bug, caught here once, where a program is
// compiled or an index is built, and not per value.
func (s Schema) SymCol(name string) int {
	c := s.Col(name)
	if !s[c].Sym {
		panic(fmt.Sprintf("core: column %q of schema %v is not a symbol column", name, s))
	}
	return c
}

// The schemas of the witness relations, the same for the current document
// and the join state. strVal is the only symbol column; the code that reads
// symbols out of it by position (Merge, sharedRvj, prepareViews) resolves
// the position through Schema.SymCol, once.
var (
	rbinSchema  = Schema{Int("var1"), Int("var2"), Int("node1"), Int("node2")}
	rdocSchema  = Schema{Int("node"), Sym("strVal")}
	rrootSchema = Schema{Int("var"), Int("node")}

	rbinNode2  = rbinSchema.Col("node2")
	rdocNode   = rdocSchema.Col("node")
	rdocStrVal = rdocSchema.SymCol("strVal")
	rrootNode  = rrootSchema.Col("node")
)

// NewState returns empty join state.
func NewState() *State {
	return &State{maxTS: math.MinInt64}
}

// Merge folds the current document's witness relations — its sealed record
// — into the join state, implementing Algorithm 2: the timestamp cross
// product of the paper is realized by the record, which the state adopts
// without copying a row. rec receives the storage of the slot it lands on,
// empty, for a later document.
func (s *State) Merge(rec *docRec) {
	id := rec.id
	rec.seq = s.nextSeq
	s.adopt(rec)
	s.pass(id)
}

// pass counts a consumed document, merged or not.
func (s *State) pass(id xmldoc.DocID) {
	s.nextSeq++
	s.maxDoc = max(s.maxDoc, id)
}

// adopt places a sealed record, arrival index set, on a free slot by
// swapping it with the slot's record, and posts its Rdoc rows under their
// string values.
func (s *State) adopt(rec *docRec) {
	var slot int32
	if n := len(s.free); n > 0 {
		slot, s.free = s.free[n-1], s.free[:n-1]
	} else {
		slot = int32(len(s.recs))
		s.recs = append(s.recs, docRec{})
	}
	r := &s.recs[slot]
	*r, *rec = *rec, *r
	r.live = true
	if r.late = r.ts < s.maxTS; r.late {
		s.late++
	} else {
		s.maxTS = r.ts
	}
	for i, row := range r.rdoc {
		s.lists[row[rdocStrVal]].push(rowRef{slot, int32(i)})
	}
	s.rows[0] += len(r.bin)
	s.rows[1] += len(r.rdoc)
	s.rows[2] += len(r.root)
	s.order = append(s.order, slot)
}

// valueSeed seeds the join-value hashes. Stage 1 hashes each value it writes
// (Stage1Result.insertDoc) with no access to the state, so the seed is the
// package's.
var valueSeed = maphash.MakeSeed()

// valueDict indexes the posting lists by join value. It is open addressing
// with linear probing over a pointer-free slot array: 0 is a free slot, any
// other entry is 1 + the id of a list filed there, at or after the slot its
// hash picks. Each list keeps its value and hash, so a probe compares strings
// only when the hashes agree and a doubling refiles the ids without hashing a
// string again. A retired id leaves by backward shift: the entries after it
// in its probe run move up when that shortens their probe, so no tombstone
// lengthens a later probe. The length is a power of two at least twice the
// entry count n.
type valueDict struct {
	slots []int32
	n     int
}

// find returns the slot holding value v, whose hash is h, and its id; for a
// value the dictionary does not hold, the free slot its probe ended on and -1.
func (d *valueDict) find(lists []postList, h uint64, v string) (int, int32) {
	if d.slots == nil {
		d.slots = make([]int32, 16)
	}
	mask := uint64(len(d.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := d.slots[i]
		if e == 0 {
			return int(i), -1
		}
		if l := &lists[e-1]; l.hash == h && l.val == v {
			return int(i), e - 1
		}
	}
}

// file enters id, whose list holds its value and hash, in the free slot find
// returned for that value.
func (d *valueDict) file(lists []postList, slot int, id int32) {
	d.slots[slot] = id + 1
	if d.n++; 2*d.n > len(d.slots) {
		old := d.slots
		d.slots = make([]int32, 2*len(old))
		mask := uint64(len(d.slots) - 1)
		for _, e := range old {
			if e != 0 {
				i := lists[e-1].hash & mask
				for d.slots[i] != 0 {
					i = (i + 1) & mask
				}
				d.slots[i] = e
			}
		}
	}
}

// remove takes id out of the dictionary. Walking the probe run after the
// vacated slot, an entry whose home slot (its hash's) is not between the
// vacated slot and itself would no longer be found, so it moves into the
// vacated slot, which its own slot then becomes; the run ends at a free slot.
func (d *valueDict) remove(lists []postList, id int32) {
	mask := uint64(len(d.slots) - 1)
	i := lists[id].hash & mask
	for d.slots[i] != id+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; d.slots[j] != 0; j = (j + 1) & mask {
		if home := lists[d.slots[j]-1].hash & mask; (j-home)&mask >= (j-i)&mask {
			d.slots[i] = d.slots[j]
			i = j
		}
	}
	d.slots[i] = 0
	d.n--
}

// resolve writes into each of r's Rdoc rows the id of its value, which
// Stage 1 kept as a string and its hash (Stage1Result.vals), once: the
// strings are dropped when resolved, since they may point into the
// document's buffer.
func (s *State) resolve(r *Stage1Result) {
	for i, v := range r.vals {
		r.rec.rdocVals[i*rdocWidth+rdocStrVal] = int64(s.valueID(v.s, v.hash))
	}
	clear(r.vals)
	r.vals = r.vals[:0]
}

// valueID returns the id of join value v, whose hash is h. A value the state
// does not hold is copied into a new, empty posting list, which the caller
// fills before the state is read again: Consume's Merge, or a restore's.
func (s *State) valueID(v string, h uint64) int32 {
	slot, id := s.values.find(s.lists, h, v)
	if id >= 0 {
		return id
	}
	if n := len(s.freeLists); n > 0 {
		id, s.freeLists = s.freeLists[n-1], s.freeLists[:n-1]
	} else {
		id = int32(len(s.lists))
		s.lists = append(s.lists, postList{})
	}
	l := &s.lists[id]
	l.val, l.hash = strings.Clone(v), h
	s.values.file(s.lists, slot, id)
	return id
}

// value returns the join value of id.
func (s *State) value(id int32) string { return s.lists[id].val }

// postings returns the live Rdoc rows carrying the join value id, in
// arrival order: none for a value resolved for the current document that no
// earlier document carries.
func (s *State) postings(id int32) []rowRef { return s.lists[id].live() }

// retire empties the posting list of id and frees the value: it leaves the
// dictionary, and the id and the list go to the next new value.
func (s *State) retire(id int32) {
	s.values.remove(s.lists, id)
	l := &s.lists[id]
	l.refs, l.head, l.dirty, l.val = l.refs[:0], 0, false, ""
	if cap(l.refs) > recKeep {
		l.refs = nil
	}
	s.freeLists = append(s.freeLists, id)
}

// HasValue reports whether any previous document produced a value-join node
// with the join value id — the semi-join of Algorithm 4, line 2, served from
// the posting lists.
func (s *State) HasValue(id int32) bool { return len(s.lists[id].live()) > 0 }

// NumValues returns the number of join values the state holds.
func (s *State) NumValues() int { return s.values.n }

// appendRL appends to vals the rows of E_{L,s} = σ_{strVal=s}(Rdoc)
// ⋈_{node=node2} Rbin, the part of the left view RL (Section 5) whose rows
// carry the join value s (id), and returns the extended buffer: rlSchema
// rows, one after another, read off the posting list of s — which names each
// row's slot — and each record's Rbin index by node2.
func (s *State) appendRL(vals []int64, id int32) []int64 {
	for _, ref := range s.postings(id) {
		r := &s.recs[ref.slot]
		for _, bi := range r.binByNode2.get(r.rdoc[ref.row][rdocNode]) {
			vals = append(append(append(vals, int64(ref.slot)), r.bin[bi]...), int64(id))
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
			s.unpost(int32(row[rdocStrVal]), rowRef{slot, int32(i)})
		}
		dropped += r.numRows()
		s.rows[0] -= len(r.bin)
		s.rows[1] -= len(r.rdoc)
		s.rows[2] -= len(r.root)
		if r.late {
			s.late--
		}
		r.empty()
		s.free = append(s.free, slot)
	}
	for _, id := range s.dirty {
		l := &s.lists[id]
		kept := l.refs[:l.head]
		for _, ref := range l.live() {
			if s.recs[ref.slot].live {
				kept = append(kept, ref)
			}
		}
		l.refs, l.dirty = kept, false
		if len(l.live()) == 0 {
			s.retire(id)
		}
	}
	s.dirty = s.dirty[:0]
	return gone, dropped
}

// unpost removes an expired Rdoc row from its value's posting list: off the
// front when it is there, else by queueing the list for GC's filter pass. A
// list it empties retires its value.
func (s *State) unpost(id int32, ref rowRef) {
	l := &s.lists[id]
	if l.live()[0] != ref {
		if !l.dirty {
			l.dirty = true
			s.dirty = append(s.dirty, id)
		}
		return
	}
	if l.head++; l.head == len(l.refs) && !l.dirty {
		s.retire(id)
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
