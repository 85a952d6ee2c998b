package core

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/sequential"
	"repro/internal/xmldoc"
	"repro/internal/xscl"
)

// mergeDoc merges a minimal document with one value-join string into the
// state (timestamp == arrival order unless overridden).
func mergeDoc(s *State, id int64, ts int64, str string) {
	b := xmldoc.NewBuilder(xmldoc.DocID(id), xmldoc.Timestamp(ts), "item")
	b.Element(0, "a", str)
	r := buildRec(b.Build(), func(r *Stage1Result) {
		addBin(r, 1, 2, 0, 1)
		r.AddDoc(1)
	})
	s.resolve(r)
	s.Merge(&r.rec)
	stage1Pool.Put(r)
}

// TestGCOutOfOrderTimestamps pins expiry that is not a prefix: a single
// early document with a far-future timestamp (clock skew) heads the arrival
// order and never expires, and one collection still removes every expired
// document behind it.
func TestGCOutOfOrderTimestamps(t *testing.T) {
	noSeq := int64(math.MaxInt64)
	s := NewState()
	mergeDoc(s, 1, 1_000_000, "skew") // prefix head that never expires
	for i := int64(2); i <= 80; i++ {
		mergeDoc(s, i, i, fmt.Sprintf("s%d", i))
	}
	// Cutoff 100 expires docs 2..80 but not the head.
	if got, _ := s.GC(100, noSeq, nil); len(got) != 79 {
		t.Errorf("GC reclaimed %d documents, want 79", len(got))
	}
	if s.NumDocs() != 1 {
		t.Errorf("NumDocs = %d after GC, want 1 (the skewed head)", s.NumDocs())
	}
	checkState(t, s)
}

// emptyStage1Pool drops the results earlier tests left in stage1Pool. A
// result carries the record storage of the last document it served, so a
// bound on the storage the state keeps holds for the test's own documents
// only once the pool is empty; two collections empty a sync.Pool.
func emptyStage1Pool() {
	runtime.GC()
	runtime.GC()
}

// TestGCOutOfOrderProcessor drives clock skew end-to-end: a skewed first
// document followed by a long normally-timestamped stream must not pin the
// stream in the join state — neither its documents nor the slots, row
// storage and posting lists behind them. Each publish tests every live
// record while the head is live, and drops what left the window.
func TestGCOutOfOrderProcessor(t *testing.T) {
	emptyStage1Pool()
	p := NewProcessor(Config{})
	p.MustRegister(xscl.MustParse(
		"S//a->r1[.//x->v] JOIN{v=w, 10} S//b->r2[.//y->w]"))
	doc := func(id, ts int64) *xmldoc.Document {
		b := xmldoc.NewBuilder(xmldoc.DocID(id), xmldoc.Timestamp(ts), "a")
		b.Element(0, "x", fmt.Sprintf("k%d", id%7))
		return b.Build()
	}
	p.Process("S", doc(1, 1_000_000)) // clock-skewed head
	const n = 300
	for i := int64(2); i <= n; i++ {
		p.Process("S", doc(i, i))
	}
	// Window 10: every publish expires all but the head and the last 11
	// documents (timestamps within 10 of the newest).
	const maxDocs = 1 + 11
	s := p.State()
	if got := s.NumDocs(); got > maxDocs {
		t.Errorf("join state holds %d documents after %d publishes (window 10): expired documents kept", got, n)
	}
	// A document holds one Rbin and one Rdoc row: 6 values. A merge takes a
	// slot before the collection frees one.
	storage, postings := 0, 0
	for i := range s.recs {
		storage += s.recs[i].storage()
	}
	for i := range s.lists {
		postings += cap(s.lists[i].refs)
	}
	for _, c := range []struct {
		what     string
		n, bound int
	}{
		{"slots", len(s.recs), maxDocs + 1},
		{"row storage values", storage, 6 * (maxDocs + 1)},
		{"posting lists", len(s.lists), 7},
		{"posting capacity", postings, 2 * maxDocs},
		{"arrival order capacity", cap(s.order), 2 * maxDocs},
	} {
		if c.n > c.bound {
			t.Errorf("%d %s behind the clock-skewed head, want <= %d", c.n, c.what, c.bound)
		}
	}
	checkState(t, s)
}

// TestGCReturnsExpiredSet checks GC's return value: exactly the reclaimed
// documents, empty when nothing expires.
func TestGCReturnsExpiredSet(t *testing.T) {
	noSeq := int64(math.MaxInt64)
	s := NewState()
	for i := int64(1); i <= 6; i++ {
		mergeDoc(s, i, i, fmt.Sprintf("s%d", i))
	}
	if got, _ := s.GC(1, noSeq, nil); len(got) != 0 {
		t.Errorf("GC expired %v with cutoff below all docs", got)
	}
	ids, dropped := s.GC(4, noSeq, nil)
	if want := []xmldoc.DocID{1, 2, 3}; !slices.Equal(ids, want) {
		t.Fatalf("GC expired documents %v, want %v", ids, want)
	}
	if dropped != 6 {
		t.Errorf("GC dropped %d rows, want 6 (one Rbin and one Rdoc row per document)", dropped)
	}
	if s.NumDocs() != 3 {
		t.Errorf("NumDocs = %d, want 3", s.NumDocs())
	}
}

// TestSlotReuseMatchesSequential streams two epochs whose strings differ:
// the first falls out of the window, its slots are freed and reused by the
// second, and the first epoch's strings come back after they expired. The
// pairs are built from the join state for every document, so a row of a
// freed slot, or of a later document on it, is never read as the expired
// document's: each document's matches must equal the Sequential baseline's.
func TestSlotReuseMatchesSequential(t *testing.T) {
	// Two leaves per side keep the block roots in the template, so the
	// pairs' ends are Rbin rows (a single-node side's are Rroot rows).
	q := xscl.MustParse("S//item->x[.//a->v][.//b->u] FOLLOWED BY{v=w AND u=z, 1000} S//item->y[.//a->w][.//b->z]")
	p := NewProcessor(Config{})
	p.MustRegister(q)
	sp := sequential.NewProcessor()
	sp.MustRegister(q)

	doc := func(id, ts int64, val string) *xmldoc.Document {
		b := xmldoc.NewBuilder(xmldoc.DocID(id), xmldoc.Timestamp(ts), "item")
		b.Element(0, "a", val+"A")
		b.Element(0, "b", val+"B")
		return b.Build()
	}
	id, ts, matched := int64(1), int64(0), 0
	publish := func(val string) {
		t.Helper()
		d := doc(id, ts, val)
		got, want := matchSet(p.Process("S", d)), seqMatchSet(sp.Process("S", d))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("document %d (%s): matches %v, Sequential %v", id, val, keys(got), keys(want))
		}
		matched += len(got)
		id++
		ts++
	}
	for i := 0; i < 33; i++ {
		publish("old")
	}
	slots := len(p.state.recs)
	// Far enough ahead that the first epoch leaves on the next publishes.
	ts += 2000
	for i := 0; i < 4; i++ {
		publish("new")
	}
	if p.Stats().WindowGCs == 0 || len(p.state.recs) > slots+1 {
		t.Fatalf("%d collections, %d slots after %d: the second epoch did not reuse the first's slots",
			p.Stats().WindowGCs, len(p.state.recs), slots)
	}
	for i := 0; i < 4; i++ {
		publish("old")
		publish("new")
	}
	if matched == 0 {
		t.Fatal("no matches: the stream did not exercise Stage 2")
	}
}

// TestWindowGCStats checks expiry's counted work as Stats reports it: on a
// windowed stream in timestamp order every collection drops exactly the rows
// of the documents that left the state — so the rows dropped are the rows
// merged minus the rows live — and the state gauges are the state's sizes,
// also after ResetStats, which zeroes the counters only.
func TestWindowGCStats(t *testing.T) {
	p := NewProcessor(Config{})
	p.MustRegister(xscl.MustParse("S//item->x[.//a->v][.//b->u] FOLLOWED BY{v=w AND u=z, 25} S//item->y[.//a->w][.//b->z]"))
	p.MustRegister(xscl.MustParse("S//a->v FOLLOWED BY{v=w, ROWS 10} S//b->w"))
	live := func(s Stats) int64 { return s.StateRbinRows + s.StateRdocRows + s.StateRrootRows }
	liveDocs := func() map[xmldoc.DocID]bool {
		ids := map[xmldoc.DocID]bool{}
		for _, slot := range p.state.order {
			ids[p.state.recs[slot].id] = true
		}
		return ids
	}
	var merged int64
	rowsOf := map[xmldoc.DocID]int64{}
	prev := p.Stats()
	for i := 1; i <= 400; i++ {
		b := xmldoc.NewBuilder(xmldoc.DocID(i), xmldoc.Timestamp(i), "item")
		b.Element(0, "a", fmt.Sprintf("k%d", i%7))
		b.Element(0, "b", fmt.Sprintf("k%d", i%5))
		r := p.RunStage1("S", b.Build())
		rowsOf[r.doc.ID] = int64(r.rec.numRows())
		merged += rowsOf[r.doc.ID]
		before := liveDocs()
		p.Consume(r)
		st := p.Stats()
		if gcs := st.WindowGCs - prev.WindowGCs; gcs > 1 {
			t.Fatalf("document %d: %d collections", i, gcs)
		}
		after, left := liveDocs(), int64(0)
		for id := range before {
			if !after[id] {
				left += rowsOf[id]
			}
		}
		if dropped := st.GCRowsDropped - prev.GCRowsDropped; dropped != left {
			t.Fatalf("document %d: a collection dropped %d rows, the documents that left held %d", i, dropped, left)
		}
		if st.GCRowsDropped != merged-live(st) {
			t.Fatalf("document %d: %d rows dropped, want %d merged - %d live", i, st.GCRowsDropped, merged, live(st))
		}
		if p.state.late != 0 {
			t.Fatalf("document %d: %d late documents in a stream in timestamp order", i, p.state.late)
		}
		prev = st
	}
	s := p.state
	if prev.WindowGCs < 5 {
		t.Errorf("%d collections: the stream did not exercise expiry", prev.WindowGCs)
	}
	bin, doc, root := s.Rows()
	if prev.StateDocs != int64(s.NumDocs()) || prev.StateRbinRows != int64(bin) ||
		prev.StateRdocRows != int64(doc) || prev.StateRrootRows != int64(root) ||
		bin == 0 || root == 0 {
		t.Errorf("gauges %+v do not describe the state (%d docs, %d/%d/%d rows)",
			prev, s.NumDocs(), bin, doc, root)
	}
	p.ResetStats()
	if st := p.Stats(); st.WindowGCs != 0 || st.GCRowsDropped != 0 || st.StateDocs != prev.StateDocs || live(st) != live(prev) {
		t.Errorf("after ResetStats: %+v", st)
	}
}

// TestRecordStorageReuse pins the contract of recycled record storage — the
// storage Merge swaps out of a freed slot for the document's record, which
// the result carries to a later document's Stage 1. A result readied for a
// document shows no row and no stamped node entry, whatever its storage held;
// the rows the state adopted from earlier documents stay intact while later
// documents write into storage that expired ones used; a burst document's
// record and node stamps, past the floor, survive fewer than retainDocs calm
// documents and are gone after 2·retainDocs; and a steady run of documents
// that large keeps them: each finds its storage readied.
func TestRecordStorageReuse(t *testing.T) {
	s := NewState()
	r := new(Stage1Result)
	var readied int // the record storage the last document was readied with
	// merge publishes document id with rows+1 Rbin rows, and with the nodes
	// 1 and, for rows > 1, rows stamped.
	merge := func(id int64, rows int) {
		t.Helper()
		b := xmldoc.NewBuilder(xmldoc.DocID(id), xmldoc.Timestamp(id), "item")
		b.Element(0, "a", fmt.Sprintf("value-%d", id))
		for i := 1; i < rows; i++ {
			b.Element(0, "a", "")
		}
		r.reset(b.Build())
		readied = r.rec.storage()
		stamped := 0
		for _, e := range r.nodes {
			if e == r.gen {
				stamped++
			}
		}
		if n := len(r.rec.binVals) + len(r.rec.rdocVals) + r.rec.roots + stamped + len(r.vals); n != 0 {
			t.Fatalf("document %d: a readied result holds %d values, rows and node entries", id, n)
		}
		v := 10 * id
		addBin(r, v, v+1, 0, 1)
		addRoot(r, v, 0)
		for i := 0; i < 2; i++ { // the second is deduplicated
			r.AddDoc(1)
		}
		for i := 1; i < rows; i++ {
			addBin(r, v, v+1, xmldoc.NodeID(i), xmldoc.NodeID(i+1))
		}
		docs := 1
		if rows > 1 {
			r.AddDoc(xmldoc.NodeID(rows))
			docs++
		}
		r.seal()
		if r.rec.numBin() != rows+1 || r.rec.numDoc() != docs || r.rec.roots != 1 {
			t.Fatalf("document %d: rows %d/%d, %d parentless, want %d/%d, 1", id, r.rec.numBin(), r.rec.numDoc(), r.rec.roots, rows+1, docs)
		}
		s.resolve(r)
		s.Merge(&r.rec)
		checkState(t, s)
		for _, slot := range s.order {
			rec := &s.recs[slot]
			v := 10 * int64(rec.id)
			if bin := rec.binRow(0); bin[0] != v || bin[1] != v+1 || bin[3] != 1 {
				t.Errorf("document %d: Rbin row %v after document %d", rec.id, bin, id)
			}
			if doc := rec.docRow(0); doc[0] != 1 || s.value(int32(doc[1])) != fmt.Sprintf("value-%d", rec.id) {
				t.Errorf("document %d: Rdoc row %v after document %d", rec.id, doc, id)
			}
			if root := rec.binRow(1); !slices.Equal(root, []int64{noParent, v, noParent, 0}) {
				t.Errorf("document %d: parentless Rbin row %v after document %d", rec.id, root, id)
			}
		}
	}
	noSeq := int64(math.MaxInt64)
	// One result serves every document. The first three take new slots and
	// bring back their empty records.
	for id := int64(1); id <= 3; id++ {
		merge(id, 1)
		if r.rec.storage() != 0 {
			t.Fatalf("document %d took a new slot, but %d values came back", id, r.rec.storage())
		}
	}
	// Documents 1 and 2 expire; 4 and 5 take their slots and bring back
	// their storage, which 5 and 6 write their rows into.
	if gone, _ := s.GC(3, noSeq, nil); !slices.Equal(gone, []xmldoc.DocID{1, 2}) {
		t.Fatalf("GC expired %v, want documents 1 and 2", gone)
	}
	for id := int64(4); id <= 6; id++ {
		merge(id, 1)
		if recycled := r.rec.storage() > 0; recycled != (id < 6) {
			t.Fatalf("document %d: %d values came back from its slot", id, r.rec.storage())
		}
	}
	// From here each document expires the ones before it, so its record's
	// storage comes back to the result with the next. publish returns the
	// rows expired.
	id := int64(6)
	publish := func(rows int) int {
		t.Helper()
		id++
		merge(id, rows)
		_, dropped := s.GC(xmldoc.Timestamp(id), noSeq, nil)
		return dropped
	}
	// held is the largest record storage or record index, the result's or a
	// slot's, and the node stamps' capacity.
	held := func() (rec, nodes int) {
		for _, rec2 := range append([]docRec{r.rec}, s.recs...) {
			rec = max(rec, rec2.storage(), cap(rec2.binByNode2.rows))
		}
		return rec, cap(r.nodes)
	}
	burst := retainFloor + 1
	if dropped := publish(burst); dropped != 4*3 {
		t.Fatalf("GC dropped %d rows of documents 3 to 6", dropped)
	}
	if dropped := publish(1); dropped != burst+3 {
		t.Fatalf("GC dropped %d rows of the burst document", dropped)
	}
	for range retainDocs - 2 {
		publish(1)
	}
	if rec, nodes := held(); rec <= retainFloor || nodes <= retainFloor {
		t.Errorf("%d calm documents after a burst: %d record values and %d node entries kept, want the burst's", retainDocs-1, rec, nodes)
	}
	for range retainDocs + 1 {
		publish(1)
	}
	if rec, nodes := held(); rec > retainFloor || nodes > retainFloor {
		t.Errorf("%d calm documents after a burst: %d record values and %d node entries kept", 2*retainDocs, rec, nodes)
	}
	// Two slots take turns, so from the fourth document on each is readied
	// with storage an earlier one grew.
	for i := range 2*retainDocs + 2 {
		publish(burst)
		if i >= 3 && readied < rbinWidth*(burst+1) {
			t.Fatalf("document %d of a steady large run was readied with %d values", i, readied)
		}
	}
	if _, nodes := held(); nodes <= retainFloor {
		t.Errorf("after a steady large run: %d node entries kept", nodes)
	}
}

// TestMergeAdoptsStage1Rows pins that the join state keeps the rows Stage 1
// wrote, not a copy of them: after Consume, the document's record in the
// state holds every row, of Rbin with a parent and without and of Rdoc, in
// the memory RunStage1
// filled. The stream's window expires documents, so later documents write
// into storage that freed slots handed back.
func TestMergeAdoptsStage1Rows(t *testing.T) {
	p := NewProcessor(Config{})
	p.MustRegister(xscl.MustParse("S//item->x[.//a->v][.//b->u] FOLLOWED BY{v=w AND u=z, 5} S//item->y[.//a->w][.//b->z]"))
	p.MustRegister(xscl.MustParse("S//a->v FOLLOWED BY{v=w, 5} S//b->w"))
	for id := int64(1); id <= 60; id++ {
		b := xmldoc.NewBuilder(xmldoc.DocID(id), xmldoc.Timestamp(id), "item")
		b.Element(0, "a", fmt.Sprintf("k%d", id%3))
		b.Element(0, "b", fmt.Sprintf("k%d", id%4))
		r := p.RunStage1("S", b.Build())
		wrote := slices.Concat(binRows(&r.rec), docRows(&r.rec))
		if bin := r.rec.numBin(); bin == r.rec.roots || r.rec.numDoc() == 0 || r.rec.roots == 0 {
			t.Fatalf("test premise: document %d writes rows of every kind, got %d/%d, %d parentless", id, bin, r.rec.numDoc(), r.rec.roots)
		}
		p.Consume(r)
		var kept [][]int64
		for _, slot := range p.state.order {
			if rec := &p.state.recs[slot]; rec.id == xmldoc.DocID(id) {
				kept = slices.Concat(binRows(rec), docRows(rec))
			}
		}
		if len(kept) != len(wrote) {
			t.Fatalf("document %d: the state holds %d rows, Stage 1 wrote %d", id, len(kept), len(wrote))
		}
		for i := range kept {
			if &kept[i][0] != &wrote[i][0] || !slices.Equal(kept[i], wrote[i]) {
				t.Fatalf("document %d: state row %d %v is not the row Stage 1 wrote", id, i, kept[i])
			}
		}
	}
	if p.Stats().WindowGCs == 0 {
		t.Fatal("test premise: the window expires documents")
	}
}
