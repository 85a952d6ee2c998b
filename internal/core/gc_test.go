package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/relation"
	"repro/internal/sym"
	"repro/internal/xmldoc"
	"repro/internal/xscl"
)

// mergeDoc merges a minimal document with one value-join string into the
// state (timestamp == arrival order unless overridden).
func mergeDoc(s *State, id int64, ts int64, str string) {
	b := xmldoc.NewBuilder(xmldoc.DocID(id), xmldoc.Timestamp(ts), "item")
	b.Element(0, "a", str)
	d := b.Build()
	w := NewCurrentWitness(d)
	w.AddBin(1, 2, 0, 1)
	w.AddDoc(1, str)
	s.Merge(w, false)
}

// TestShouldGCExpiredPrefix pins the prefix semantics of the per-publish GC
// check: the scan stops at the first live document, the half-expired rule
// and the gcBatchMin fast path both hold, and no expired documents means no
// GC.
func TestShouldGCExpiredPrefix(t *testing.T) {
	noSeq := int64(math.MaxInt64)
	s := NewState()
	for i := int64(1); i <= 10; i++ {
		mergeDoc(s, i, i, fmt.Sprintf("s%d", i))
	}
	if s.shouldGC(1, noSeq) {
		t.Error("shouldGC with nothing expired")
	}
	if s.shouldGC(5, noSeq) {
		t.Error("shouldGC with 4/10 expired (below half, below batch)")
	}
	if !s.shouldGC(6, noSeq) {
		t.Error("!shouldGC with 5/10 expired (half the state)")
	}
	// A long stream: gcBatchMin expired documents suffice even when they
	// are a small fraction of the state.
	big := NewState()
	for i := int64(1); i <= 1000; i++ {
		mergeDoc(big, i, i, fmt.Sprintf("s%d", i))
	}
	if big.shouldGC(xmldoc.Timestamp(gcBatchMin), noSeq) {
		t.Errorf("shouldGC with %d/1000 expired", gcBatchMin-1)
	}
	if !big.shouldGC(xmldoc.Timestamp(gcBatchMin)+1, noSeq) {
		t.Errorf("!shouldGC with %d/1000 expired", gcBatchMin)
	}
}

// TestShouldGCOutOfOrderTimestamps is the starvation regression test: a
// single early document with a far-future timestamp (clock skew) keeps the
// expired prefix empty forever, but the periodic full scan must still
// trigger GC once enough non-prefix documents have expired — previously the
// trigger starved and expired state accumulated unboundedly.
func TestShouldGCOutOfOrderTimestamps(t *testing.T) {
	noSeq := int64(math.MaxInt64)
	s := NewState()
	mergeDoc(s, 1, 1_000_000, "skew") // prefix head that never expires
	for i := int64(2); i <= 80; i++ {
		mergeDoc(s, i, i, fmt.Sprintf("s%d", i))
	}
	// Cutoff 100 expires docs 2..80 (79 ≥ gcBatchMin) but not the head.
	fired := false
	for call := 0; call < gcFullScanEvery+1; call++ {
		if s.shouldGC(100, noSeq) {
			fired = true
			break
		}
	}
	if !fired {
		t.Fatalf("shouldGC never fired within %d calls with %d non-prefix expired documents",
			gcFullScanEvery+1, 79)
	}
	if got, _ := s.GC(100, noSeq); len(got) != 79 {
		t.Errorf("GC reclaimed %d documents, want 79", len(got))
	}
	if s.NumDocs() != 1 {
		t.Errorf("NumDocs = %d after GC, want 1 (the skewed head)", s.NumDocs())
	}
}

// TestGCOutOfOrderProcessor drives the starvation scenario end-to-end: a
// skewed first document followed by a long normally-timestamped stream must
// not pin the whole stream in the join state — neither its documents nor the
// slots, row storage and posting lists behind them.
func TestGCOutOfOrderProcessor(t *testing.T) {
	p := NewProcessor(Config{ViewMaterialization: true})
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
	// Window 10: all but the head and the last ~10 documents are expired.
	// Without the periodic full scan the state would hold all n documents.
	const maxDocs = 1 + 10 + gcFullScanEvery + gcBatchMin
	s := p.State()
	if got := s.NumDocs(); got > maxDocs {
		t.Errorf("join state holds %d documents after %d publishes (window 10): GC starved", got, n)
	}
	// A document holds one Rbin and one Rdoc row: 8 values.
	storage, postings := 0, 0
	for i := range s.recs {
		storage += cap(s.recs[i].vals)
	}
	for i := range s.lists {
		postings += cap(s.lists[i].refs)
	}
	for _, c := range []struct {
		what     string
		n, bound int
	}{
		{"slots", len(s.recs), maxDocs},
		{"row storage values", storage, 8 * maxDocs},
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
	if got, _ := s.GC(1, noSeq); len(got) != 0 {
		t.Errorf("GC expired %v with cutoff below all docs", got)
	}
	idOf := map[int32]xmldoc.DocID{}
	for _, slot := range s.order {
		idOf[slot] = s.recs[slot].id
	}
	got, dropped := s.GC(4, noSeq)
	var ids []xmldoc.DocID
	for _, slot := range got {
		ids = append(ids, idOf[slot])
	}
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

// TestGCScopedCacheInvalidation is the satellite bugfix check: after a GC,
// only view-cache entries whose slices reference expired documents are
// dropped — the post-GC cache is no longer wiped wholesale.
func TestGCScopedCacheInvalidation(t *testing.T) {
	p := NewProcessor(Config{ViewMaterialization: true})
	// Two leaves per side keep the block roots in the template, so the
	// cached RL slices actually carry Rbin rows (a single-node side would
	// use the Rroot path and cache empty slices).
	p.MustRegister(xscl.MustParse(
		"S//item->x[.//a->v][.//b->u] FOLLOWED BY{v=w AND u=z, 1000} S//item->y[.//a->w][.//b->z]"))

	doc := func(id, ts int64, val string) *xmldoc.Document {
		b := xmldoc.NewBuilder(xmldoc.DocID(id), xmldoc.Timestamp(ts), "item")
		b.Element(0, "a", val+"A")
		b.Element(0, "b", val+"B")
		return b.Build()
	}
	// Old epoch: values "oldA"/"oldB" repeated, so their slices reference
	// only documents that will expire together.
	id, ts := int64(1), int64(0)
	for i := 0; i < gcBatchMin+1; i++ {
		p.Process("S", doc(id, ts, "old"))
		id++
		ts++
	}
	if sl, ok := p.cache.Get(sym.Intern("oldA")); !ok || sl.Len() == 0 {
		t.Fatalf("precondition: no populated cache entry for oldA (ok=%v)", ok)
	}
	// Live documents carrying different strings, far enough ahead that the
	// old epoch falls out of the window on the next publishes.
	ts += 2000
	for i := 0; i < 4; i++ {
		p.Process("S", doc(id, ts, "new"))
		id++
		ts++
	}
	if n := p.cache.Len(); n == 0 {
		t.Fatalf("no cache entries after the fresh epoch (GC wiped the cache wholesale?)")
	}
	if _, ok := p.cache.Get(sym.Intern("newA")); !ok {
		t.Errorf("live entry %q invalidated by GC of unrelated documents", "newA")
	}
	if _, ok := p.cache.Get(sym.Intern("oldA")); ok {
		t.Errorf("stale entry %q survived GC", "oldA")
	}
	if p.Stats().ViewCacheInvalidations == 0 {
		t.Errorf("no invalidations accounted after GC")
	}
}

// TestViewCacheInvalidateDocs unit-tests the scoped invalidation: entries
// referencing an expired doc are dropped and accounted, as are empty entries
// (no expiry could ever reach them); entries referencing live docs survive.
func TestViewCacheInvalidateDocs(t *testing.T) {
	var st Stats
	c := NewViewCache(&st)
	slice := func(docids ...int64) *relation.Relation {
		r := relation.New(rlSchema...)
		for _, d := range docids {
			r.Insert(d, 1, 2, 0, 1, int64(sym.Intern("s")))
		}
		return r
	}
	c.Put(sym.Intern("stale"), slice(1, 2))
	c.Put(sym.Intern("live"), slice(3))
	c.Put(sym.Intern("empty"), slice())
	c.InvalidateDocs([]int32{2})
	if _, ok := c.Get(sym.Intern("stale")); ok {
		t.Error("entry referencing expired doc 2 survived")
	}
	if _, ok := c.Get(sym.Intern("live")); !ok {
		t.Error("entry referencing only live docs dropped")
	}
	if _, ok := c.Get(sym.Intern("empty")); ok {
		t.Error("empty slice survived: nothing else would ever reclaim it")
	}
	if got := st.ViewCacheInvalidations; got != 2 {
		t.Errorf("ViewCacheInvalidations = %d, want 2", got)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

// TestViewCacheClearAccountsDrop checks Clear records the dropped entries in
// the invalidation stats instead of silently zeroing the population.
func TestViewCacheClearAccountsDrop(t *testing.T) {
	var st Stats
	c := NewViewCache(&st)
	for i := 0; i < 5; i++ {
		c.Put(sym.Intern(fmt.Sprintf("s%d", i)), relation.New(relation.Int("docid")))
	}
	c.Clear()
	if got := st.ViewCacheInvalidations; got != 5 {
		t.Errorf("ViewCacheInvalidations after Clear = %d, want 5", got)
	}
	if c.Len() != 0 {
		t.Errorf("Len after Clear = %d", c.Len())
	}
}

// TestWindowGCStats checks expiry's counted work as Stats reports it: on a
// windowed stream in timestamp order every collection drops exactly the rows
// of the documents that left the state — so the rows dropped are the rows
// merged minus the rows live — and the state gauges are the state's sizes,
// also after ResetStats, which zeroes the counters only.
func TestWindowGCStats(t *testing.T) {
	p := NewProcessor(Config{ViewMaterialization: true})
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
		rowsOf[r.doc.ID] = int64(r.w.RbinW.Len() + r.w.RdocW.Len() + r.w.RrootW.Len())
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

// TestCurrentWitnessReuse pins the witness pool's contract from both sides: a
// released witness comes back empty — relations, dedup sets, document — and
// what Merge took from the document before it is the state's own, untouched
// while the next document's rows overwrite the slab they were carved from.
func TestCurrentWitnessReuse(t *testing.T) {
	s := NewState()
	build := func(id int64, str string, v int64) *CurrentWitness {
		b := xmldoc.NewBuilder(xmldoc.DocID(id), xmldoc.Timestamp(id), "item")
		b.Element(0, "a", str)
		w := NewCurrentWitness(b.Build())
		stamped := 0
		for _, e := range w.nodes {
			if e.gen == w.gen {
				stamped++
			}
		}
		if n := w.RbinW.Len() + w.RdocW.Len() + w.RrootW.Len() + stamped + len(w.binNext) + len(w.rootNext); n != 0 || w.rrSlices != nil {
			t.Fatalf("document %d: a new witness holds %d rows and node entries", id, n)
		}
		for i := 0; i < 2; i++ { // the second round is deduplicated
			w.AddBin(v, v+1, 0, 1)
			w.AddDoc(1, str)
			w.AddRoot(v, 0)
		}
		if w.RbinW.Len() != 1 || w.RdocW.Len() != 1 || w.RrootW.Len() != 1 {
			t.Fatalf("document %d: witness rows %d/%d/%d, want 1/1/1", id, w.RbinW.Len(), w.RdocW.Len(), w.RrootW.Len())
		}
		return w
	}
	for id := int64(1); id <= 3; id++ {
		w := build(id, fmt.Sprintf("value-%d", id), 10*id)
		s.Merge(w, false)
		w.Release()
		if w.Doc != nil {
			t.Errorf("document %d: a released witness still holds its document", id)
		}
	}
	rbin, rdoc, rroot := stateRelations(s)
	for i := 0; i < 3; i++ {
		id, v := int64(i+1), int64(10*(i+1))
		bin, doc, root := rbin.Rows[i], rdoc.Rows[i], rroot.Rows[i]
		if s.recs[bin[0]].id != xmldoc.DocID(id) || bin[1] != v || bin[2] != v+1 || bin[4] != 1 {
			t.Errorf("Rbin row %d = %v after later documents reused the slab", i, bin)
		}
		if s.recs[doc[0]].id != xmldoc.DocID(id) || sym.ID(doc[2]) != sym.Intern(fmt.Sprintf("value-%d", id)) {
			t.Errorf("Rdoc row %d = %v after later documents reused the slab", i, doc)
		}
		if s.recs[root[0]].id != xmldoc.DocID(id) || root[1] != v {
			t.Errorf("Rroot row %d = %v after later documents reused the slab", i, root)
		}
	}
}
