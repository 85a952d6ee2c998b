package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"repro/internal/workload"
	"repro/internal/xmldoc"
	"repro/internal/xscl"
)

// stateRelations materializes the join state as the three relations it
// stands for, documents in arrival order and each document's rows in merge
// order, each row behind its record's slot (column 0), which the paper's
// relations carry as the document's timestamp.
func stateRelations(s *State) (rbin, rdoc, rroot *Relation) {
	slotted := func(schema Schema) *Relation {
		return newRelation(append(Schema{Int("slot")}, schema...)...)
	}
	rbin, rdoc, rroot = slotted(rbinSchema), slotted(rdocSchema), slotted(rrootSchema)
	for _, slot := range s.order {
		r := &s.recs[slot]
		for _, rel := range []struct {
			to   *Relation
			rows [][]int64
		}{{rbin, r.bin}, {rdoc, r.rdoc}, {rroot, r.root}} {
			for _, row := range rel.rows {
				rel.to.Insert(append([]int64{int64(slot)}, row...)...)
			}
		}
	}
	return rbin, rdoc, rroot
}

// currentRelations is the current document's record as the witness
// relations RbinW, RdocW and RrootW.
func currentRelations(r *docRec) (rbinW, rdocW, rrootW *Relation) {
	return &Relation{Schema: rbinSchema, Rows: r.bin},
		&Relation{Schema: rdocSchema, Rows: r.rdoc},
		&Relation{Schema: rrootSchema, Rows: r.root}
}

// buildRec runs fill on a Stage-1 result for d, the builder RunStage1 fills,
// and seals the result's record.
func buildRec(d *xmldoc.Document, fill func(r *Stage1Result)) *Stage1Result {
	r := newStage1(d)
	fill(r)
	r.seal()
	return r
}

// stateDump describes everything the state keeps per document — window
// bookkeeping, rows, the record's indexes — and every posting list, with
// slots replaced by document ids and value ids by the values, so two states
// holding the same documents on different slots, or numbering their values
// in a different order, compare equal. Whether a document is late is left out:
// it depends on documents that already left (see State.maxTS) and only picks
// how GC finds the expired ones.
func stateDump(s *State) map[string]any {
	id := func(slot int64) int64 { return int64(s.recs[slot].id) }
	type docDump struct {
		ID, TS, Seq     int64
		Bin, Rdoc, Root [][]int64
		// Values holds the Rdoc rows' values, whose strVal column reads 0.
		Values []string
		// ByNode2 and ByNode list, per row, the rows the record's index
		// returns for the row's key.
		ByNode2, ByNode [][]int32
	}
	rows := func(rows [][]int64) [][]int64 {
		out := [][]int64{}
		for _, row := range rows {
			out = append(out, slices.Clone(row))
		}
		return out
	}
	index := func(x *rowIndex, rows [][]int64, col int) [][]int32 {
		out := [][]int32{}
		for _, row := range rows {
			out = append(out, x.get(row[col]))
		}
		return out
	}
	docs := []docDump{}
	for _, slot := range s.order {
		r := &s.recs[slot]
		docs = append(docs, docDump{
			ID: int64(r.id), TS: int64(r.ts), Seq: r.seq,
			Bin: rows(r.bin), Rdoc: rows(r.rdoc), Root: rows(r.root),
			ByNode2: index(&r.binByNode2, r.bin, rbinNode2), ByNode: index(&r.rootByNode, r.root, rrootNode),
		})
	}
	// Value ids follow the order the state filed its values in, so a row's
	// value and a posting list are keyed by the string.
	for i := range docs {
		for _, row := range docs[i].Rdoc {
			row[rdocStrVal] = 0
		}
		docs[i].Values = []string{}
		for _, row := range s.recs[s.order[i]].rdoc {
			docs[i].Values = append(docs[i].Values, s.value(int32(row[rdocStrVal])))
		}
	}
	postings := map[string][][2]int64{}
	for v := range s.lists {
		l := &s.lists[v]
		for _, ref := range l.live() {
			postings[l.val] = append(postings[l.val], [2]int64{id(int64(ref.slot)), int64(ref.row)})
		}
	}
	return map[string]any{"docs": docs, "postings": postings, "nextSeq": s.nextSeq, "maxDoc": s.maxDoc}
}

// checkState asserts the invariants tying the state's parts together: the
// slots are live or free, the posting lists hold exactly the live Rdoc rows
// in arrival order, the row and late counters count what they say, and with
// no late document the live ones are in timestamp order.
func checkState(t testing.TB, s *State) {
	t.Helper()
	if len(s.order)+len(s.free) != len(s.recs) {
		t.Fatalf("%d live and %d free slots in a table of %d", len(s.order), len(s.free), len(s.recs))
	}
	for _, slot := range s.free {
		if r := &s.recs[slot]; r.live || r.bin != nil || r.rdoc != nil || r.root != nil {
			t.Fatalf("free slot %d still holds a document", slot)
		}
	}
	var rows [3]int
	late := 0
	want := map[int32][]rowRef{}
	prev := (*docRec)(nil)
	for _, slot := range s.order {
		r := &s.recs[slot]
		if !r.live {
			t.Fatalf("slot %d of the arrival order is not live", slot)
		}
		if prev != nil && r.seq <= prev.seq {
			t.Fatalf("arrival order: seq %d after %d", r.seq, prev.seq)
		}
		if r.late {
			late++
		}
		rows[0], rows[1], rows[2] = rows[0]+len(r.bin), rows[1]+len(r.rdoc), rows[2]+len(r.root)
		for i, row := range r.rdoc {
			id := int32(row[rdocStrVal])
			want[id] = append(want[id], rowRef{slot, int32(i)})
		}
		prev = r
	}
	if late != s.late || rows != s.rows {
		t.Fatalf("counters: late %d rows %v, the records hold %d and %v", s.late, s.rows, late, rows)
	}
	if late == 0 {
		for i := 1; i < len(s.order); i++ {
			if a, b := s.recs[s.order[i-1]].ts, s.recs[s.order[i]].ts; b < a {
				t.Fatalf("no document is late, but timestamp %d arrived after %d", b, a)
			}
		}
	}
	// Each value's list is live and holds exactly the value's rows, under
	// the value's own hash, or is free.
	free := checkValueDict(t, s)
	for v := range s.lists {
		if id, l := int32(v), &s.lists[v]; !free[id] {
			if got := l.live(); len(got) == 0 || l.dirty || !slices.Equal(got, want[id]) {
				t.Fatalf("posting list of %q = %v (dirty %v), want %v", l.val, got, l.dirty, want[id])
			}
			if l.hash != maphash.String(valueSeed, l.val) {
				t.Fatalf("posting list of %q keeps hash %x", l.val, l.hash)
			}
		}
	}
	if live := len(s.lists) - len(s.freeLists); live != len(want) {
		t.Fatalf("%d posting lists, %d free, for %d values", len(s.lists), len(s.freeLists), len(want))
	}
}

// checkValueDict asserts the value dictionary's invariants and returns the
// free ids: a free list is empty and out of the dictionary, the dictionary
// finds every other list's value under the list's own id, and it holds
// nothing else.
func checkValueDict(t testing.TB, s *State) map[int32]bool {
	t.Helper()
	free := map[int32]bool{}
	for _, id := range s.freeLists {
		if l := &s.lists[id]; free[id] || len(l.live()) != 0 || l.val != "" {
			t.Fatalf("free posting list %d holds %v (value %q), or is freed twice", id, l.live(), l.val)
		}
		free[id] = true
	}
	for v := range s.lists {
		if id, l := int32(v), &s.lists[v]; !free[id] {
			if _, found := s.values.find(s.lists, l.hash, l.val); found != id {
				t.Fatalf("the dictionary finds %q under id %d, its list is %d", l.val, found, id)
			}
		}
	}
	entries := 0
	for _, e := range s.values.slots {
		if e != 0 {
			entries++
		}
	}
	if live := len(s.lists) - len(free); s.values.n != live || entries != live {
		t.Fatalf("the dictionary counts %d entries and fills %d slots for %d live values", s.values.n, entries, live)
	}
	return free
}

// checkLeftView requires, for every string value the state holds, the left
// view rows State.appendRL reads off its posting list to be, as a multiset,
// those of a full scan: every live record's Rdoc rows with that value joined
// with the same record's Rbin rows on node = node2, behind the record's
// slot. A posting that outlived its document, or one that names a reused
// slot's new document, shows here as a row too many or too few.
func checkLeftView(t testing.TB, s *State) {
	t.Helper()
	want := map[int32][][]int64{}
	for v := range s.lists {
		if len(s.lists[v].live()) > 0 {
			want[int32(v)] = nil
		}
	}
	for _, slot := range s.order {
		r := &s.recs[slot]
		for _, dt := range r.rdoc {
			id := int32(dt[rdocStrVal])
			for _, bt := range r.bin {
				if bt[rbinNode2] == dt[rdocNode] {
					want[id] = append(want[id], append(append([]int64{int64(slot)}, bt...), int64(id)))
				}
			}
		}
	}
	for id, rows := range want {
		vals := s.appendRL(nil, id)
		var got [][]int64
		for len(vals) > 0 {
			got, vals = append(got, vals[:len(rlSchema)]), vals[len(rlSchema):]
		}
		slices.SortFunc(got, slices.Compare)
		slices.SortFunc(rows, slices.Compare)
		if !slices.EqualFunc(got, rows, slices.Equal) {
			t.Fatalf("left view of %q = %v, a full scan of the live records gives %v", s.value(id), got, rows)
		}
	}
}

// snapVar and snapVarID name the bare variable ids the tests' witnesses use.
func snapVar(v int64) string      { return strconv.FormatInt(v, 10) }
func snapVarID(name string) int64 { v, _ := strconv.ParseInt(name, 10, 64); return v }

// TestStateIndexesEqualRebuilt streams a windowed workload with single-node
// and multi-node sides (so Rbin, Rdoc and Rroot all fill, and window GC runs
// repeatedly) and requires, after every document, that the records, their
// indexes and the posting lists Merge extended and GC shrank are exactly
// what a state rebuilt from the surviving documents holds; then that a
// processor restored from the snapshot — after its JSON round trip, the
// unchanged snapshot format — holds the same as the one that never stopped.
func TestStateIndexesEqualRebuilt(t *testing.T) {
	gen := workload.DefaultRandomFlat()
	gen.MaxWindow = 12
	rng := rand.New(rand.NewSource(5))
	var queries []*xscl.Query
	for i := 0; i < 15; i++ {
		queries = append(queries, gen.Query(rng))
	}
	register := func() *Processor {
		p := NewProcessor(Config{})
		for _, q := range queries {
			p.MustRegister(q)
		}
		return p
	}
	live := register()
	gcs := 0
	for i := 1; i <= 120; i++ {
		before := live.state.NumDocs()
		live.Process("S", gen.Document(rng, xmldoc.DocID(i), xmldoc.Timestamp(i)))
		if live.state.NumDocs() <= before {
			gcs++
		}
		checkState(t, live.state)
		fresh := NewState()
		if err := fresh.restore(live.state.export(live.syms.name), live.syms.intern); err != nil {
			t.Fatal(err)
		}
		if got, want := stateDump(live.state), stateDump(fresh); !reflect.DeepEqual(got, want) {
			t.Fatalf("after document %d: maintained state differs from a rebuild\ngot:  %v\nwant: %v", i, got, want)
		}
	}
	if bin, _, root := live.state.Rows(); gcs == 0 || root == 0 || bin == 0 {
		t.Fatalf("stream did not exercise the state: %d GCs, %d Rroot rows, %d Rbin rows", gcs, root, bin)
	}

	raw, err := json.Marshal(live.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	var snap StateSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	restored := register()
	if err := restored.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	checkState(t, restored.state)
	if got, want := stateDump(restored.state), stateDump(live.state); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored state differs from the live one\ngot:  %v\nwant: %v", got, want)
	}
}

// rebuildGC is window expiry by rebuilding: export the state, keep the
// documents that stay and their rows, and restore that into a fresh state —
// the reference State.GC is checked against. It returns the fresh state and
// the expired documents' ids.
func rebuildGC(t testing.TB, s *State, cutoffTS xmldoc.Timestamp, cutoffSeq int64) (*State, []xmldoc.DocID) {
	snap := s.export(snapVar)
	var expired []xmldoc.DocID
	gone := map[int64]bool{}
	kept := snap
	kept.Docs, kept.Rbin, kept.Rdoc, kept.Rroot = nil, nil, nil, nil
	for _, d := range snap.Docs {
		if xmldoc.Timestamp(d.TS) < cutoffTS && d.Seq < cutoffSeq {
			gone[d.ID] = true
			expired = append(expired, xmldoc.DocID(d.ID))
		} else {
			kept.Docs = append(kept.Docs, d)
		}
	}
	for _, r := range snap.Rbin {
		if !gone[r.Doc] {
			kept.Rbin = append(kept.Rbin, r)
		}
	}
	for _, r := range snap.Rdoc {
		if !gone[r.Doc] {
			kept.Rdoc = append(kept.Rdoc, r)
		}
	}
	for _, r := range snap.Rroot {
		if !gone[r.Doc] {
			kept.Rroot = append(kept.Rroot, r)
		}
	}
	fresh := NewState()
	if err := fresh.restore(kept, snapVarID); err != nil {
		t.Fatal(err)
	}
	return fresh, expired
}

// expiryPair drives two states through the same merges and expiries: got
// expires in place (State.GC), want by rebuildGC.
type expiryPair struct {
	t         testing.TB
	got, want *State
	nextID    int64
	merged    int // rows merged into got
	dropped   int // rows got's collections dropped
	// rowsOf holds each merged document's row count.
	rowsOf map[xmldoc.DocID]int
	// gcs counts the collections that expired something, nonPrefix those
	// whose expired documents were not a prefix of the arrival order.
	gcs, nonPrefix int
}

func newExpiryPair(t testing.TB) *expiryPair {
	return &expiryPair{t: t, got: NewState(), want: NewState(), nextID: 1, rowsOf: map[xmldoc.DocID]int{}}
}

// addDocValue is AddDoc with a string value of the caller's choosing in
// place of the document's: the expiry tests' witnesses bind nodes their
// one-node documents do not have.
func addDocValue(r *Stage1Result, n xmldoc.NodeID, strVal string) {
	if e := r.node(n); e.doc < 0 {
		r.insertDoc(e, n, strVal)
	}
}

// merge adds one document with timestamp ts to both states: fill writes its
// rows through the Stage-1 builder, once for each state, which adopts the
// record.
func (h *expiryPair) merge(ts int64, fill func(r *Stage1Result)) {
	d := xmldoc.NewBuilder(xmldoc.DocID(h.nextID), xmldoc.Timestamp(ts), "item").Build()
	h.nextID++
	for _, s := range []*State{h.got, h.want} {
		r := buildRec(d, fill)
		n := r.rec.numRows()
		s.resolve(r)
		s.Merge(&r.rec)
		stage1Pool.Put(r)
		if s == h.got {
			h.merged += n
			h.rowsOf[d.ID] = n
		}
	}
}

// gc expires both states at the cutoffs and checks what the collection did:
// it expired the documents the rebuild drops, dropped exactly their rows and
// moved no surviving row.
func (h *expiryPair) gc(cutoffTS xmldoc.Timestamp, cutoffSeq int64) {
	t, s := h.t, h.got
	t.Helper()
	arrival := []xmldoc.DocID{}
	storage := map[xmldoc.DocID][][]int64{}
	for _, slot := range s.order {
		r := &s.recs[slot]
		arrival = append(arrival, r.id)
		storage[r.id] = slices.Concat(r.bin, r.rdoc, r.root)
	}
	gotIDs, dropped := s.GC(cutoffTS, cutoffSeq, nil)
	h.dropped += dropped
	wantRows := 0
	for _, id := range gotIDs {
		wantRows += h.rowsOf[id]
	}
	var wantIDs []xmldoc.DocID
	h.want, wantIDs = rebuildGC(t, h.want, cutoffTS, cutoffSeq)
	if !slices.Equal(gotIDs, wantIDs) {
		t.Fatalf("expired %v, want %v", gotIDs, wantIDs)
	}
	if dropped != wantRows {
		t.Fatalf("%d rows dropped, the expired documents held %d", dropped, wantRows)
	}
	for _, slot := range s.order {
		r := &s.recs[slot]
		for i, row := range slices.Concat(r.bin, r.rdoc, r.root) {
			if &row[0] != &storage[r.id][i][0] {
				t.Fatalf("document %d's rows moved in a collection", r.id)
			}
		}
	}
	if len(gotIDs) > 0 {
		h.gcs++
		if !slices.Equal(arrival[:len(gotIDs)], gotIDs) {
			h.nonPrefix++
		}
	}
}

// check requires the two states to be equal: export bytes, records, indexes
// and posting lists; and the in-place one to be consistent, its left view
// included.
func (h *expiryPair) check() {
	t := h.t
	t.Helper()
	checkState(t, h.got)
	checkLeftView(t, h.got)
	got, err := json.Marshal(h.got.export(snapVar))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(h.want.export(snapVar))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("ExportState differs from the rebuild's\ngot:  %s\nwant: %s", got, want)
	}
	if g, w := stateDump(h.got), stateDump(h.want); !reflect.DeepEqual(g, w) {
		t.Fatalf("state differs from the rebuild\ngot:  %v\nwant: %v", g, w)
	}
	if bin, doc, root := h.got.Rows(); h.dropped != h.merged-bin-doc-root {
		t.Fatalf("%d rows dropped, want %d merged - %d live", h.dropped, h.merged, bin+doc+root)
	}
}

// TestInPlaceExpiryEqualsRebuild drives two states through the same random
// interleaving of merges and expiries — timestamps out of order behind a
// far-future first document, so most expiries are not a prefix of the arrival
// order; time, ROWS and two-dimensional cutoffs; documents that leave a
// relation empty; strings shared across documents — one expiring in place
// (State.GC), the other through rebuildGC, and requires after every step
// that the two export the same bytes and hold the same records, indexes and
// posting lists, and that every collection dropped exactly the expired
// documents' rows and moved no other. A second phase streams in timestamp
// order, where every collection pops a prefix.
func TestInPlaceExpiryEqualsRebuild(t *testing.T) {
	noTS, noSeq := xmldoc.Timestamp(math.MaxInt64), int64(math.MaxInt64)
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := newExpiryPair(t)
		merge := func(ts int64) {
			h.merge(ts, func(b *Stage1Result) {
				r := rand.New(rand.NewSource(seed<<20 | h.nextID))
				for n := r.Intn(5); n > 0; n-- {
					b.AddBin(int64(r.Intn(3)), int64(r.Intn(3)), xmldoc.NodeID(r.Intn(4)), xmldoc.NodeID(r.Intn(4)))
				}
				for n := r.Intn(4); n > 0; n-- {
					addDocValue(b, xmldoc.NodeID(r.Intn(6)), fmt.Sprintf("inplace-%d", r.Intn(12)))
				}
				for n := r.Intn(3); n > 0; n-- {
					b.AddRoot(int64(r.Intn(3)), xmldoc.NodeID(r.Intn(4)))
				}
			})
		}
		cutoffs := func(now int64) (xmldoc.Timestamp, int64) {
			cutoffTS, cutoffSeq := noTS, noSeq
			switch rng.Intn(3) {
			case 0:
				cutoffTS = xmldoc.Timestamp(now - int64(rng.Intn(60)))
			case 1:
				cutoffSeq = h.got.nextSeq - int64(rng.Intn(30))
			default:
				cutoffTS = xmldoc.Timestamp(now - int64(rng.Intn(60)))
				cutoffSeq = h.got.nextSeq - int64(rng.Intn(30))
			}
			return cutoffTS, cutoffSeq
		}
		merge(1_000_000) // clock-skewed head: expires by ROWS only
		now := int64(100)
		for step := 0; step < 400; step++ {
			if rng.Intn(3) > 0 {
				now += int64(rng.Intn(3))
				merge(now - int64(rng.Intn(40)))
			} else {
				h.gc(cutoffs(now))
			}
			h.check()
		}
		if h.gcs < 20 || h.nonPrefix < 10 {
			t.Errorf("seed %d: %d expiries, %d of them non-prefix: the interleaving did not exercise GC", seed, h.gcs, h.nonPrefix)
		}
		// In order: the skewed head leaves, and no document is late once
		// the late ones have too.
		h.gc(noTS, h.got.nextSeq)
		h.check()
		inOrder := h.gcs
		for step := 0; step < 200; step++ {
			if rng.Intn(3) > 0 {
				now += int64(1 + rng.Intn(3))
				merge(now)
			} else {
				h.gc(cutoffs(now))
			}
			h.check()
			if h.got.late != 0 {
				t.Fatalf("seed %d: %d late documents in a stream in timestamp order", seed, h.got.late)
			}
		}
		if h.gcs-inOrder < 10 {
			t.Errorf("seed %d: %d in-order expiries", seed, h.gcs-inOrder)
		}
	}
}

// FuzzStateExpiry is TestInPlaceExpiryEqualsRebuild with the fuzzer choosing
// the documents and cutoffs: each byte of the input starts a merge (its rows
// and its timestamp's lag behind the clock drawn from the bytes that follow)
// or an expiry by time, by ROWS or by both. A merge writes its rows through
// the Stage-1 builder (Stage1Result.AddBin and its siblings, then seal) and
// the state adopts the record, as Consume's merge does, so recycled record
// storage is exercised too. After every step the state must equal the one
// rebuilt from the surviving documents, export bytes included, and the left
// view of every string it holds a full scan of its records.
func FuzzStateExpiry(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 0, 7, 3, 9, 9, 1, 2, 5, 3, 3, 4})
	f.Add([]byte{0, 0xff, 0, 1, 0, 2, 0, 3, 3, 2, 1, 0, 3, 1, 2})
	f.Add(bytes.Repeat([]byte{0, 17, 42, 200, 3, 1}, 20))
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			prog = prog[:512] // every step compares whole states
		}
		h := newExpiryPair(t)
		next := func() int64 {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return int64(b)
		}
		now := int64(1000)
		for len(prog) > 0 {
			switch op := next(); op % 4 {
			case 0, 1, 2:
				now += op % 3
				lag := next()
				if lag > 250 {
					lag = 1_000_000 - now // far future: clock skew
				}
				shape := next()
				h.merge(now-lag, func(b *Stage1Result) {
					for i := int64(0); i < shape%5; i++ {
						b.AddBin(i%3, (i+shape)%3, xmldoc.NodeID(shape%4), xmldoc.NodeID((shape+i)%5))
					}
					for i := int64(0); i < shape%4; i++ {
						addDocValue(b, xmldoc.NodeID((shape+i)%6), fmt.Sprintf("fuzz-%d", (shape+i)%7))
					}
					for i := int64(0); i < (shape/5)%3; i++ {
						b.AddRoot(i, xmldoc.NodeID(shape%4))
					}
				})
			default:
				cutoffTS, cutoffSeq := xmldoc.Timestamp(math.MaxInt64), int64(math.MaxInt64)
				by, back := next(), next()
				if by%3 != 1 {
					cutoffTS = xmldoc.Timestamp(now - back)
				}
				if by%3 != 0 {
					cutoffSeq = h.got.nextSeq - back%40
				}
				h.gc(cutoffTS, cutoffSeq)
			}
			h.check()
		}
	})
}
