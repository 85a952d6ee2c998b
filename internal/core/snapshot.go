package core

import (
	"fmt"
	"hash/maphash"

	"repro/internal/xmldoc"
)

// Durability: the join state is exactly what incremental maintenance has
// paid for — re-deriving it after a restart would mean replaying every
// in-window document. StateSnapshot is its portable form: the witness
// relations with class-name and join-value columns resolved to their strings
// (class-name ids are the processor's and value ids the state's, both
// in-process artifacts; a restored processor re-interns the names under its
// own symbol table and files the values in its state's dictionary) and each
// row under its document's id (slots are
// where a state happens to keep its records), and each document's timestamp
// and arrival index that drive window semantics. The documents themselves
// are not state: a caller that keeps them for output writes them itself.
//
// A snapshot is consistent only when taken between two Consume calls. Stage 1
// never touches the join state, so RunStage1 calls in flight do not matter.
// The engine facade takes it under the lock every Consume holds, which makes
// the snapshot an exact prefix of the serial document order: every consumed
// document is fully merged, no later document has touched the state.
//
// Registrations are NOT part of StateSnapshot: queries are re-registered
// from source text by the caller before RestoreState, which rebuilds vector
// groups, templates, patterns and the shared NFA exactly as original
// registration did. RestoreState then re-interns the witness rows, so the
// restored processor is internally consistent even though its ids differ
// from the snapshotting processor's.

// SnapDoc is one in-window document's window metadata, in arrival order.
type SnapDoc struct {
	ID  int64 `json:"id"`
	TS  int64 `json:"ts"`
	Seq int64 `json:"seq"`
}

// SnapBin is one Rbin row with symbolic variable names.
type SnapBin struct {
	Doc   int64  `json:"doc"`
	Var1  string `json:"v1"`
	Var2  string `json:"v2"`
	Node1 int64  `json:"n1"`
	Node2 int64  `json:"n2"`
}

// SnapRdoc is one Rdoc row.
type SnapRdoc struct {
	Doc  int64  `json:"doc"`
	Node int64  `json:"node"`
	Str  string `json:"s"`
}

// SnapRoot is one parentless Rbin row — the root of a single-node side —
// with a symbolic variable name.
type SnapRoot struct {
	Doc  int64  `json:"doc"`
	Var  string `json:"v"`
	Node int64  `json:"node"`
}

// StateSnapshot is the portable form of the join state. See the package
// comment above for the consistency contract. Rbin lists the Rbin rows with
// a parent and Rroot the parentless ones.
type StateSnapshot struct {
	NextSeq int64      `json:"next_seq"`
	MaxDoc  int64      `json:"max_doc"`
	Docs    []SnapDoc  `json:"docs,omitempty"`
	Rbin    []SnapBin  `json:"rbin,omitempty"`
	Rdoc    []SnapRdoc `json:"rdoc,omitempty"`
	Rroot   []SnapRoot `json:"rroot,omitempty"`
}

// ExportState captures the join state. Like Stats, it must not run
// concurrently with Consume (the engine facade serializes them).
func (p *Processor) ExportState() StateSnapshot { return p.state.export(p.syms.name) }

// export writes the records out in arrival order — relation by relation, each
// document's rows in the order they were merged — under their documents' ids
// and with the variables resolved to their names.
func (s *State) export(varName func(int64) string) StateSnapshot {
	out := StateSnapshot{NextSeq: s.nextSeq, MaxDoc: int64(s.maxDoc)}
	for _, slot := range s.order {
		r := &s.recs[slot]
		id := int64(r.id)
		out.Docs = append(out.Docs, SnapDoc{ID: id, TS: int64(r.ts), Seq: r.seq})
		for i := range int32(r.numBin()) {
			if t := r.binRow(i); t[rbinVar1] == noParent {
				out.Rroot = append(out.Rroot, SnapRoot{Doc: id, Var: varName(t[rbinVar2]), Node: t[rbinNode2]})
			} else {
				out.Rbin = append(out.Rbin, SnapBin{Doc: id, Var1: varName(t[rbinVar1]), Var2: varName(t[rbinVar2]), Node1: t[rbinNode1], Node2: t[rbinNode2]})
			}
		}
		for i := range int32(r.numDoc()) {
			// Value ids are the state's, so the snapshot carries the
			// string: snapshot bytes are identical to what a string-keyed
			// engine would write, and ids never escape to disk.
			t := r.docRow(i)
			out.Rdoc = append(out.Rdoc, SnapRdoc{Doc: id, Node: t[rdocNode], Str: s.value(int32(t[rdocStrVal]))})
		}
	}
	return out
}

// RestoreState rebuilds the join state from a snapshot. The processor must
// hold the restored subscription set (queries re-registered from source) and
// must not have processed any document yet; variable names are re-interned
// under this processor's symbol table, so the restored state joins against
// the re-registered vector groups exactly as the original state did. Each
// document's record is built the way Stage 1 builds one — its rows written
// in snapshot order, the "rroot" rows as parentless Rbin rows after the
// others, its join values filed in the state's dictionary, then sealed — and
// merged in arrival order, so a restored state holds what the original held;
// only its value ids, which follow the order the values were filed in, and
// the order of its parentless Rbin rows among the others may differ. A row of a
// document the snapshot does not list is refused: no engine writes one. A
// snapshot written when the state still held documents carries them under
// "retained"; decoding ignores them.
func (p *Processor) RestoreState(snap StateSnapshot) error {
	return p.state.restore(snap, p.syms.intern)
}

// restore writes the rows as the snapshot lists them, without Stage 1's
// Rdoc stamps: they key on node ids, which a snapshot file does not bound,
// and no engine writes a row twice. Every row is checked before any
// value enters the dictionary, so a refused snapshot files none.
func (s *State) restore(snap StateSnapshot, varID func(string) int64) error {
	if s.nextSeq != 0 || len(s.order) != 0 {
		return fmt.Errorf("core: RestoreState on a processor that has already processed %d documents", len(s.order))
	}
	// Restore is not on the per-document path: a map from document id to
	// its record is fine here.
	at := make(map[int64]int, len(snap.Docs))
	recs := make([]docRec, len(snap.Docs))
	for i, d := range snap.Docs {
		if _, dup := at[d.ID]; dup {
			return fmt.Errorf("core: snapshot lists document %d twice", d.ID)
		}
		at[d.ID] = i
		recs[i] = docRec{id: xmldoc.DocID(d.ID), ts: xmldoc.Timestamp(d.TS), seq: d.Seq}
	}
	find := func(what string, id int64) (*docRec, error) {
		i, ok := at[id]
		if !ok {
			return nil, fmt.Errorf("core: snapshot %s row of document %d, which it does not list", what, id)
		}
		return &recs[i], nil
	}
	for _, r := range snap.Rbin {
		d, err := find("rbin", r.Doc)
		if err != nil {
			return err
		}
		d.addBin(varID(r.Var1), varID(r.Var2), r.Node1, r.Node2)
	}
	for _, r := range snap.Rdoc {
		if _, err := find("rdoc", r.Doc); err != nil {
			return err
		}
	}
	for _, r := range snap.Rroot {
		d, err := find("rroot", r.Doc)
		if err != nil {
			return err
		}
		d.addBin(noParent, varID(r.Var), noParent, r.Node)
	}
	for _, r := range snap.Rdoc {
		recs[at[r.Doc]].addDoc(r.Node, s.valueID(r.Str, maphash.String(valueSeed, r.Str)))
	}
	for i := range recs {
		recs[i].seal()
		s.adopt(&recs[i])
	}
	s.nextSeq = snap.NextSeq
	s.maxDoc = xmldoc.DocID(snap.MaxDoc)
	return nil
}

// MaxDocID returns the largest document id ever published — whether or not
// the document entered the join state, and surviving GC; id allocators
// resume above it after a restore.
func (p *Processor) MaxDocID() int64 { return int64(p.state.maxDoc) }

// NextQueryID returns the id the next Register issues.
func (p *Processor) NextQueryID() QueryID { return p.nextQuery }

// RaiseNextQueryID makes next the id the next Register issues: a restore
// raises it to each query's id before it re-registers the query, then to the
// snapshot's counter. It refuses to go backwards, below an id already
// issued, which refuses a negative, repeated or descending id.
func (p *Processor) RaiseNextQueryID(next QueryID) error {
	if next < p.nextQuery {
		return fmt.Errorf("core: query id %d is below the next id %d", next, p.nextQuery)
	}
	p.nextQuery = next
	return nil
}
