package core

import (
	"fmt"
	"sort"

	"repro/internal/sym"
	"repro/internal/xmldoc"
)

// Durability: the join state is exactly what incremental maintenance has
// paid for — re-deriving it after a restart would mean replaying every
// in-window document. StateSnapshot is its portable form: the witness
// relations with canonical-variable columns resolved to their names (interned
// symbol ids are an in-process artifact; a restored processor re-interns
// under its own symbol table), the document timestamp/arrival-order maps that
// drive window semantics, and (when document retention is on) the retained
// documents as XML text.
//
// A snapshot is consistent only when taken at a quiescent point — no Process
// in flight, no pipeline Stage-1 work running. The engine facade takes it at
// an ingest barrier, which makes the snapshot an exact admission-order
// prefix: every admitted document is fully merged, no later document has
// touched the state.
//
// Registrations are NOT part of StateSnapshot: queries are re-registered
// from source text by the caller before RestoreState, which rebuilds vector
// groups, templates, patterns and the shared NFA exactly as original
// registration did. RestoreState then re-interns the witness rows, so the
// restored processor is internally consistent even though its symbol ids
// differ from the snapshotting process's.

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

// SnapRoot is one Rroot row with a symbolic variable name.
type SnapRoot struct {
	Doc  int64  `json:"doc"`
	Var  string `json:"v"`
	Node int64  `json:"node"`
}

// SnapRetained is one retained document, serialized as XML.
type SnapRetained struct {
	ID  int64  `json:"id"`
	TS  int64  `json:"ts"`
	XML string `json:"xml"`
}

// StateSnapshot is the portable form of the join state. See the package
// comment above for the consistency contract.
type StateSnapshot struct {
	NextSeq  int64          `json:"next_seq"`
	MaxDoc   int64          `json:"max_doc"`
	Docs     []SnapDoc      `json:"docs,omitempty"`
	Rbin     []SnapBin      `json:"rbin,omitempty"`
	Rdoc     []SnapRdoc     `json:"rdoc,omitempty"`
	Rroot    []SnapRoot     `json:"rroot,omitempty"`
	Retained []SnapRetained `json:"retained,omitempty"`
}

// ExportState captures the join state. Like Stats, it must not run
// concurrently with Process/ProcessBatch (the engine facade serializes it
// behind an ingest barrier).
func (p *Processor) ExportState() StateSnapshot {
	s := p.state
	out := StateSnapshot{NextSeq: s.nextSeq, MaxDoc: int64(s.maxDoc)}
	for _, id := range s.docIDs {
		out.Docs = append(out.Docs, SnapDoc{ID: int64(id), TS: int64(s.RdocTS[id]), Seq: s.seq[id]})
	}
	for _, t := range s.Rbin.Rows {
		out.Rbin = append(out.Rbin, SnapBin{
			Doc: t[0], Var1: p.syms.name(t[1]), Var2: p.syms.name(t[2]),
			Node1: t[3], Node2: t[4],
		})
	}
	for _, t := range s.Rdoc.Rows {
		// Interned symbols are process-scoped, so the snapshot carries the
		// original string: snapshot bytes are identical to what a
		// string-keyed engine would write, and ids never escape to disk.
		out.Rdoc = append(out.Rdoc, SnapRdoc{Doc: t[0], Node: t[1], Str: sym.Name(sym.ID(t[rdocStrVal]))})
	}
	for _, t := range s.Rroot.Rows {
		out.Rroot = append(out.Rroot, SnapRoot{Doc: t[0], Var: p.syms.name(t[1]), Node: t[2]})
	}
	if len(s.docs) > 0 {
		ids := make([]int64, 0, len(s.docs))
		//mmqjp:unordered ids are sorted before the snapshot is emitted
		for id := range s.docs {
			ids = append(ids, int64(id))
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			d := s.docs[xmldoc.DocID(id)]
			out.Retained = append(out.Retained, SnapRetained{
				ID: id, TS: int64(d.Timestamp), XML: d.XMLText(),
			})
		}
	}
	return out
}

// RestoreState rebuilds the join state from a snapshot. The processor must
// hold the restored subscription set (queries re-registered from source) and
// must not have processed any document yet; variable names are re-interned
// under this processor's symbol table, so the restored state joins against
// the re-registered vector groups exactly as the original state did. The
// indexes are rebuilt in row order (State.reindex), the order Merge extended
// them in, so a restored state is indistinguishable from the original.
func (p *Processor) RestoreState(snap StateSnapshot) error {
	s := p.state
	if s.nextSeq != 0 || len(s.docIDs) != 0 {
		return fmt.Errorf("core: RestoreState on a processor that has already processed %d documents", len(s.docIDs))
	}
	for _, d := range snap.Docs {
		id := xmldoc.DocID(d.ID)
		s.docIDs = append(s.docIDs, id)
		s.RdocTS[id] = xmldoc.Timestamp(d.TS)
		s.seq[id] = d.Seq
	}
	for _, r := range snap.Rbin {
		s.Rbin.Insert(r.Doc, p.syms.intern(r.Var1), p.syms.intern(r.Var2), r.Node1, r.Node2)
	}
	for _, r := range snap.Rdoc {
		s.Rdoc.Insert(r.Doc, r.Node, int64(sym.Intern(r.Str)))
	}
	for _, r := range snap.Rroot {
		s.Rroot.Insert(r.Doc, p.syms.intern(r.Var), r.Node)
	}
	s.reindex()
	for _, r := range snap.Retained {
		d, err := xmldoc.ParseString(r.XML, xmldoc.DocID(r.ID), xmldoc.Timestamp(r.TS))
		if err != nil {
			return fmt.Errorf("core: restore retained document %d: %w", r.ID, err)
		}
		s.docs[d.ID] = d
	}
	s.nextSeq = snap.NextSeq
	s.maxDoc = xmldoc.DocID(snap.MaxDoc)
	return nil
}

// MaxDocID returns the largest document id the join state has ever seen
// (surviving GC); id allocators resume above it after a restore.
func (p *Processor) MaxDocID() int64 { return int64(p.state.maxDoc) }

// SkipQueryID burns one query id, leaving a permanent tombstone slot. A
// restore uses it to re-register surviving queries at their original ids:
// ids of queries unsubscribed before the snapshot are skipped, so every
// surviving subscription keeps the id its owner holds.
func (p *Processor) SkipQueryID() {
	p.queries = append(p.queries, nil)
}
