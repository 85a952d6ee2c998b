package mmqjp

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/xmldoc"
	"repro/internal/xscl"
)

// Durability: Snapshot serializes everything a restarted process needs to
// resume every subscription with identical output — the live subscriptions
// (source text by QueryID, ids ascending), the next query and derived-document
// ids, the windowed join state (see core.StateSnapshot for the consistency
// argument) and the retained documents the join state still holds.
// OpenEngine re-registers each query under its id, raises the query-id
// counter to next_query (a snapshot without it resumes after its last id),
// so no id is issued twice, and restores the join state underneath.
//
// The snapshot is taken under the lock every document's Stage 2 holds: every
// document consumed before it is fully merged and no later document has
// touched the state, so the snapshot is a consistent prefix of the serial
// document order. Restoring it and replaying the suffix yields
// byte-identical match output to a process that never restarted.

// ErrSequentialSnapshot is returned by Snapshot for ProcessorSequential
// engines, whose per-query baseline processor has no durable form.
var ErrSequentialSnapshot = errors.New("mmqjp: snapshots are not supported in sequential mode")

const (
	snapshotFormat  = "mmqjp-snapshot"
	snapshotVersion = 1
)

type snapQuery struct {
	ID     int64  `json:"id"`
	Source string `json:"source"`
}

// snapRetained is one retained document, serialized as XML.
type snapRetained struct {
	ID  int64  `json:"id"`
	TS  int64  `json:"ts"`
	XML string `json:"xml"`
}

type engineSnapshot struct {
	Format  string `json:"format"`
	Version int    `json:"version"`

	Queries         []snapQuery        `json:"queries,omitempty"`
	NextQuery       *int64             `json:"next_query,omitempty"`
	NextDerived     int64              `json:"next_derived"`
	DroppedCascades int64              `json:"dropped_cascades,omitempty"`
	Docs            []snapRetained     `json:"docs,omitempty"`
	State           core.StateSnapshot `json:"state"`

	// Partitions and PartStates are read, never written: a snapshot taken
	// by a release that had the in-process router holds its join state in
	// them, not in State, and OpenEngine refuses it.
	Partitions int               `json:"partitions,omitempty"`
	PartStates []json.RawMessage `json:"part_states,omitempty"`
}

// Snapshot writes a consistent snapshot of the engine — subscriptions, join
// state, retained documents, the next query and derived-document ids — to w
// as JSON. It runs under the
// engine's writer lock, between two documents' Stage 2, so it is an exact
// prefix of the serial document order; a publish whose Stage 1 is in flight
// lands after it. Returns ErrSequentialSnapshot in sequential mode.
func (e *Engine) Snapshot(w io.Writer) error {
	if e.seq != nil {
		return ErrSequentialSnapshot
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.snapshot(w)
}

// snapshot builds and encodes the snapshot.
//
//mmqjp:guardedby e.mu
func (e *Engine) snapshot(w io.Writer) error {
	next := int64(e.proc.NextQueryID())
	snap := engineSnapshot{
		Format:          snapshotFormat,
		Version:         snapshotVersion,
		NextQuery:       &next,
		NextDerived:     e.nextDerived,
		DroppedCascades: e.droppedCascades,
		State:           e.proc.ExportState(),
	}
	for id, src := range e.queries { //mmqjp:unordered sorted below
		snap.Queries = append(snap.Queries, snapQuery{ID: int64(id), Source: src})
	}
	slices.SortFunc(snap.Queries, func(a, b snapQuery) int { return cmp.Compare(a.ID, b.ID) })
	// The documents the state holds, in its arrival order: the ones that
	// already left are dropped at the next publish call anyway.
	for _, sd := range snap.State.Docs {
		if d := e.docs[xmldoc.DocID(sd.ID)]; d != nil {
			snap.Docs = append(snap.Docs, snapRetained{ID: sd.ID, TS: int64(d.Timestamp), XML: d.XMLText()})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&snap)
}

// OpenEngine rebuilds an engine from a Snapshot stream. opts plays the same
// role as in New and need not match the snapshotting engine's options —
// processor kind (among the shared-join kinds) is output-invisible — except
// that
// ProcessorSequential cannot host a snapshot. Every subscription resumes
// under its original QueryID, the next Subscribe gets the id the original
// engine's would have, and publishing the stream suffix produces exactly the
// matches the original engine would have produced. Query ids must ascend,
// and next_query must lie above the last of them. The
// documents the snapshot carries are kept for OutputXML only when opts
// retains documents. A snapshot
// written by a routed engine (Options.Partitions > 1 in releases that had
// the in-process router) is refused: its join state is split over the
// partitions, and merging those states back is not supported.
//
//mmqjp:nolock the engine is under construction and not yet shared
func OpenEngine(r io.Reader, opts Options) (*Engine, error) {
	if opts.Processor == ProcessorSequential {
		return nil, ErrSequentialSnapshot
	}
	var snap engineSnapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&snap); err != nil {
		return nil, fmt.Errorf("mmqjp: decode snapshot: %w", err)
	}
	if snap.Format != snapshotFormat {
		return nil, fmt.Errorf("mmqjp: not a snapshot (format %q)", snap.Format)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("mmqjp: unsupported snapshot version %d", snap.Version)
	}
	if snap.Partitions > 1 || len(snap.PartStates) > 0 {
		return nil, fmt.Errorf("mmqjp: snapshot was taken by a routed engine (%d partitions, %d partition states); routed snapshots are no longer supported",
			snap.Partitions, len(snap.PartStates))
	}
	e := New(opts)
	for _, sq := range snap.Queries {
		// The counter only rises: a negative, repeated or descending id is
		// refused.
		if err := e.proc.RaiseNextQueryID(core.QueryID(sq.ID)); err != nil {
			return nil, fmt.Errorf("mmqjp: restore query %d: %w", sq.ID, err)
		}
		q, err := xscl.Parse(sq.Source)
		if err != nil {
			return nil, fmt.Errorf("mmqjp: restore query %d: %w", sq.ID, err)
		}
		if _, err := e.subscribe(q); err != nil {
			return nil, fmt.Errorf("mmqjp: restore query %d: %w", sq.ID, err)
		}
	}
	if snap.NextQuery != nil {
		if err := e.proc.RaiseNextQueryID(core.QueryID(*snap.NextQuery)); err != nil {
			return nil, fmt.Errorf("mmqjp: snapshot next_query %d: %w", *snap.NextQuery, err)
		}
	}
	if err := e.proc.RestoreState(snap.State); err != nil {
		return nil, err
	}
	// Only an engine that retains documents keeps the snapshot's: one
	// without RetainDocuments would never drop them. And only the documents
	// the restored state holds: a snapshot written before the retained set
	// was bounded by the window carries every document ever published.
	inState := make(map[int64]bool, len(snap.State.Docs))
	for _, sd := range snap.State.Docs {
		inState[sd.ID] = true
	}
	for _, rd := range snap.Docs {
		if !e.opts.RetainDocuments || !inState[rd.ID] {
			continue
		}
		d, err := ParseDocument(rd.XML, rd.ID, rd.TS)
		if err != nil {
			return nil, fmt.Errorf("mmqjp: restore document %d: %w", rd.ID, err)
		}
		e.docs[d.ID] = d
	}
	e.nextDerived = snap.NextDerived
	e.droppedCascades = snap.DroppedCascades
	return e, nil
}

// MaxDocID returns the largest document id ever published to the engine,
// whether or not the document entered the join state (it survives both GC
// and snapshot/restore), so id allocators — like the server's auto-assigned
// PUB ids — can resume above it after a restart. Zero in sequential mode.
func (e *Engine) MaxDocID() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.proc == nil {
		return 0
	}
	return e.proc.MaxDocID()
}

// Ping verifies that documents can still enter the join state: it takes and
// releases the lock every document's Stage 2 holds, and reports an error if
// that does not happen within timeout — a publish wedged in Stage 2 (or in
// an OnDocument hook) fails it. It is the health signal behind the server's
// /healthz endpoint.
func (e *Engine) Ping(timeout time.Duration) error {
	done := make(chan struct{})
	go func() {
		e.mu.Lock()
		defer e.mu.Unlock()
		close(done)
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-done:
		return nil
	case <-timer.C:
		return fmt.Errorf("mmqjp: engine unresponsive after %v", timeout)
	}
}
