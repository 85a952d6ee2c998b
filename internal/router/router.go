// Package router is the in-process engine-of-engines tier: a Router owns N
// independent core.Processors (partitions), assigns each subscription to one
// partition by hash of its canonical template signature (core.PartitionKey),
// fans every published document to all partitions, and merges the partitions'
// ordered match runs under the canonical total order — so routed output is
// byte-identical to a single engine holding the same subscriptions.
//
// The Router implements core.Backend: RunStage1 fans the document-local work
// across partitions in parallel, Consume consumes every partition and merges
// the relabeled runs. Because it is a Backend, the PR 4
// continuous-ingest machinery (core.Ingest) drives it unchanged, and an
// Ingest.Barrier over a routed backend is automatically a router-wide
// barrier: admission is closed, every partition has consumed every admitted
// document, and no Stage-1 work is in flight on any partition. The engine
// facade routes Subscribe/Unsubscribe/Snapshot through exactly that barrier.
//
// Why output is N-invariant: every query lives wholly in one partition, and
// each partition sees the identical document sequence, so a query's match
// multiset in its partition equals its multiset in a single engine holding
// all queries — witness relations are deduplicated sets keyed by canonical
// variables, and signature-hash placement co-locates the queries that share
// them. Each partition's per-document output leaves Consume in the canonical
// total order (core.Matches), which is a pure function of match content and
// starts with the query id; a query's matches all come from one partition,
// and a partition's local ids rise with the global ids they stand for, so
// merging the runs by global query id (core.Matches.Merge) reproduces the
// single engine's byte order.
//
// Registration is not safe concurrently with in-flight document processing,
// exactly as for a single Processor: callers funnel Register/Unregister
// through an Ingest.Barrier or otherwise quiesce first.
package router

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/xmldoc"
	"repro/internal/xscl"
)

// Config sizes a Router.
type Config struct {
	// Partitions is the number of independent processors (<1 selects 1).
	Partitions int
	// Core configures every partition identically (Workers, plan choice,
	// view materialization, pipeline depth...). Core.OnDocument is called
	// once per routed document with the partitions' summed timings, not
	// once per partition.
	Core core.Config
}

// Router partitions subscriptions across N processors behind the Backend
// surface. Methods follow the Processor's concurrency contract: document
// processing via the Backend methods, registration only while quiesced.
type Router struct {
	parts []*core.Processor
	depth int

	// routes is indexed by global QueryID: which partition a query lives
	// on and its partition-local id. Unregistered and skipped ids leave
	// nil slots, mirroring the Processor's tombstone discipline.
	routes []*route
	// l2g maps each partition's local QueryID space back to global ids
	// for relabeling merged output. Registering queries in global-id
	// order keeps every partition's local order monotone in global order,
	// which is what lets Consume merge the partitions' runs.
	l2g [][]core.QueryID

	// runs and merged are Consume's scratch: the partitions' results of the
	// current document and their merge, the view Consume returns.
	runs   []*core.Matches
	merged core.Matches

	// onDoc is the caller's per-document hook; slots collects the
	// partitions' individual timings for one document before summing.
	onDoc func(core.DocTimings)
	slots []core.DocTimings
}

type route struct {
	part  int
	local core.QueryID
}

// New builds an empty Router with cfg.Partitions independent processors.
func New(cfg Config) *Router {
	n := cfg.Partitions
	if n < 1 {
		n = 1
	}
	r := &Router{
		depth: cfg.Core.PipelineDepth,
		l2g:   make([][]core.QueryID, n),
		runs:  make([]*core.Matches, n),
		onDoc: cfg.Core.OnDocument,
		slots: make([]core.DocTimings, n),
	}
	for i := 0; i < n; i++ {
		cc := cfg.Core
		cc.OnDocument = nil
		if r.onDoc != nil {
			// Each partition reports into its own slot; Consume is never
			// concurrent with itself, so the slots are reused safely.
			slot := &r.slots[i]
			cc.OnDocument = func(t core.DocTimings) { *slot = t }
		}
		r.parts = append(r.parts, core.NewProcessor(cc))
	}
	return r
}

// Partitions reports the number of partitions.
func (r *Router) Partitions() int { return len(r.parts) }

// Register assigns q to the partition hashed from its canonical key and
// registers it there, returning the router-global query id. Global ids are
// dense in registration order (like a Processor's), independent of
// partition placement.
func (r *Router) Register(q *xscl.Query) (core.QueryID, error) {
	key, err := core.PartitionKey(q)
	if err != nil {
		return 0, err
	}
	part := core.PartitionOf(key, len(r.parts))
	local, err := r.parts[part].Register(q)
	if err != nil {
		return 0, err
	}
	gid := core.QueryID(len(r.routes))
	r.routes = append(r.routes, &route{part: part, local: local})
	for core.QueryID(len(r.l2g[part])) <= local {
		r.l2g[part] = append(r.l2g[part], -1)
	}
	r.l2g[part][local] = gid
	return gid, nil
}

// MustRegister is Register, panicking on error (tests, examples).
func (r *Router) MustRegister(q *xscl.Query) core.QueryID {
	id, err := r.Register(q)
	if err != nil {
		panic(err)
	}
	return id
}

// Unregister removes the query from its partition and tombstones the global
// id, exactly as Processor.Unregister tombstones a local one.
func (r *Router) Unregister(qid core.QueryID) error {
	if qid < 0 || qid >= core.QueryID(len(r.routes)) || r.routes[qid] == nil {
		return fmt.Errorf("router: unknown query id %d", qid)
	}
	rt := r.routes[qid]
	if err := r.parts[rt.part].Unregister(rt.local); err != nil {
		return err
	}
	r.routes[qid] = nil
	return nil
}

// SkipQueryID burns one global query id, leaving a tombstone slot — the
// restore path uses it to preserve the ids of queries that were
// unregistered before the snapshot. Partition-local id spaces are untouched:
// local ids need not match across snapshot and restore, because relabeling
// reads the l2g mapping recorded at (re-)registration time.
func (r *Router) SkipQueryID() {
	r.routes = append(r.routes, nil)
}

// routedStage1 is the Router's in-flight document: one partition's
// Stage1Result per partition.
type routedStage1 struct {
	parts []core.Stage1Result
}

// RunStage1 implements core.Backend by fanning the document to every
// partition's Stage 1 in parallel. Each partition matches only its own
// pattern subset, so the fan-out splits the Stage-1 pattern work rather
// than duplicating it (the per-partition NFA document scan is the
// duplicated part).
func (r *Router) RunStage1(stream string, d *xmldoc.Document) core.Stage1Result {
	rs := &routedStage1{parts: make([]core.Stage1Result, len(r.parts))}
	var wg sync.WaitGroup
	for i, p := range r.parts {
		wg.Add(1)
		go func(i int, p *core.Processor) {
			defer wg.Done()
			rs.parts[i] = p.RunStage1(stream, d)
		}(i, p)
	}
	wg.Wait()
	return rs
}

// Consume implements core.Backend: every partition consumes its half of the
// document in parallel (partitions share no mutable state), then the
// partitions' ordered runs are relabeled to global query ids and merged where
// they lie — the single-engine byte order, and no match is copied until the
// caller writes the result out.
func (r *Router) Consume(sr core.Stage1Result) *core.Matches {
	rs := sr.(*routedStage1)
	var wg sync.WaitGroup
	for i, p := range r.parts {
		wg.Add(1)
		go func(i int, p *core.Processor) {
			defer wg.Done()
			r.runs[i] = p.Consume(rs.parts[i])
		}(i, p)
	}
	wg.Wait()
	out := &r.merged
	out.Merge(r.runs, r.l2g)
	if r.onDoc != nil {
		var sum core.DocTimings
		for i := range r.slots {
			t := &r.slots[i]
			sum.Stage1 += t.Stage1
			sum.Stage2 += t.Stage2
			sum.Merge += t.Merge
			sum.GC += t.GC
			r.slots[i] = core.DocTimings{}
		}
		sum.Matches = out.Len()
		r.onDoc(sum)
	}
	return out
}

// Process runs the full routed per-document pipeline and returns the matches
// in a slice the caller owns.
func (r *Router) Process(stream string, d *xmldoc.Document) []core.Match {
	return r.Consume(r.RunStage1(stream, d)).Slice()
}

// ProcessBatch processes docs in arrival order and returns each document's
// merged matches, exactly as len(docs) consecutive Process calls would.
func (r *Router) ProcessBatch(stream string, docs []*xmldoc.Document) [][]core.Match {
	out := make([][]core.Match, len(docs))
	r.ProcessBatchFunc(stream, docs, func(i int, ms *core.Matches) { out[i] = ms.Slice() })
	return out
}

// ProcessBatchFunc is the routed ProcessBatch with per-document delivery,
// pipelined over the configured Core.PipelineDepth via the shared batch
// runner.
func (r *Router) ProcessBatchFunc(stream string, docs []*xmldoc.Document, deliver func(i int, matches *core.Matches)) {
	core.RunBatch(r, r.depth, stream, docs, deliver)
}

// NumQueries reports the number of live queries across all partitions.
func (r *Router) NumQueries() int {
	n := 0
	for _, p := range r.parts {
		n += p.NumQueries()
	}
	return n
}

// NumTemplates reports the sum of the partitions' live template counts.
// This can exceed a single engine's count: a JOIN query's swapped
// orientation materializes its mirror template on the query's home
// partition, while another query whose primary signature equals that mirror
// may hash elsewhere — the template then exists on two partitions.
func (r *Router) NumTemplates() int {
	n := 0
	for _, p := range r.parts {
		n += p.NumTemplates()
	}
	return n
}

// Stats returns the partitions' accumulated stats summed. Documents counts
// each routed document once per partition (every partition consumed it);
// Matches sums to the routed output count, since each match is produced by
// exactly one partition.
func (r *Router) Stats() core.Stats {
	var s core.Stats
	for _, p := range r.parts {
		ps := p.Stats()
		s.Add(ps)
	}
	if len(r.parts) > 0 {
		s.Documents /= int64(len(r.parts))
	}
	return s
}

// PartitionStats returns each partition's own accumulated stats, indexed by
// partition (per-partition observability).
func (r *Router) PartitionStats() []core.Stats {
	out := make([]core.Stats, len(r.parts))
	for i, p := range r.parts {
		out[i] = p.Stats()
	}
	return out
}

// PartitionCounts reports each partition's live query and template counts.
func (r *Router) PartitionCounts() (queries, templates []int) {
	queries = make([]int, len(r.parts))
	templates = make([]int, len(r.parts))
	for i, p := range r.parts {
		queries[i] = p.NumQueries()
		templates[i] = p.NumTemplates()
	}
	return queries, templates
}

// ResetStats zeroes every partition's accumulated stats.
func (r *Router) ResetStats() {
	for _, p := range r.parts {
		p.ResetStats()
	}
}

// PlanStats concatenates the partitions' per-template planner records in
// partition order.
func (r *Router) PlanStats() []core.TemplatePlanStats {
	var out []core.TemplatePlanStats
	for _, p := range r.parts {
		out = append(out, p.PlanStats()...)
	}
	return out
}

// MaxDocID reports the largest document id present in any partition's join
// state (they agree unless GC divergence trims one earlier).
func (r *Router) MaxDocID() int64 {
	var max int64
	for _, p := range r.parts {
		if v := p.MaxDocID(); v > max {
			max = v
		}
	}
	return max
}

// ExportStates exports every partition's join state, indexed by partition.
// Call only while quiesced (a barrier), so all partitions export at the
// same consistent admission prefix.
func (r *Router) ExportStates() []core.StateSnapshot {
	out := make([]core.StateSnapshot, len(r.parts))
	for i, p := range r.parts {
		out[i] = p.ExportState()
	}
	return out
}

// RestoreStates restores every partition's join state from an ExportStates
// taken with the same partition count. Queries must have been re-registered
// first (in global-id order), exactly as Processor.RestoreState requires
// registration before state restore.
func (r *Router) RestoreStates(snaps []core.StateSnapshot) error {
	if len(snaps) != len(r.parts) {
		return fmt.Errorf("router: snapshot has %d partition states, router has %d partitions", len(snaps), len(r.parts))
	}
	for i, p := range r.parts {
		if err := p.RestoreState(snaps[i]); err != nil {
			return fmt.Errorf("partition %d: %w", i, err)
		}
	}
	return nil
}
