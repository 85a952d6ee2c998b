package mmqjp

import (
	"encoding/xml"
	"fmt"
	"slices"
	"strings"
	"sync"
	"unsafe"

	"repro/internal/core"
	"repro/internal/sequential"
	"repro/internal/xmldoc"
	"repro/internal/xscl"
)

// ProcessorKind selects the join processing strategy.
type ProcessorKind int

const (
	// ProcessorMMQJP is template-based multi-query join processing
	// (Algorithm 1 of the paper). It is the zero value, so an Options
	// literal that does not set Processor runs this evaluator.
	ProcessorMMQJP ProcessorKind = iota
	// ProcessorViewMat is MMQJP with the Section-5 view materialization
	// and per-string view cache (Algorithm 4). It is what mmqjp-server
	// runs by default (-viewmat=true). Neither evaluator wins everywhere;
	// TUNING.md has the measured comparison.
	ProcessorViewMat
	// ProcessorSequential is the one-query-at-a-time baseline; it exists
	// for benchmarking and differential testing.
	ProcessorSequential
)

// Plan selects the Stage-2 physical plan for template conjunctive queries.
type Plan int

const (
	// PlanAuto is the default: the witness-driven plan, whose walk extends
	// a trie of the registered variable vectors with every variable it
	// binds, so it probes only what some subscription registered.
	PlanAuto Plan = iota
	// PlanWitness names the witness-driven plan (join outward from the
	// current document's value-join pairs) explicitly; it runs as PlanAuto.
	PlanWitness
	// PlanRTDriven forces the RT-driven plan (iterate the query
	// relation's distinct variable vectors with index probes) —
	// ablations and tests.
	PlanRTDriven
)

// ParsePlan parses a plan name as accepted by the server's -plan flag:
// "auto", "witness", or "rt" (also "rtdriven"/"rt-driven").
func ParsePlan(s string) (Plan, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "auto", "":
		return PlanAuto, nil
	case "witness":
		return PlanWitness, nil
	case "rt", "rtdriven", "rt-driven":
		return PlanRTDriven, nil
	}
	return PlanAuto, fmt.Errorf("mmqjp: unknown plan %q (want auto, witness or rt)", s)
}

// Options configures an Engine.
type Options struct {
	// Processor selects the join strategy. The zero value is
	// ProcessorMMQJP (no view materialization); mmqjp-server defaults to
	// ProcessorViewMat, so set this field explicitly to get the same
	// evaluator from the library.
	Processor ProcessorKind
	// Plan selects the Stage-2 physical plan (default PlanAuto, the
	// witness-driven plan; PlanRTDriven is an ablation). Match output is
	// byte-identical for every setting; only cost differs. Ignored by
	// ProcessorSequential.
	Plan Plan
	// PlanExploreEvery is ignored: the plan chooser whose calibration runs
	// it sampled is gone. The field stays only until the benchmark, which
	// names it, is re-fitted.
	PlanExploreEvery int
	// RetainDocuments keeps processed documents in memory so that match
	// outputs can be rendered as XML with Engine.OutputXML. Defaults to
	// false: high-volume deployments usually only need match metadata.
	RetainDocuments bool
	// EnableComposition activates the PUBLISH clause: a match of a query
	// with PUBLISH <name> is converted into its default output document
	// (a result root with the two matched block subtrees) and processed
	// as a new event on stream <name>, so queries can consume other
	// queries' outputs. Implies RetainDocuments. Derived documents
	// cascade up to MaxCompositionDepth levels.
	EnableComposition bool
	// Parallelism is ignored: Stage 2 runs on the goroutine that publishes
	// the document. The field stays only until the benchmark, which names
	// it, is re-fitted.
	Parallelism int
	// PipelineDepth bounds how many upcoming documents of a PublishBatch
	// call may have Stage 1 (XML parse, shared-NFA match, witness
	// construction) running ahead of the in-order Stage-2 consumption
	// (0 or 1 = fully sequential). Match output is identical for every
	// depth; per-Publish calls are unaffected. Ignored by
	// ProcessorSequential.
	PipelineDepth int
	// OnDocument, when set, is called once per processed document with its
	// hot-path wall times, after the document has been fully consumed —
	// the hook observability wiring (histograms) hangs on. It runs on the
	// document's consuming goroutine and must be fast and non-blocking.
	// Ignored by ProcessorSequential.
	OnDocument func(DocTimings)
}

// DocTimings is one document's hot-path wall-time breakdown, delivered to
// Options.OnDocument.
type DocTimings = core.DocTimings

// MaxCompositionDepth bounds cascading through PUBLISH streams, guarding
// against cyclic query networks.
const MaxCompositionDepth = 16

// QueryID identifies a subscription.
type QueryID int64

// Match is one query result delivered to the subscriber: the query that
// fired and the two documents (by id and timestamp) that satisfied its join.
// For single-block queries both sides refer to the same document.
type Match struct {
	Query   QueryID
	Publish string // the query's PUBLISH stream name, if any

	LeftDoc, RightDoc int64
	LeftTS, RightTS   int64

	leftRoot, rightRoot xmldoc.NodeID
}

// Engine is an XML publish/subscribe engine: register XSCL subscriptions,
// publish documents, receive matches, unsubscribe. All methods are safe for
// concurrent use: Subscribe, Unsubscribe and Publish serialize against each
// other (documents enter the join state one at a time), while read-only
// accessors only exclude writers. PublishAsync additionally
// overlaps the document-local Stage-1 work of concurrently admitted
// documents through a persistent ingest pipeline (see PublishAsync).
type Engine struct {
	mu   sync.RWMutex
	opts Options
	proc *core.Processor       // nil when Sequential
	seq  *sequential.Processor // nil otherwise

	// ingestMu guards the lazily started continuous ingest pipeline. It is
	// also held across direct (pipeline-less) Subscribe/Unsubscribe calls,
	// so the pipeline cannot spin up — and start Stage-1 workers that read
	// the registration structures — in the middle of a registration.
	ingestMu sync.Mutex
	//mmqjp:guardedby e.ingestMu
	ing *core.Ingest

	// queries is indexed by QueryID; Unsubscribe leaves a nil slot so ids
	// stay stable across churn. numQueries counts live subscriptions and
	// subBytes what their records and text occupy here.
	//
	//mmqjp:guardedby e.mu
	queries []*subscription
	//mmqjp:guardedby e.mu
	numQueries int
	//mmqjp:guardedby e.mu
	subBytes int64
	//mmqjp:guardedby e.mu
	docs map[xmldoc.DocID]*xmldoc.Document

	// nextDerived allocates ids for documents synthesized by query
	// composition, well away from caller-assigned ids.
	//
	//mmqjp:guardedby e.mu
	nextDerived int64
	// droppedCascades counts derived documents discarded at
	// MaxCompositionDepth (a symptom of a cyclic query network).
	//
	//mmqjp:guardedby e.mu
	droppedCascades int64
}

// subscription is what the facade keeps of a live subscription once it is
// registered: the query's text (Query, Snapshot) and its PUBLISH stream (a
// substring of the text), not the parsed query — the join processor keeps its
// own row, and the parse tree is garbage after Subscribe returns.
type subscription struct {
	source, publish string
}

func (s *subscription) bytes() int64 {
	return int64(unsafe.Sizeof(*s)) + int64(len(s.source))
}

// New creates an engine.
func New(opts Options) *Engine {
	if opts.EnableComposition {
		opts.RetainDocuments = true
	}
	e := &Engine{opts: opts, docs: map[xmldoc.DocID]*xmldoc.Document{}, nextDerived: 1 << 40}
	switch opts.Processor {
	case ProcessorSequential:
		e.seq = sequential.NewProcessor()
	default:
		e.proc = core.NewProcessor(core.Config{
			ViewMaterialization: opts.Processor == ProcessorViewMat,
			RetainDocuments:     opts.RetainDocuments,
			Plan:                core.PlanKind(opts.Plan),
			PipelineDepth:       opts.PipelineDepth,
			OnDocument:          opts.OnDocument,
		})
	}
	return e
}

// Subscribe parses and registers an XSCL query, returning its id. While the
// continuous ingest pipeline is live (see PublishAsync), registration runs
// at a pipeline barrier: every document admitted before the Subscribe is
// fully processed first, and no later document starts Stage 1 until the
// registration completes — so a subscription's position in the admission
// order is exact, at the cost of one pipeline drain.
func (e *Engine) Subscribe(src string) (QueryID, error) {
	q, err := xscl.Parse(src)
	if err != nil {
		return 0, err
	}
	var id QueryID
	e.atBarrier(func() {
		e.mu.Lock()
		defer e.mu.Unlock()
		id, err = e.subscribe(q)
	})
	return id, err
}

// atBarrier runs fn — a registration or a snapshot, which takes e.mu itself —
// at a point where no Stage-1 work is in flight: at a barrier of the
// continuous ingest pipeline while it is live (every document admitted
// before is fully processed, none admitted after has started), directly
// otherwise.
func (e *Engine) atBarrier(fn func()) {
	e.ingestMu.Lock()
	ing := e.ing
	if ing == nil {
		// No pipeline: run directly. ingestMu is held across fn so a
		// concurrent first PublishAsync cannot start Stage-1 workers
		// mid-registration.
		defer e.ingestMu.Unlock()
		fn()
		return
	}
	e.ingestMu.Unlock()
	if err := ing.Barrier(fn); err != nil {
		// The pipeline was closed concurrently; wait for its drain so no
		// Stage-1 work is in flight, then run directly.
		ing.Wait()
		fn()
	}
}

// MustSubscribe is Subscribe, panicking on error (examples, tests).
func (e *Engine) MustSubscribe(src string) QueryID {
	id, err := e.Subscribe(src)
	if err != nil {
		panic(err)
	}
	return id
}

// subscribe registers one parsed query under the next QueryID.
//
//mmqjp:guardedby e.mu
func (e *Engine) subscribe(q *xscl.Query) (QueryID, error) {
	var id QueryID
	if e.seq != nil {
		sid, err := e.seq.Register(q)
		if err != nil {
			return 0, err
		}
		id = QueryID(sid)
	} else {
		cid, err := e.proc.Register(q)
		if err != nil {
			return 0, err
		}
		id = QueryID(cid)
	}
	sub := &subscription{source: q.Source, publish: q.Publish}
	e.queries = append(e.queries, sub)
	e.numQueries++
	e.subBytes += sub.bytes()
	return id, nil
}

// Unsubscribe removes a subscription. The join processor reclaims everything
// the query no longer shares with surviving subscriptions — refcounted
// canonical templates, per-shard query relations and indexes, pattern
// extraction demands, and (when the last subscription leaves) the whole join
// state and view caches. Matches already delivered are unaffected, and ids
// are never reused. Unsubscribing a PUBLISH query stops its composition
// cascade: downstream subscriptions on its output stream simply see no
// further derived documents, while an unsubscribed downstream query stops
// receiving cascaded matches — Unsubscribe serializes with Publish, so a
// cascade is never torn mid-document. Returns an error for an unknown or
// already-unsubscribed id. Like Subscribe, Unsubscribe runs at a pipeline
// barrier while the continuous ingest pipeline is live: documents admitted
// before it keep their matches, documents admitted after it see the query
// gone.
func (e *Engine) Unsubscribe(id QueryID) error {
	var err error
	e.atBarrier(func() { err = e.unsubscribe(id) })
	return err
}

func (e *Engine) unsubscribe(id QueryID) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if id < 0 || int(id) >= len(e.queries) || e.queries[id] == nil {
		return fmt.Errorf("mmqjp: unknown subscription %d", id)
	}
	if e.seq != nil {
		if err := e.seq.Unregister(sequential.QueryID(id)); err != nil {
			return err
		}
	} else {
		if err := e.proc.Unregister(core.QueryID(id)); err != nil {
			return err
		}
	}
	e.subBytes -= e.queries[id].bytes()
	e.queries[id] = nil
	e.numQueries--
	if e.numQueries == 0 {
		// The processor reclaimed its join state; release the retained
		// documents too, so a drained engine holds no per-document
		// memory. OutputXML for matches delivered before the drain
		// reports ok=false from here on.
		e.docs = map[xmldoc.DocID]*xmldoc.Document{}
	}
	return nil
}

// Query returns the source text of a subscription ("" once unsubscribed).
func (e *Engine) Query(id QueryID) string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if id < 0 || int(id) >= len(e.queries) || e.queries[id] == nil {
		return ""
	}
	return e.queries[id].source
}

// NumQueries returns the number of live subscriptions.
func (e *Engine) NumQueries() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.numQueries
}

// Subscriptions returns the ids of all live subscriptions in ascending
// order — what a durable server iterates to rebuild its ownership table
// after OpenEngine.
func (e *Engine) Subscriptions() []QueryID {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]QueryID, 0, e.numQueries)
	for id, q := range e.queries {
		if q != nil {
			out = append(out, QueryID(id))
		}
	}
	return out
}

// NumTemplates returns the number of distinct query templates maintained by
// the join processor (0 in sequential mode, where there is no sharing).
func (e *Engine) NumTemplates() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.proc == nil {
		return 0
	}
	return e.proc.NumTemplates()
}

// Publish processes a document on the named stream and returns the matches
// it triggered, in deterministic order. With composition enabled, matches of
// PUBLISH queries cascade into their output streams and the derived matches
// are included in the result. Concurrent Publish calls are serialized;
// documents enter the join state in lock-acquisition order.
//
// Publish is shorthand for PublishDoc(stream, d); the PublishDoc options
// cover batches, raw XML, and pipeline admission.
func (e *Engine) Publish(stream string, d *Document) []Match {
	return e.publishOne(stream, d)
}

func (e *Engine) publishOne(stream string, d *Document) []Match {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.publish(nil, stream, d, 0)
}

// publish processes one document, runs the composition cascade and appends
// the matches to dst.
//
//mmqjp:guardedby e.mu
func (e *Engine) publish(dst []Match, stream string, d *Document, depth int) []Match {
	if e.opts.RetainDocuments {
		e.docs[d.ID] = d
	}
	if e.seq != nil {
		return e.cascade(e.deliver(dst, &sequentialMatches{ms: e.seq.Process(stream, d)}), len(dst), depth)
	}
	return e.cascade(e.deliver(dst, e.proc.Consume(e.proc.RunStage1(stream, d))), len(dst), depth)
}

// orderedMatches is a document's result as a processor hands it over: in
// canonical order and not yet written out (core.Matches; the sequential
// baseline's slice).
type orderedMatches interface {
	Len() int
	At(i int) *core.Match
}

// sequentialMatches presents the baseline processor's result, which carries
// the same fields under its own types, as orderedMatches; At converts into
// cur, so reading costs the baseline no allocation.
type sequentialMatches struct {
	ms  []sequential.Match
	cur core.Match
}

func (s *sequentialMatches) Len() int { return len(s.ms) }

func (s *sequentialMatches) At(i int) *core.Match {
	m := &s.ms[i]
	s.cur = core.Match{
		Query:   core.QueryID(m.Query),
		LeftDoc: m.LeftDoc, RightDoc: m.RightDoc,
		LeftTS: m.LeftTS, RightTS: m.RightTS,
		LeftRoot: m.LeftRoot, RightRoot: m.RightRoot,
	}
	return &s.cur
}

// deliver writes a document's result out as public matches appended to dst —
// a slice the caller owns: nil everywhere but under AppendPublishXML —
// resolving each query's PUBLISH stream from its subscription record. This is
// the one place the result is materialised, whatever the ingest shape: the
// processor's view is only valid until it consumes its next document, so every
// consume point calls deliver before anything else — the cascade included.
//
//mmqjp:guardedby e.mu
func (e *Engine) deliver(dst []Match, ms orderedMatches) []Match {
	n := ms.Len()
	if n == 0 {
		return dst
	}
	at := len(dst)
	out := slices.Grow(dst, n)[:at+n]
	for i := 0; i < n; i++ {
		m := ms.At(i)
		out[at+i] = Match{
			Query:   QueryID(m.Query),
			Publish: e.queries[m.Query].publish,
			LeftDoc: int64(m.LeftDoc), RightDoc: int64(m.RightDoc),
			LeftTS: int64(m.LeftTS), RightTS: int64(m.RightTS),
			leftRoot: m.LeftRoot, rightRoot: m.RightRoot,
		}
	}
	return out
}

// cascade republishes each PUBLISH match of out[from:] — one document's own
// matches — as a derived document and appends the resulting matches. Derived
// matches cascade recursively inside their own publish call, so only that
// part of the slice is scanned here.
//
//mmqjp:guardedby e.mu
func (e *Engine) cascade(out []Match, from, depth int) []Match {
	if !e.opts.EnableComposition {
		return out
	}
	for _, m := range out[from:] {
		if m.Publish == "" {
			continue
		}
		if depth >= MaxCompositionDepth {
			e.droppedCascades++
			continue
		}
		derived, ok := e.deriveDocument(m)
		if !ok {
			continue
		}
		out = e.publish(out, m.Publish, derived, depth+1)
	}
	return out
}

// PublishBatch processes docs on stream in arrival order and returns each
// document's matches — exactly what len(docs) consecutive Publish calls
// would return, for every Options.PipelineDepth. With PipelineDepth > 1 the
// Stage-1 work (shared-NFA match, witness construction) of up to
// PipelineDepth upcoming documents runs in worker goroutines while Stage 2,
// the state merge, and window GC are applied strictly in arrival order, so
// join state and window semantics are identical to the sequential path.
// Like Publish, the whole batch is serialized against other writers.
//
// PublishBatch is shorthand for PublishDoc(stream, nil, WithDocs(docs...)).
func (e *Engine) PublishBatch(stream string, docs []*Document) [][]Match {
	return e.publishMany(stream, docs)
}

func (e *Engine) publishMany(stream string, docs []*Document) [][]Match {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([][]Match, len(docs))
	if e.seq != nil {
		for i, d := range docs {
			out[i] = e.publish(nil, stream, d, 0)
		}
		return out
	}
	if e.opts.RetainDocuments {
		for _, d := range docs {
			e.docs[d.ID] = d
		}
	}
	e.proc.ProcessBatchFunc(stream, docs, func(i int, cms *core.Matches) {
		// Composition cascades run here, between batch documents, at the
		// same point the per-document Publish path would run them; the
		// derived documents' processing is safe alongside the pipeline's
		// Stage-1 workers, which never touch the join state.
		out[i] = e.cascade(e.deliver(nil, cms), 0, 0)
	})
	return out
}

// PublishAsync admits a document into the engine's continuous ingest
// pipeline and returns a buffered channel that receives the document's
// matches (exactly one send, then a close) once it has been fully
// processed. Admission order — the order concurrent PublishAsync calls are
// admitted — is the serial document order: per-document match output is
// byte-identical to calling Publish in that order, for every PipelineDepth.
// Unlike Publish, concurrent publishers
// do not serialize the whole call: the document-local Stage-1 work (NFA
// match, witness construction) of up to PipelineDepth+1 admitted documents
// runs concurrently in a persistent worker pool while Stage 2, the state
// merge and window GC are applied strictly in admission order, under the
// same lock a serial Publish holds. PublishAsync blocks while the pipeline
// is at its admission bound (backpressure).
//
// The pipeline starts lazily on the first call and runs until Close.
// Composition cascades fire before delivery, exactly as in Publish, and the
// derived matches are included in the delivered slice. With
// ProcessorSequential (no Stage-1/Stage-2 split), or after Close, the
// document is published synchronously and the channel is already resolved
// on return.
//
// PublishAsync is shorthand for PublishDoc(stream, d, WithAsync()).
func (e *Engine) PublishAsync(stream string, d *Document) <-chan []Match {
	return e.publishAsync(stream, d)
}

func (e *Engine) publishAsync(stream string, d *Document) <-chan []Match {
	out := make(chan []Match, 1)
	if e.proc == nil {
		out <- e.Publish(stream, d)
		close(out)
		return out
	}
	err := e.ingestPipeline().Submit(stream, d, func(cms *core.Matches) {
		// Runs on the pipeline coordinator under e.mu (write), in
		// admission order — the same critical section a serial Publish
		// holds for this document.
		//mmqjp:guardedby e.mu
		if e.opts.RetainDocuments {
			e.docs[d.ID] = d
		}
		out <- e.cascade(e.deliver(nil, cms), 0, 0)
		close(out)
	})
	if err != nil {
		// The pipeline was closed: degrade to a synchronous publish.
		out <- e.Publish(stream, d)
		close(out)
	}
	return out
}

// ingestPipeline returns the continuous ingest pipeline, starting it on
// first use. The engine's writer lock is the pipeline's consume lock, so
// asynchronous consumption excludes readers and synchronous writers exactly
// like a serial Publish.
func (e *Engine) ingestPipeline() *core.Ingest {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	if e.ing == nil {
		e.ing = core.NewIngest(e.proc, core.IngestConfig{Depth: e.opts.PipelineDepth, Lock: &e.mu})
	}
	return e.ing
}

// IngestQueueDepth reports the number of documents admitted into the
// continuous ingest pipeline but not yet consumed — an instantaneous sample
// of the admission queue (0 when the pipeline has never started).
func (e *Engine) IngestQueueDepth() int {
	e.ingestMu.Lock()
	ing := e.ing
	e.ingestMu.Unlock()
	if ing == nil {
		return 0
	}
	return ing.QueueDepth()
}

// IngestStalls reports how many PublishAsync admissions have blocked on a
// full admission queue (backpressure) since the pipeline started.
func (e *Engine) IngestStalls() int64 {
	e.ingestMu.Lock()
	ing := e.ing
	e.ingestMu.Unlock()
	if ing == nil {
		return 0
	}
	return ing.Stalls()
}

// Flush blocks until every document admitted by PublishAsync before the
// call has been fully processed and its matches delivered. It is a no-op
// when the pipeline has never started or is closed.
func (e *Engine) Flush() {
	e.ingestMu.Lock()
	ing := e.ing
	e.ingestMu.Unlock()
	if ing == nil {
		return
	}
	if err := ing.Flush(); err != nil {
		ing.Wait()
	}
}

// Close drains and permanently stops the continuous ingest pipeline:
// documents already admitted are fully processed and delivered first.
// Every other engine method keeps working — PublishAsync itself degrades to
// synchronous per-call delivery. Close is idempotent, and a no-op when
// PublishAsync was never used.
func (e *Engine) Close() {
	e.ingestMu.Lock()
	ing := e.ing
	e.ingestMu.Unlock()
	if ing != nil {
		ing.Close()
	}
}

// XMLEvent is one document of a PublishXMLBatch: the raw XML text plus the
// document id and timestamp the corresponding PublishXML call would receive.
type XMLEvent struct {
	XML       string
	DocID     int64
	Timestamp int64
}

// PublishXMLBatch parses a batch of XML documents and publishes them in
// order via PublishBatch. Parsing runs concurrently (bounded by
// Options.PipelineDepth) before the batch enters the engine; a parse error
// on any document fails the whole batch with a *DocumentError without
// publishing anything.
//
// PublishXMLBatch is shorthand for
// PublishDoc(stream, nil, WithXMLEvents(events...)).
func (e *Engine) PublishXMLBatch(stream string, events []XMLEvent) ([][]Match, error) {
	res, err := e.PublishDoc(stream, nil, WithXMLEvents(events...))
	if err != nil {
		return nil, err
	}
	if res.Batches == nil {
		res.Batches = make([][]Match, 0)
	}
	return res.Batches, nil
}

// DroppedCascades reports derived documents discarded at the composition
// depth limit since the engine was created.
func (e *Engine) DroppedCascades() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.droppedCascades
}

// deriveDocument builds the default SELECT * output document of a match: a
// result root whose children are copies of the two matched subtrees. The
// subtrees are rooted at the template side roots — equal to the paper's
// block roots whenever the block root is the least common ancestor of the
// value-joined variables (always true for queries with two or more
// predicates on different branches); for single-predicate queries the
// output carries the joined leaf's subtree. The derived document's
// timestamp is the triggering (later) event time.
//
//mmqjp:guardedby e.mu
func (e *Engine) deriveDocument(m Match) (*Document, bool) {
	ld := e.docs[xmldoc.DocID(m.LeftDoc)]
	rd := e.docs[xmldoc.DocID(m.RightDoc)]
	if ld == nil || rd == nil {
		return nil, false
	}
	ts := m.RightTS
	if m.LeftTS > ts {
		ts = m.LeftTS
	}
	e.nextDerived++
	b := xmldoc.NewBuilder(xmldoc.DocID(e.nextDerived), xmldoc.Timestamp(ts), "result")
	copySubtree(b, 0, ld, m.leftRoot)
	if m.LeftDoc != m.RightDoc || m.leftRoot != m.rightRoot {
		copySubtree(b, 0, rd, m.rightRoot)
	}
	return b.Build(), true
}

// copySubtree copies the subtree of src rooted at node under parent in b.
func copySubtree(b *xmldoc.Builder, parent xmldoc.NodeID, src *xmldoc.Document, node xmldoc.NodeID) {
	n := src.Node(node)
	if n.Kind == xmldoc.AttributeNode {
		b.Attribute(parent, n.Name, src.StringValue(node))
		return
	}
	id := b.Element(parent, n.Name, src.Text(node))
	for _, c := range n.Children {
		copySubtree(b, id, src, c)
	}
}

// PublishXML parses an XML document and publishes it. A parse failure is
// reported as a *DocumentError, the same contract as PublishXMLBatch.
//
// PublishXML is shorthand for
// PublishDoc(stream, nil, WithXML(xmlText, docID, timestamp)).
func (e *Engine) PublishXML(stream, xmlText string, docID, timestamp int64) ([]Match, error) {
	res, err := e.PublishDoc(stream, nil, WithXML(xmlText, docID, timestamp))
	if err != nil {
		return nil, err
	}
	return res.Matches(), nil
}

// AppendPublishXML is PublishXML with the result buffer brought by the
// caller: the document's matches — cascaded ones included — are appended to
// dst and the extended slice is returned, so a caller that is done with one
// document's matches before it publishes the next (the server encodes them
// into its reply) passes the same buffer every time and a publish allocates
// nothing for its result. On a parse failure dst is returned as it came.
func (e *Engine) AppendPublishXML(dst []Match, stream, xmlText string, docID, timestamp int64) ([]Match, error) {
	d, err := ParseDocument(xmlText, docID, timestamp)
	if err != nil {
		return dst, &DocumentError{Index: 0, DocID: docID, Err: err}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.publish(dst, stream, d, 0), nil
}

// OutputXML renders the default SELECT * output document of a match: a new
// root whose two subtrees are the matched block roots from the two joined
// documents. It requires Options.RetainDocuments; otherwise ok is false.
func (e *Engine) OutputXML(m Match) (xml string, ok bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	ld := e.docs[xmldoc.DocID(m.LeftDoc)]
	rd := e.docs[xmldoc.DocID(m.RightDoc)]
	if ld == nil || rd == nil {
		return "", false
	}
	var sb strings.Builder
	sb.WriteString("<result>")
	sb.WriteString(subtreeXML(ld, m.leftRoot))
	if m.LeftDoc != m.RightDoc || m.leftRoot != m.rightRoot {
		sb.WriteString(subtreeXML(rd, m.rightRoot))
	}
	sb.WriteString("</result>")
	return sb.String(), true
}

// TemplatePlanStats is one query template's Stage-2 snapshot: its signature,
// its live vector groups and how often each step order ran. See
// Engine.PlanStats.
type TemplatePlanStats = core.TemplatePlanStats

// PlanStats returns the per-template Stage-2 statistics of the live query
// templates, in template order. It returns nil in sequential mode, where
// there are no templates.
func (e *Engine) PlanStats() []TemplatePlanStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.proc == nil {
		return nil
	}
	return e.proc.PlanStats()
}

// Document is a parsed XML document with stream metadata. Construct one with
// ParseDocument or NewDocumentBuilder.
type Document = xmldoc.Document

// DocumentBuilder constructs documents programmatically.
type DocumentBuilder = xmldoc.Builder

// ParseDocument parses XML text into a publishable document.
func ParseDocument(xmlText string, docID, timestamp int64) (*Document, error) {
	return xmldoc.ParseString(xmlText, xmldoc.DocID(docID), xmldoc.Timestamp(timestamp))
}

// NewDocumentBuilder returns a builder for a document with the given root
// element.
func NewDocumentBuilder(docID, timestamp int64, rootName string) *DocumentBuilder {
	return xmldoc.NewBuilder(xmldoc.DocID(docID), xmldoc.Timestamp(timestamp), rootName)
}

// subtreeXML serializes the subtree rooted at id.
func subtreeXML(d *xmldoc.Document, id xmldoc.NodeID) string {
	var sb strings.Builder
	writeSubtree(&sb, d, id)
	return sb.String()
}

// writeSubtree emits well-formed XML: text and attribute values are
// XML-escaped (xml.EscapeText escapes the quote characters too, so it is
// safe inside double-quoted attribute values) — a value like the paper's
// "Scripting &amp; Programming" must round-trip through an XML parser.
func writeSubtree(sb *strings.Builder, d *xmldoc.Document, id xmldoc.NodeID) {
	n := d.Node(id)
	if n.Kind == xmldoc.AttributeNode {
		sb.WriteString(`<attr name="`)
		xmlEscape(sb, n.Name)
		sb.WriteString(`">`)
		xmlEscape(sb, d.StringValue(id))
		sb.WriteString("</attr>")
		return
	}
	sb.WriteByte('<')
	sb.WriteString(n.Name)
	for _, c := range n.Children {
		cn := d.Node(c)
		if cn.Kind == xmldoc.AttributeNode {
			sb.WriteByte(' ')
			sb.WriteString(cn.Name)
			sb.WriteString(`="`)
			xmlEscape(sb, d.StringValue(c))
			sb.WriteByte('"')
		}
	}
	sb.WriteByte('>')
	if d.IsLeaf(id) {
		xmlEscape(sb, d.StringValue(id))
	}
	for _, c := range n.Children {
		if d.Node(c).Kind == xmldoc.ElementNode {
			writeSubtree(sb, d, c)
		}
	}
	sb.WriteString("</")
	sb.WriteString(n.Name)
	sb.WriteByte('>')
}

// xmlEscape writes s XML-escaped. strings.Builder never returns a write
// error, so neither can xml.EscapeText.
func xmlEscape(sb *strings.Builder, s string) {
	_ = xml.EscapeText(sb, []byte(s))
}
