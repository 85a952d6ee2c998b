package mmqjp

import (
	"encoding/xml"
	"fmt"
	"maps"
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
	// ProcessorMMQJP is template-based multi-query join processing with the
	// Section-5 view materialization (Algorithm 4 of the paper). It is the
	// zero value, and it is what mmqjp-server runs.
	ProcessorMMQJP ProcessorKind = iota
	// ProcessorViewMat is ProcessorMMQJP under its older name: the two
	// values select the same evaluator.
	ProcessorViewMat
	// ProcessorSequential is the one-query-at-a-time baseline; it exists
	// for benchmarking and differential testing.
	ProcessorSequential
)

// Options configures an Engine.
type Options struct {
	// Processor selects the join strategy. The zero value, ProcessorMMQJP,
	// is the evaluator mmqjp-server runs.
	Processor ProcessorKind
	// PlanExploreEvery is ignored: the plan chooser whose calibration runs
	// it sampled is gone. The field stays only until the benchmark, which
	// names it, is re-fitted.
	PlanExploreEvery int
	// RetainDocuments keeps processed documents in memory so that match
	// outputs can be rendered as XML with Engine.OutputXML, for as long as
	// a later document may still join them (see OutputXML). Defaults to
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
	// OnDocument, when set, is called once per processed document with its
	// id and hot-path wall times, after the document has been fully
	// consumed — the hook observability wiring (histograms) hangs on. It
	// runs under the engine's lock, in the serial document order, so it
	// must be fast and non-blocking. Ignored by ProcessorSequential.
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
// concurrent use. A publish runs Stage 1 — the shared-NFA match and witness
// construction, which touch no join state — on the caller's goroutine, so
// concurrent publishers overlap it; the rest of the publish (Stage 2, the
// state merge, window expiry, delivery, the composition cascade) runs under
// e.mu, one document at a time, and documents enter the join state in the
// order their publishers acquire it. Subscribe and Unsubscribe exclude every
// publish, Stage 1 included; read-only accessors only exclude writers of
// e.mu.
type Engine struct {
	// reg is the registration lock. A publish holds its read side across
	// Stage 1 and the consume, so every document's witnesses are consumed
	// under the registration set they were built against; Subscribe and
	// Unsubscribe hold its write side. Lock order: reg, then mu.
	reg  sync.RWMutex
	mu   sync.RWMutex
	opts Options
	proc *core.Processor       // nil when Sequential
	seq  *sequential.Processor // nil otherwise

	// queries holds the live subscriptions' text by id, and publish the
	// PUBLISH streams (substrings of the text) of those that have one, so
	// an engine without a live PUBLISH query probes no map per match; the
	// join processor keeps its own row, never the parse tree. dropped
	// counts the deletions since the maps were last copied, and subBytes
	// is what their entries and the text occupy.
	//
	//mmqjp:guardedby e.mu
	queries map[QueryID]string
	//mmqjp:guardedby e.mu
	publish map[QueryID]string
	//mmqjp:guardedby e.mu
	dropped int
	//mmqjp:guardedby e.mu
	subBytes int64
	//mmqjp:guardedby e.mu
	docs map[xmldoc.DocID]*xmldoc.Document
	// departed lists the documents the last publish call let go of
	// (core.Processor.Departed), for the next one to drop (dropDeparted).
	//
	//mmqjp:guardedby e.mu
	departed []xmldoc.DocID
	// out is PublishDoc's compact result, written out as public matches
	// before the lock is released; it keeps its storage across calls.
	//
	//mmqjp:guardedby e.mu
	out Matches

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

// subscriptionBytes is what the facade keeps of a subscription with source
// text src and PUBLISH stream publish: its map entries and the text.
func subscriptionBytes(src, publish string) int64 {
	n := int64(unsafe.Sizeof(QueryID(0))+unsafe.Sizeof(src)) + int64(len(src))
	if publish != "" {
		n += int64(unsafe.Sizeof(QueryID(0)) + unsafe.Sizeof(publish))
	}
	return n
}

// New creates an engine.
func New(opts Options) *Engine {
	if opts.EnableComposition {
		opts.RetainDocuments = true
	}
	e := &Engine{opts: opts, queries: map[QueryID]string{}, docs: map[xmldoc.DocID]*xmldoc.Document{}, nextDerived: 1 << 40}
	switch opts.Processor {
	case ProcessorSequential:
		e.seq = sequential.NewProcessor()
	default:
		e.proc = core.NewProcessor(core.Config{OnDocument: opts.OnDocument})
	}
	return e
}

// Subscribe parses and registers an XSCL query, returning its id. It waits
// for the publishes in flight, Stage 1 included, and every document
// published after it returns is matched against the query.
func (e *Engine) Subscribe(src string) (QueryID, error) {
	q, err := xscl.Parse(src)
	if err != nil {
		return 0, err
	}
	e.reg.Lock()
	defer e.reg.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.subscribe(q)
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
	e.queries[id] = q.Source
	if q.Publish != "" {
		if e.publish == nil {
			e.publish = map[QueryID]string{}
		}
		e.publish[id] = q.Publish
	}
	e.subBytes += subscriptionBytes(q.Source, q.Publish)
	return id, nil
}

// Unsubscribe removes a subscription. The join processor reclaims everything
// the query no longer shares with surviving subscriptions — refcounted
// canonical templates, their query relations and indexes, pattern
// extraction demands, and (when the last subscription leaves) the whole join
// state. Matches already delivered are unaffected, and ids are never reused,
// not even by an engine OpenEngine restored from a snapshot taken after the
// Unsubscribe. Unsubscribing a PUBLISH query stops its composition
// cascade: downstream subscriptions on its output stream simply see no
// further derived documents, while an unsubscribed downstream query stops
// receiving cascaded matches — Unsubscribe serializes with every publish, so
// a cascade is never torn mid-document. Returns an error for an unknown or
// already-unsubscribed id. Like Subscribe, Unsubscribe waits for the
// publishes in flight: documents published before it keep their matches,
// documents published after it see the query gone.
func (e *Engine) Unsubscribe(id QueryID) error {
	e.reg.Lock()
	defer e.reg.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	src, ok := e.queries[id]
	if !ok {
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
	e.subBytes -= subscriptionBytes(src, e.publish[id])
	delete(e.queries, id)
	delete(e.publish, id)
	if e.dropped++; e.dropped > len(e.queries) {
		// As in core.Processor.Unregister: a copy holds only the live
		// entries, at an amortized O(1) per deletion.
		e.queries, e.publish, e.dropped = maps.Clone(e.queries), maps.Clone(e.publish), 0
	}
	if len(e.queries) == 0 {
		// The processor reclaimed its join state; release the retained
		// documents too, so a drained engine holds no per-document
		// memory. OutputXML for matches delivered before the drain
		// reports ok=false from here on.
		e.docs = map[xmldoc.DocID]*xmldoc.Document{}
		e.departed = nil
	}
	return nil
}

// Query returns the source text of a subscription ("" once unsubscribed).
func (e *Engine) Query(id QueryID) string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.queries[id]
}

// NumQueries returns the number of live subscriptions.
func (e *Engine) NumQueries() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.queries)
}

// Subscriptions returns the ids of all live subscriptions in ascending
// order — what a durable server iterates to rebuild its ownership table
// after OpenEngine.
func (e *Engine) Subscriptions() []QueryID {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]QueryID, 0, len(e.queries))
	for id := range e.queries { //mmqjp:unordered sorted below
		out = append(out, id)
	}
	slices.Sort(out)
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

// publishDocs is the one publish path, under the registration lock's read
// side: the first document's Stage 1 runs before e.mu is taken, so concurrent
// publishers overlap it, and the rest under one hold of e.mu. The matches are
// appended to dst; with a nil dst each document's are returned instead.
func (e *Engine) publishDocs(dst *Matches, stream string, docs []*Document) [][]Match {
	if len(docs) == 0 {
		return [][]Match{}
	}
	e.reg.RLock()
	defer e.reg.RUnlock()
	r := e.stage1(stream, docs[0])
	e.mu.Lock()
	defer e.mu.Unlock()
	e.dropDeparted()
	var out [][]Match
	if dst == nil {
		out = make([][]Match, len(docs))
	}
	for i, d := range docs {
		if i > 0 {
			r = e.stage1(stream, d)
		}
		if out == nil {
			e.consume(dst, stream, d, r, 0)
			continue
		}
		e.out.Reset()
		e.consume(&e.out, stream, d, r, 0)
		out[i] = e.appendMatches(nil, &e.out)
	}
	return out
}

// dropDeparted forgets the documents the previous publish call let go of. It
// runs at the start of a call, never inside one: under ROWS 1 a match's left
// document leaves in the Consume that emitted the match, and the cascade and
// the caller's OutputXML still read it.
//
//mmqjp:guardedby e.mu
func (e *Engine) dropDeparted() {
	for _, id := range e.departed {
		delete(e.docs, id)
	}
	e.departed = e.departed[:0]
}

// stage1 runs a document's Stage 1. The sequential baseline has no separate
// Stage 1: it returns nil there. Callers hold the registration lock.
func (e *Engine) stage1(stream string, d *Document) *core.Stage1Result {
	if e.proc == nil {
		return nil
	}
	return e.proc.RunStage1(stream, d)
}

// consume runs the order-sensitive rest of a publish for a document whose
// Stage 1 gave r: Stage 2 and the state merge, delivery of the matches to
// dst and the composition cascade.
//
//mmqjp:guardedby e.mu
func (e *Engine) consume(dst *Matches, stream string, d *Document, r *core.Stage1Result, depth int) {
	if e.opts.RetainDocuments {
		e.docs[d.ID] = d
	}
	from := len(dst.Entries)
	if e.seq != nil {
		// The baseline's matches carry the same fields under its own types.
		for _, m := range e.seq.Process(stream, d) {
			dst.Append(Match{
				Query:   QueryID(m.Query),
				LeftDoc: int64(m.LeftDoc), RightDoc: int64(m.RightDoc),
				LeftTS: int64(m.LeftTS), RightTS: int64(m.RightTS),
				leftRoot: m.LeftRoot, rightRoot: m.RightRoot,
			})
		}
	} else {
		ms := e.proc.Consume(r)
		if e.opts.RetainDocuments {
			e.departed = append(e.departed, e.proc.Departed()...)
		}
		e.deliver(dst, ms)
	}
	e.cascade(dst, from, depth)
}

// deliver appends a document's result to dst in compact form: one frame per
// run of the processor's result and one for its singles
// (core.Matches.Sources), then one entry per match in canonical order, a
// stretch at a time: a window class's queries times its runs, query-major,
// or single-block matches. This is the one place the processor's result is
// read: its view is only valid until it consumes its next document or its
// registrations change, so consume calls deliver before anything else —
// the cascade included — and under the registration lock's read side.
//
//mmqjp:guardedby e.mu
func (e *Engine) deliver(dst *Matches, ms *core.Matches) {
	base := int32(len(dst.Frames))
	for src := range ms.Sources() {
		m := ms.Frame(src)
		dst.Frames = append(dst.Frames, Frame{
			LeftDoc: int64(m.LeftDoc), RightDoc: int64(m.RightDoc),
			LeftTS: int64(m.LeftTS), RightTS: int64(m.RightTS),
		})
	}
	out := slices.Grow(dst.Entries, ms.Len())
	singlesFrame := base + int32(ms.Sources()) - 1
	ms.Start()
	for {
		qids, srcs, singles, ok := ms.Stretch()
		if !ok {
			break
		}
		for i := range singles {
			m := &singles[i]
			out = append(out, MatchEntry{Query: QueryID(m.Query), Frame: singlesFrame, leftRoot: m.LeftRoot, rightRoot: m.RightRoot})
		}
		for _, q := range qids {
			for _, src := range srcs {
				key := ms.Frame(int(src))
				out = append(out, MatchEntry{Query: QueryID(q), Frame: base + src, leftRoot: key.LeftRoot, rightRoot: key.RightRoot})
			}
		}
	}
	dst.Entries = out
}

// cascade republishes each match of dst.Entries[from:] — one document's own
// matches — whose query has a PUBLISH clause as a derived document and
// appends the resulting matches. Derived matches cascade recursively inside
// their own publish call, so only that part of the result is scanned here.
//
//mmqjp:guardedby e.mu
func (e *Engine) cascade(dst *Matches, from, depth int) {
	if !e.opts.EnableComposition || len(e.publish) == 0 {
		return
	}
	for i, n := from, len(dst.Entries); i < n; i++ {
		m := dst.Match(i)
		publish := e.publish[m.Query]
		if publish == "" {
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
		e.consume(dst, publish, derived, e.stage1(publish, derived), depth+1)
	}
}

// Close is a no-op: an engine starts no goroutine and holds nothing that
// needs releasing. It is kept so that callers which close their engines keep
// compiling.
func (e *Engine) Close() {}

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

// OutputXML renders the default SELECT * output document of a match: a new
// root whose two subtrees are the matched block roots from the two joined
// documents. It requires Options.RetainDocuments; otherwise ok is false.
//
// A document is kept from its publish until the start of the first publish
// call after it left the join state (by window expiry, or at once when it
// carries no value a join reads). So a match renders until the engine's next
// publish call, whoever makes it, and after that while both its documents are
// in the window. A snapshot keeps the join state's documents; the last
// Unsubscribe drops all. ProcessorSequential keeps every document.
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
// its live vector groups and how often its compiled program ran. See
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
