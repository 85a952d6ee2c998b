package mmqjp

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"unsafe"

	"repro/internal/xmldoc"
)

// Publishing has two entry points, PublishDoc and AppendPublishXML. Both
// parse every raw-XML input before publishing anything: a parse failure fails
// the whole call with a *DocumentError naming the document. An engine that
// keeps nothing of a document once its publish returns (keepsDocuments)
// parses raw XML into pooled documents.

// docPool holds the documents raw XML is parsed into when the engine keeps
// none: a document's node table and Children slab come back with it, so a
// steady stream reparses into storage its earlier documents grew.
//
//mmqjp:pooled a document is put back when the publish call that parsed it returns, only by an engine that keeps no document (keepsDocuments): the join state copies the join values it keeps and the Stage-1 result drops its document in Consume, so nothing reads the document after the call; putDoc zeroes its node table, so a pooled document holds no string into any caller's text, and drops it when it is more than twice the size its last text could need; caller-supplied documents (WithDocs) never enter the pool
var docPool = sync.Pool{New: func() any { return new(Document) }}

// keepsDocuments reports whether a document outlives its publish call:
// RetainDocuments keeps it for OutputXML (composition implies that), and the
// sequential baseline stores its leaf string values, substrings of the
// document's text.
func (e *Engine) keepsDocuments() bool {
	return e.opts.RetainDocuments || e.seq != nil
}

// parseXML parses one raw XML document: into a pooled document when the
// engine keeps none (release gives it back), into a new one otherwise.
func (e *Engine) parseXML(xmlText string, docID, timestamp int64) (*Document, error) {
	if e.keepsDocuments() {
		return ParseDocument(xmlText, docID, timestamp)
	}
	d := docPool.Get().(*Document)
	if err := xmldoc.ParseInto(d, xmlText, xmldoc.DocID(docID), xmldoc.Timestamp(timestamp)); err != nil {
		putDoc(d, len(xmlText))
		return nil, err
	}
	return d, nil
}

// release gives back a document parseXML parsed from textLen bytes, once its
// publish call is done with it.
func (e *Engine) release(d *Document, textLen int) {
	if !e.keepsDocuments() {
		putDoc(d, textLen)
	}
}

// putDoc empties a pooled document parsed from textLen bytes and puts it
// back, unless its node table has room for more than twice the nodes the
// text could make (one per four bytes): the storage an outsized document
// grew goes with the first smaller one after it. Emptying drops every
// node's strings, which point into the caller's text, and leaves the whole
// table zero, as xmldoc.ParseInto expects to find it.
func putDoc(d *Document, textLen int) {
	if cap(d.Nodes) > textLen/2 {
		return
	}
	clear(d.Nodes)
	d.Nodes = d.Nodes[:0]
	docPool.Put(d)
}

// ErrAsyncBatch is returned by PublishDoc when WithAsync is combined with
// anything other than exactly one document: PublishResult.Done carries one
// document's matches.
var ErrAsyncBatch = errors.New("mmqjp: WithAsync requires exactly one document")

// DocumentError reports which document of a publish call failed and why.
// It unwraps to the underlying cause (typically an XML parse error).
type DocumentError struct {
	Index int   // position among the call's documents, in input order
	DocID int64 // the id the document would have been published under
	Err   error
}

func (e *DocumentError) Error() string {
	return fmt.Sprintf("document %d (id %d): %v", e.Index, e.DocID, e.Err)
}

func (e *DocumentError) Unwrap() error { return e.Err }

// PublishOption configures one PublishDoc call.
type PublishOption func(*publishReq)

// publishItem is one input document: parsed (doc), or raw XML to be parsed
// with the given id and timestamp.
type publishItem struct {
	doc       *Document
	xml       string
	docID, ts int64
}

type publishReq struct {
	async bool
	items []publishItem
}

// WithAsync hands the matches back through PublishResult.Done instead of
// Batches. The document is published before PublishDoc returns, so Done is
// already resolved. Valid only for exactly one document.
func WithAsync() PublishOption {
	return func(r *publishReq) { r.async = true }
}

// WithDocs appends parsed documents to the call's input.
func WithDocs(docs ...*Document) PublishOption {
	return func(r *publishReq) {
		for _, d := range docs {
			r.items = append(r.items, publishItem{doc: d})
		}
	}
}

// WithXML appends one raw XML document, parsed with the given id and
// timestamp before anything is published.
func WithXML(xmlText string, docID, timestamp int64) PublishOption {
	return func(r *publishReq) {
		r.items = append(r.items, publishItem{xml: xmlText, docID: docID, ts: timestamp})
	}
}

// PublishResult is the outcome of a PublishDoc call. Exactly one delivery
// form is populated: Batches by default (one element per input document, in
// input order), Done for WithAsync calls.
type PublishResult struct {
	// Batches holds each document's matches, in input order. Nil for
	// WithAsync calls.
	Batches [][]Match
	// Done holds the WithAsync document's matches (one value, then a
	// close). Nil otherwise.
	Done <-chan []Match
}

// Matches flattens the result into a single match slice in document order.
func (r PublishResult) Matches() []Match {
	if r.Done != nil {
		return <-r.Done
	}
	if len(r.Batches) == 1 {
		return r.Batches[0]
	}
	var out []Match
	for _, b := range r.Batches {
		out = append(out, b...)
	}
	return out
}

// PublishDoc publishes documents on the named stream — the leading one
// (which may be nil), then each option's in option order — and returns the
// matches each one triggered, in deterministic order. With composition
// enabled, matches of PUBLISH queries cascade into their output streams, and
// the derived matches are included in the triggering document's result.
//
// Raw-XML inputs are parsed first; a parse failure on any document fails the
// call with a *DocumentError and publishes nothing. One document runs its
// Stage 1 on the caller's goroutine, so concurrent publishers overlap it, and
// enters the join state when it acquires the engine's lock. Several documents
// run under one hold of that lock, so no other publisher's document lands
// between two of them.
func (e *Engine) PublishDoc(stream string, d *Document, opts ...PublishOption) (PublishResult, error) {
	var req publishReq
	if d != nil {
		req.items = append(req.items, publishItem{doc: d})
	}
	for _, o := range opts {
		o(&req)
	}
	docs, err := e.parseItems(req.items)
	if err != nil {
		return PublishResult{}, err
	}
	if req.async && len(docs) != 1 {
		e.releaseParsed(req.items, docs)
		return PublishResult{}, ErrAsyncBatch
	}
	batches := e.publishDocs(nil, stream, docs)
	e.releaseParsed(req.items, docs)
	if req.async {
		done := make(chan []Match, 1)
		done <- batches[0]
		close(done)
		return PublishResult{Done: done}, nil
	}
	return PublishResult{Batches: batches}, nil
}

// AppendPublishXML publishes one raw XML document with the result buffer
// brought by the caller: the document's matches — cascaded ones included —
// are appended to dst in compact form and the extended value is returned, so
// a caller that is done with one document's matches before it publishes the
// next (the server encodes them into its reply) passes the same buffer every
// time, emptied with Reset, and a publish allocates nothing for its result.
// On a parse failure dst is returned as it came.
//
// Like an io.Writer, AppendPublishXML keeps nothing of xml after it returns:
// the caller may overwrite the bytes at once (the server parses each PUB in
// its read buffer). An engine that keeps no document parses them in place;
// one that keeps documents (Options.RetainDocuments, composition,
// ProcessorSequential) copies them first.
func (e *Engine) AppendPublishXML(dst Matches, stream string, xml []byte, docID, timestamp int64) (Matches, error) {
	xmlText := unsafe.String(unsafe.SliceData(xml), len(xml))
	if e.keepsDocuments() {
		xmlText = string(xml)
	}
	d, err := e.parseXML(xmlText, docID, timestamp)
	if err != nil {
		return dst, &DocumentError{Index: 0, DocID: docID, Err: err}
	}
	one := [1]*Document{d}
	e.publishDocs(&dst, stream, one[:])
	e.release(d, len(xml))
	return dst, nil
}

// Matches is a publish call's matches in compact, pointer-free form, as
// AppendPublishXML hands them back. Stage 2 writes the matches of one frame —
// a pair of documents, joined at the same nodes — for every query of a
// window class at once, and a document's single-block matches all name the
// document itself, so the matches share a few frames: Frames holds them once,
// and Entries holds one entry per match, naming its query and its frame, in
// the order PublishDoc returns the matches.
type Matches struct {
	Frames  []Frame
	Entries []MatchEntry
}

// Frame is the two documents a run of matches names, by id and timestamp.
type Frame struct {
	LeftDoc, RightDoc int64
	LeftTS, RightTS   int64
}

// MatchEntry is one match of a Matches: its query and the index of its frame
// in Frames.
type MatchEntry struct {
	Query QueryID
	Frame int32

	leftRoot, rightRoot xmldoc.NodeID
}

// Len returns the number of matches.
func (ms *Matches) Len() int { return len(ms.Entries) }

// Reset empties ms and keeps its storage.
func (ms *Matches) Reset() {
	ms.Frames, ms.Entries = ms.Frames[:0], ms.Entries[:0]
}

// Append adds m, on the last frame when m names the same documents at the
// same timestamps; m.Publish is not kept.
func (ms *Matches) Append(m Match) {
	f := Frame{LeftDoc: m.LeftDoc, RightDoc: m.RightDoc, LeftTS: m.LeftTS, RightTS: m.RightTS}
	if n := len(ms.Frames); n == 0 || ms.Frames[n-1] != f {
		ms.Frames = append(ms.Frames, f)
	}
	ms.Entries = append(ms.Entries, MatchEntry{
		Query: m.Query, Frame: int32(len(ms.Frames) - 1),
		leftRoot: m.leftRoot, rightRoot: m.rightRoot,
	})
}

// Match returns match i as a public match, roots included (OutputXML renders
// it), but without its PUBLISH stream.
func (ms *Matches) Match(i int) Match {
	en := &ms.Entries[i]
	f := &ms.Frames[en.Frame]
	return Match{
		Query:   en.Query,
		LeftDoc: f.LeftDoc, RightDoc: f.RightDoc,
		LeftTS: f.LeftTS, RightTS: f.RightTS,
		leftRoot: en.leftRoot, rightRoot: en.rightRoot,
	}
}

// appendMatches appends ms's matches to dst as public matches, what
// PublishDoc returns, each with its query's PUBLISH stream.
//
//mmqjp:guardedby e.mu
func (e *Engine) appendMatches(dst []Match, ms *Matches) []Match {
	out := slices.Grow(dst, ms.Len())
	for i := range ms.Entries {
		m := ms.Match(i)
		m.Publish = e.queries[m.Query].publish
		out = append(out, m)
	}
	return out
}

// parseItems resolves every input item to a parsed document, raw XML by
// parseXML (releaseParsed gives those back). On error nothing is returned:
// the whole call must fail before any document is published.
func (e *Engine) parseItems(items []publishItem) ([]*Document, error) {
	docs := make([]*Document, len(items))
	for i, it := range items {
		if it.doc != nil {
			docs[i] = it.doc
			continue
		}
		d, err := e.parseXML(it.xml, it.docID, it.ts)
		if err != nil {
			e.releaseParsed(items[:i], docs[:i])
			return nil, &DocumentError{Index: i, DocID: it.docID, Err: err}
		}
		docs[i] = d
	}
	return docs, nil
}

// releaseParsed gives back the documents parseItems parsed for items.
func (e *Engine) releaseParsed(items []publishItem, docs []*Document) {
	for i, it := range items {
		if it.doc == nil {
			e.release(docs[i], len(it.xml))
		}
	}
}
