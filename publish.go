package mmqjp

import (
	"errors"
	"fmt"
)

// Publishing has two entry points, PublishDoc and AppendPublishXML. Both
// parse every raw-XML input before publishing anything: a parse failure fails
// the whole call with a *DocumentError naming the document.

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
	docs, err := parseItems(req.items)
	if err != nil {
		return PublishResult{}, err
	}
	if req.async {
		if len(docs) != 1 {
			return PublishResult{}, ErrAsyncBatch
		}
		done := make(chan []Match, 1)
		done <- e.publishAppend(nil, stream, docs[0])
		close(done)
		return PublishResult{Done: done}, nil
	}
	if len(docs) == 1 {
		return PublishResult{Batches: [][]Match{e.publishAppend(nil, stream, docs[0])}}, nil
	}
	return PublishResult{Batches: e.publishMany(stream, docs)}, nil
}

// AppendPublishXML publishes one raw XML document with the result buffer
// brought by the caller: the document's matches — cascaded ones included —
// are appended to dst and the extended slice is returned, so a caller that is
// done with one document's matches before it publishes the next (the server
// encodes them into its reply) passes the same buffer every time and a
// publish allocates nothing for its result. On a parse failure dst is
// returned as it came.
func (e *Engine) AppendPublishXML(dst []Match, stream, xmlText string, docID, timestamp int64) ([]Match, error) {
	d, err := ParseDocument(xmlText, docID, timestamp)
	if err != nil {
		return dst, &DocumentError{Index: 0, DocID: docID, Err: err}
	}
	return e.publishAppend(dst, stream, d), nil
}

// publishMany publishes docs on stream in order under one hold of the
// engine's lock and returns each document's matches.
func (e *Engine) publishMany(stream string, docs []*Document) [][]Match {
	e.reg.RLock()
	defer e.reg.RUnlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.dropDeparted()
	out := make([][]Match, len(docs))
	for i, d := range docs {
		out[i] = e.publish(nil, stream, d, 0)
	}
	return out
}

// parseItems resolves every input item to a parsed document. On error
// nothing is returned: the whole call must fail before any document is
// published.
func parseItems(items []publishItem) ([]*Document, error) {
	docs := make([]*Document, len(items))
	for i, it := range items {
		if it.doc != nil {
			docs[i] = it.doc
			continue
		}
		d, err := ParseDocument(it.xml, it.docID, it.ts)
		if err != nil {
			return nil, &DocumentError{Index: i, DocID: it.docID, Err: err}
		}
		docs[i] = d
	}
	return docs, nil
}
