package mmqjp

import (
	"errors"
	"fmt"
)

// Publishing: PublishDoc is the general ingestion entrypoint. The historical
// variants — Publish, PublishBatch, PublishXML, PublishXMLBatch — are thin
// wrappers over it, each fixing one input form (parsed documents vs raw
// XML). PublishDoc accepts any combination: documents accumulate in the
// order given (the leading *Document argument first, then each option's
// documents in option order) and are published as one batch in that order,
// with the same serial-order output guarantees as PublishBatch.
//
// Error contract, shared by every XML-accepting path: a parse failure on any
// document fails the whole call with a *DocumentError identifying the
// document, and nothing is published.

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

type publishItem struct {
	doc *Document
	xml *XMLEvent
}

type publishReq struct {
	async bool
	items []publishItem
}

// WithAsync hands the matches back through PublishResult.Done instead of
// Batches. The document is published before PublishDoc returns, exactly as
// Publish would, so Done is already resolved. Valid only for exactly one
// document.
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
		r.items = append(r.items, publishItem{xml: &XMLEvent{XML: xmlText, DocID: docID, Timestamp: timestamp}})
	}
}

// WithXMLEvents appends raw XML documents, parsed before anything is
// published.
func WithXMLEvents(events ...XMLEvent) PublishOption {
	return func(r *publishReq) {
		for i := range events {
			r.items = append(r.items, publishItem{xml: &events[i]})
		}
	}
}

// PublishResult is the outcome of a PublishDoc call. Exactly one delivery
// form is populated: Batches by default (one element per input document, in
// input order), Done for WithAsync calls.
type PublishResult struct {
	// Batches holds each document's matches, exactly what consecutive
	// Publish calls would return. Nil for WithAsync calls.
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

// PublishDoc publishes documents on the named stream. The leading document
// may be nil when options supply the input; all inputs are published as one
// batch in input order, and the call returns once every document is
// processed.
//
// Raw-XML inputs are parsed first; a parse failure on any document fails the
// call with a *DocumentError and publishes nothing.
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
		done <- e.Publish(stream, docs[0])
		close(done)
		return PublishResult{Done: done}, nil
	}
	if len(docs) == 1 {
		return PublishResult{Batches: [][]Match{e.Publish(stream, docs[0])}}, nil
	}
	return PublishResult{Batches: e.publishMany(stream, docs)}, nil
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
		ev := it.xml
		d, err := ParseDocument(ev.XML, ev.DocID, ev.Timestamp)
		if err != nil {
			return nil, &DocumentError{Index: i, DocID: ev.DocID, Err: err}
		}
		docs[i] = d
	}
	return docs, nil
}
