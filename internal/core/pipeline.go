package core

import (
	"repro/internal/xmldoc"
)

// Batch ingestion pipeline: Stage 1 of a document (shared-NFA match plus
// CurrentWitness construction, RunStage1) depends only on the document and
// the registration-time pattern structures — only the Algorithm-2 state
// merge, Stage-2 evaluation against the join state, and window GC are
// order-sensitive. ProcessBatch exploits this by running Stage 1 for up to
// Config.PipelineDepth upcoming documents in worker goroutines while the
// coordinator consumes completed witnesses strictly in arrival order, so
// matches, join state, and window semantics are byte-identical to processing
// the documents one Process call at a time. The machinery is the continuous
// ingest pipeline (ingest.go) run batch-scoped: admission order is the
// batch's document order, and Close both drains and bounds the goroutines'
// lifetime to the call.

// ProcessBatch processes docs on stream in arrival order and returns the
// matches of each document, exactly as len(docs) consecutive Process calls
// would. With Config.PipelineDepth > 1 the Stage-1 work of upcoming
// documents overlaps the coordinator's ordered Stage-2 consumption.
func (p *Processor) ProcessBatch(stream string, docs []*xmldoc.Document) [][]Match {
	out := make([][]Match, len(docs))
	p.ProcessBatchFunc(stream, docs, func(i int, ms *Matches) { out[i] = ms.Slice() })
	return out
}

// ProcessBatchFunc is ProcessBatch with per-document delivery: deliver is
// called on the pipeline coordinator, in arrival order, after document i's
// Stage 2, state merge, and GC have completed — the call returns only once
// every document has been delivered. The engine facade uses the callback to
// cascade composition publishes between batch documents at the same point
// the sequential path would. deliver receives the processor's view of the
// document's result (Matches) and writes out what it keeps; after that it may
// itself call Process (for derived documents), but it must not call Register,
// Unregister or ProcessBatch. Config.PipelineDepth <= 1 (or a single
// document) selects the sequential per-document path; output is identical
// for every depth.
func (p *Processor) ProcessBatchFunc(stream string, docs []*xmldoc.Document, deliver func(i int, matches *Matches)) {
	depth := p.cfg.PipelineDepth
	if depth <= 1 || len(docs) <= 1 {
		for i, d := range docs {
			deliver(i, p.Consume(p.RunStage1(stream, d)))
		}
		return
	}
	workers := depth
	if workers > len(docs) {
		workers = len(docs)
	}
	ing := NewIngest(p, IngestConfig{Depth: depth, Workers: workers})
	for i, d := range docs {
		i := i
		// Submit blocks at the admission bound, so the batch never runs
		// more than depth+1 documents ahead of the order-sensitive tail;
		// it cannot fail on a pipeline private to this call.
		_ = ing.Submit(stream, d, func(ms *Matches) { deliver(i, ms) })
	}
	ing.Close()
}
