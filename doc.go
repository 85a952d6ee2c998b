// Package mmqjp is an XML publish/subscribe engine implementing Massively
// Multi-Query Join Processing (Hong, Demers, Gehrke, Koch, Riedewald,
// White — SIGMOD 2007): scalable evaluation of very large numbers of
// continuous inter-document join queries over streams of XML documents.
//
// Queries are written in XSCL (XML Stream Conjunctive Language): two XPath
// tree-pattern blocks combined with a windowed join operator,
//
//	S//book->x1[.//author->x2][.//title->x3]
//	  FOLLOWED BY{x2=x5 AND x3=x6, 100}
//	S//blog->x4[.//author->x5][.//title->x6]
//
// meaning: report a book announcement followed within 100 time units by a
// blog article whose author matches one of the book's authors and whose
// title matches the book's title.
//
// The engine processes documents in two stages. Stage 1 evaluates all tree
// patterns of all queries at once in a shared NFA (YFilter-style), producing
// compact binary witness relations. Stage 2 partitions queries into
// equivalence classes by query template (the isomorphism class of the graph
// minor of the query's join graph) and evaluates one relational conjunctive
// query per template — compiled once, when the template is created, into a
// program of index probes — answering every member query simultaneously. With
// hundreds of thousands of registered queries the system maintains a few
// dozen templates, which is the source of its scalability.
//
// Engines are safe for concurrent use. Stage 2 runs on the goroutine that
// publishes the document: at tens of microseconds per document, splitting
// the templates over goroutines costs more than it saves (DESIGN.md; TUNING.md
// maps workload shapes onto the knobs). Batch publishes (PublishBatch,
// PublishXMLBatch) pipeline ingestion when Options.PipelineDepth is set:
// Stage 1 of up to PipelineDepth upcoming documents runs ahead in workers
// while Stage 2, the state merge, and window GC are applied strictly in
// arrival order, so batch output is identical to per-document Publish for
// every depth. PublishAsync extends
// the same overlap to concurrent publishers through a persistent ingest
// pipeline with bounded admission: matches are delivered on a per-document
// channel in admission order, byte-identical to serial Publish of that
// order, and Flush/Close drain the pipeline.
//
// Stage 2 evaluates each query template's conjunctive query in
// witness-driven order (Options.Plan, default PlanAuto): it joins outward
// from the current document's value-join pairs and extends a trie of the
// template's registered variable vectors with every variable it binds, so it
// probes only what some subscription registered. PlanRTDriven, which
// iterates the registered vectors first, stays as an ablation. The plan
// never changes output: every setting produces byte-identical match streams.
// Engine.PlanStats exposes the per-template statistics.
//
// Subscriptions have a full lifecycle: Unsubscribe removes a query and
// reclaims everything it no longer shares with the survivors — canonical
// templates are refcounted over their member queries, and a template's
// query relation, indexes and view-cache entries are released when its last
// member leaves. Draining every subscription returns the engine to its
// initial state; ids are never reused.
//
// PublishDoc is the general ingestion entrypoint, covering every
// combination of input form and delivery through options (WithDocs,
// WithXML, WithXMLEvents, WithAsync); the named Publish variants are thin
// wrappers over it, and AppendPublishXML is PublishXML appending to a buffer
// the caller reuses from one document to the next. Engine.Stats returns a structured EngineStats snapshot
// (JSON-marshalable; String renders every statistic as name=value), and
// Options.OnDocument delivers per-document stage timings for external
// metrics.
//
// Engines are durable: Snapshot serializes the subscription set and the
// windowed join state at an ingest barrier (an exact admission-order prefix
// of the stream), and OpenEngine restores an engine that continues the
// stream byte-identically to one that never restarted. The Store interface
// (MemStore, FileStore) wraps snapshot transport; FileStore replaces its
// file atomically. See DESIGN.md "Observability & durability".
//
// # Quick start
//
//	eng := mmqjp.New(mmqjp.Options{
//	    Processor: mmqjp.ProcessorViewMat, // zero value: ProcessorMMQJP (no view materialization)
//	})
//	qid, err := eng.Subscribe(
//	    "S//book->b[.//author->a] FOLLOWED BY{a=a2, 100} S//blog->g[.//author->a2]")
//	...
//	matches, err := eng.PublishXML("S", "<book>...</book>", docID, timestamp)
//	for _, m := range matches { ... }
//
// See the package examples (Example_*) and the examples directory for
// runnable programs, DESIGN.md for the architecture, TUNING.md for the
// tuning guide, and README.md "Benchmarks" for the reproduction of the
// paper's evaluation.
package mmqjp
