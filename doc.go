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
// compact binary witness relations, each kind of row from one pattern shared
// by every query that reads it. Stage 2 partitions queries into
// equivalence classes by query template (the isomorphism class of the graph
// minor of the query's join graph) and evaluates one relational conjunctive
// query per template — compiled once, when the template is created, into a
// program of index probes — answering every member query simultaneously. With
// hundreds of thousands of registered queries the system maintains a few
// dozen templates, which is the source of its scalability.
//
// Engines are safe for concurrent use, and every publish takes one path. Its
// Stage 1 — the shared-NFA match and witness construction, which touch no
// join state — runs on the publisher's goroutine, so concurrent publishers
// overlap it. Its Stage 2, the state merge and window expiry run under the
// engine's lock, one document at a time, on the same goroutine: at tens of
// microseconds per document, splitting the templates over goroutines costs
// more than it saves (DESIGN.md; TUNING.md maps workload shapes onto the
// knobs). Documents enter the join state in the order their publishers take
// that lock, and each document's matches are byte-identical to a serial
// publish of that order. A batch (several documents in one PublishDoc call)
// holds the lock across its documents, so it enters the join state
// contiguously.
//
// Stage 2 is the paper's Algorithm 4, and there is no other evaluator: each
// query template's conjunctive query is one compiled program over one
// relation of value-join pairs, the Section-5 views RL and RR folded
// together. It joins outward from the current document's pairs and extends
// a trie of the template's registered variable vectors with every variable
// it binds, so it probes only what some subscription registered. The pairs
// are built once per document and shared by every template: for each value
// the document shares with the join state (STR), every previous document's
// node on the value's posting list with every current node, each with the
// class names a live template's value join reads (the paper's view
// materialization, without its cache). Engine.PlanStats exposes the
// per-template statistics.
//
// Memory follows the windows, not the stream: the join state, and the
// documents Options.RetainDocuments keeps for Engine.OutputXML, hold only
// what some window still reaches.
//
// Subscriptions have a full lifecycle: Unsubscribe removes a query and
// reclaims everything it no longer shares with the survivors — canonical
// templates are refcounted over their member queries, and a template's
// query relation and indexes are released when its last
// member leaves. Draining every subscription returns the engine to its
// initial state; ids are never reused, not even across a restore.
//
// Two methods publish. PublishDoc takes parsed documents and raw XML in any
// combination through its options (WithDocs, WithXML) and returns each
// document's matches; AppendPublishXML publishes one raw XML document, given
// as bytes it keeps nothing of once it returns (like an io.Writer), and
// appends its matches to a Matches the caller reuses from one document to
// the next, in compact form: each Frame (a pair of documents) once, and a
// (query, frame) MatchEntry per match. An engine that keeps no document
// (no RetainDocuments, no composition, not ProcessorSequential) parses raw
// XML into pooled documents. Engine.Stats returns a structured EngineStats snapshot
// (JSON-marshalable; String renders every statistic as name=value), and
// Options.OnDocument delivers per-document stage timings for external
// metrics.
//
// Engines are durable: Snapshot serializes the subscription set and the
// windowed join state between two documents (an exact prefix of the serial
// document order), and OpenEngine restores an engine that continues the
// stream byte-identically to one that never restarted. The Store interface
// (MemStore, FileStore) wraps snapshot transport; FileStore replaces its
// file atomically. See DESIGN.md "Observability & durability".
//
// # Quick start
//
//	eng := mmqjp.New(mmqjp.Options{}) // the evaluator mmqjp-server runs
//	qid, err := eng.Subscribe(
//	    "S//book->b[.//author->a] FOLLOWED BY{a=a2, 100} S//blog->g[.//author->a2]")
//	...
//	res, err := eng.PublishDoc("S", nil, mmqjp.WithXML("<book>...</book>", docID, timestamp))
//	for _, m := range res.Matches() { ... }
//
// See the package examples (Example_*) and the examples directory for
// runnable programs, DESIGN.md for the architecture, TUNING.md for the
// tuning guide, and README.md "Benchmarks" for the reproduction of the
// paper's evaluation.
package mmqjp
