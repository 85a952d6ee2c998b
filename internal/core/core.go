// Package core implements the paper's primary contribution, Massively
// Multi-Query Join Processing (Sections 4 and 5).
//
// Queries are partitioned into equivalence classes by query template — the
// isomorphism class of the graph minor of the query's join graph — and one
// relational conjunctive query per template evaluates every member query at
// once against the witness relations produced by Stage 1 (the shared XPath
// evaluator). The Join Processor runs Stage-1 shared tree-pattern matching
// feeding Stage-2 per-template conjunctive-query evaluation over the join
// state — Algorithm 4, template joins over the document's value-join pairs,
// the Section-5 views RL and RR folded into one relation built once for all
// templates — and keeps the subscription lifecycle. Stage 1
// (RunStage1) is document-local and may run on any goroutine; Stage 2
// (Consume) runs each template's compiled conjunctive query (cqplan.go) on
// the goroutine that consumes the document (stage2.go), one document at a
// time. The join state holds witness rows, never documents: a caller that
// renders outputs keeps the documents itself (Consume reports when the
// state lets go of one).
//
// This file holds the processor-wide configuration and the accumulated
// statistics; the Processor itself lives in processor.go.
package core

import (
	"reflect"
	"strings"
	"time"
)

// Config selects processor behaviour.
type Config struct {
	// OnDocument, when set, is called once per processed document with its
	// hot-path wall times, after the document has been fully consumed.
	// It runs inside Consume (in document order, never concurrently with
	// itself) and must be fast and non-blocking — it sits on the publish
	// hot path. nil disables observation at zero cost.
	OnDocument func(DocTimings)
}

// DocTimings is one document's hot-path observation, delivered to
// Config.OnDocument: the document's id, the wall-clock time of each phase and
// the number of matches the document triggered. DocID is what a caller
// reads the serial document order from: OnDocument calls come in the order
// documents were consumed. Stage1 is the document-local NFA match +
// witness construction, the document's join-state record and its node
// indexes included (measured on whichever goroutine ran RunStage1), Stage2
// the template evaluation, Merge the Algorithm-2 state merge (the state
// adopts the record; no row is copied), and GC the window collection that
// follows every merge under a finite window (State.GC).
type DocTimings struct {
	DocID   int64
	Stage1  time.Duration
	Stage2  time.Duration
	Merge   time.Duration
	GC      time.Duration
	Matches int
}

// Stats accumulates the cost of the processing phases, matching the
// breakdown of Figures 14 and 15, and the counted work behind them. Each
// statistic is declared once, here, and everything else is derived from the
// declaration (StatFields): its json tag names it (a duration's ends in _ns),
// its help tag describes it, and its kind is a time.Duration's type or the
// stat tag — "counter" for a cumulative count, "gauge" for a value read off
// the state when the stats are taken. The facade's EngineStats (JSON and the
// STATS line) and the server's /metrics families walk these fields.
type Stats struct {
	Documents int64 `json:"documents" stat:"counter" help:"Documents published, whether or not they entered the join state."`
	Matches   int64 `json:"matches" stat:"counter" help:"Matches produced across all queries."`

	// Phase times. Stage 2 (Rvj, CQ) runs on the goroutine that consumes
	// the document, so its phases are wall time.
	XPath    time.Duration `json:"xpath_ns" help:"Stage-1 shared tree-pattern matching time."`
	Witness  time.Duration `json:"witness_ns" help:"Time building the witness relations RbinW/RdocW: the document's join-state record and its node index."`
	Rvj      time.Duration `json:"rvj_ns" help:"Time building the document's value-join pairs, once for all templates: the join values it shares with the join state (Algorithm 4 line 2), and for each the pairs of endpoint classes a live template's value join takes."`
	CQ       time.Duration `json:"cq_ns" help:"Per-template conjunctive-query evaluation time (the current document's indexes are Stage 1's)."`
	Maintain time.Duration `json:"maintain_ns" help:"Join-value resolution, state merge (Algorithm 2: the state adopts the document's record, no row is copied) and window collection time."`
	// Stage1Wall is the per-document wall-clock time of Stage 1 (NFA match
	// plus witness construction, the record's node indexes included),
	// accumulated across documents. Concurrent
	// publishers run Stage 1 side by side, so Stage1Wall sums per-document
	// time across goroutines and may exceed the elapsed wall time.
	Stage1Wall time.Duration `json:"stage1_wall_ns" help:"Per-document Stage-1 wall time (NFA match, witness relations and their node indexes), summed over documents."`
	// Stage2Wall is the wall-clock time of Stage-2 template evaluation: the
	// phases Rvj and CQ above.
	Stage2Wall time.Duration `json:"stage2_wall_ns" help:"Wall time of Stage-2 template evaluation."`

	// WitnessPlans counts the compiled programs (cqplan.go) Stage 2
	// entered, once per document each.
	WitnessPlans int64 `json:"witness_plans" stat:"counter" help:"Compiled Stage-2 programs entered through the join index, once per document each."`
	// CQProbes counts the rows and index entries Stage 2 visited (the head
	// joins', then cqplan.go's steps') and CQRows the RoutT rows, before the
	// window test. Both are pure functions of the input sequence and the
	// plan, so they repeat exactly.
	CQProbes int64 `json:"cq_probes" stat:"counter" help:"Rows and index entries visited by Stage 2: the head joins', then the compiled steps'."`
	CQRows   int64 `json:"cq_rows" stat:"counter" help:"RoutT rows the Stage-2 programs produced, before the window test."`
	// MatchRuns counts the runs Stage 2 wrote: one per complete frame and
	// window class that passed the window, each standing for the matches
	// of its class's queries. MatchRuns / Matches is the output work per
	// match.
	MatchRuns int64 `json:"match_runs" stat:"counter" help:"Stage-2 match runs written: one per frame and window class that passed the window."`
	// PatternsTriggered counts the registered patterns that reached witness
	// assembly (every path prefix of the pattern had a candidate in the
	// document) and WitnessProbes what their assembly examined
	// (yfilter.MatchResult.Work): in the semi-join reduction, each reduced
	// child binding, each ancestor it stamped and each parent candidate
	// tested against the stamps, then each candidate enumeration tried;
	// for a pattern counted per root (MatchResult.RootCounts), each
	// frontier entry the climb moved, each ancestor it passed and each
	// candidate a branch count tried — Stage 1's counted work, a pure function of the documents and the
	// registered patterns. A pattern that is not triggered is not visited.
	PatternsTriggered int64 `json:"patterns_triggered" stat:"counter" help:"Registered patterns that reached Stage-1 witness assembly (every path prefix had a candidate in the document)."`
	WitnessProbes     int64 `json:"witness_probes" stat:"counter" help:"Steps of the witness assembly of triggered patterns: reduced child bindings, ancestors they stamped and parent candidates tested in the semi-join reduction, and candidates tried by the enumeration, or frontier entries moved, ancestors passed and candidates tried by per-root counting."`
	// NFASteps counts the DFA transitions Stage 1's walks computed from
	// the shared NFA instead of finding them in their memo
	// (yfilter.MatchResult.Steps): it settles near 0 per document once the
	// memos have seen the stream's shapes, and a Register that adds NFA
	// states starts them over.
	NFASteps int64 `json:"nfa_steps" stat:"counter" help:"Stage-1 walk memo misses: DFA transitions computed from the shared NFA rather than found in the walk's memo."`
	// WindowGCs counts the window collections that expired at least one
	// document (State.GC) and GCRowsDropped the Rbin/Rdoc rows they
	// removed — expiry's counted work, which is exactly the expired
	// documents' rows: rows dropped is rows merged minus rows live.
	WindowGCs     int64 `json:"window_gcs" stat:"counter" help:"Window collections that expired at least one document."`
	GCRowsDropped int64 `json:"gc_rows_dropped" stat:"counter" help:"Join-state rows removed by window collections."`

	// Gauges, read off the join state when the stats are taken (they
	// survive ResetStats): the documents inside the widest window, their
	// rows per witness relation — Rbin's with a parent and without one (a
	// single-node side's root, which a snapshot lists as "rroot") apart —
	// and the join values those rows carry.
	StateDocs      int64 `json:"state_docs" stat:"gauge" help:"Documents in the join state (inside the widest window)."`
	StateRbinRows  int64 `json:"state_rbin_rows" stat:"gauge" help:"Live join-state Rbin rows with a parent."`
	StateRdocRows  int64 `json:"state_rdoc_rows" stat:"gauge" help:"Live join-state Rdoc rows."`
	StateRrootRows int64 `json:"state_rroot_rows" stat:"gauge" help:"Live join-state Rbin rows without a parent: the roots of single-node sides."`
	// StateValues is the distinct join values the live Rdoc rows carry: the
	// entries of the state's value dictionary.
	StateValues int64 `json:"state_values" stat:"gauge" help:"Distinct join values in the join state (entries of its value dictionary)."`
	// SubscriptionBytes is a gauge too: what the live queries' registration
	// records (one per query, one per join instance) occupy. It is constant
	// per registered query, whatever the query's text looked like. The
	// facade adds the subscriptions' source text and its own records.
	SubscriptionBytes int64 `json:"subscription_bytes" stat:"gauge" help:"Source text and registration records retained by the live subscriptions."`
	// Stage1Items is the live row items: the kinds of witness row Stage 1
	// writes, each from one pattern, which with the single-block queries'
	// patterns are all a document can trigger. It moves at Register and
	// Unregister only.
	Stage1Items int64 `json:"stage1_items" stat:"gauge" help:"Live Stage-1 row items: the kinds of witness row Stage 1 writes, each from one pattern."`
}

// StatKind is how a statistic accumulates.
type StatKind uint8

const (
	// StatCounter is a cumulative count (stat:"counter").
	StatCounter StatKind = iota
	// StatDuration is cumulative time: every time.Duration field.
	StatDuration
	// StatGauge is a value read off the state when the stats are taken
	// (stat:"gauge").
	StatGauge
)

// StatField is one declared statistic of Stats or of a struct embedding it.
type StatField struct {
	Name  string // the json name, without a duration's _ns
	Kind  StatKind
	Help  string
	Index []int // for reflect.Value.FieldByIndex
}

// StatFields lists the statistics struct type t declares, in declaration
// order, descending into embedded structs. A field that declares no kind is
// a bug in the declaration and panics.
func StatFields(t reflect.Type) []StatField {
	var out []StatField
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Anonymous {
			for _, sf := range StatFields(f.Type) {
				sf.Index = append([]int{i}, sf.Index...)
				out = append(out, sf)
			}
			continue
		}
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		sf := StatField{Name: name, Help: f.Tag.Get("help"), Index: []int{i}}
		switch kind := f.Tag.Get("stat"); {
		case f.Type == reflect.TypeOf(time.Duration(0)):
			sf.Kind, sf.Name = StatDuration, strings.TrimSuffix(name, "_ns")
		case kind == "counter":
			sf.Kind = StatCounter
		case kind == "gauge":
			sf.Kind = StatGauge
		default:
			panic("core: statistic " + t.Name() + "." + f.Name + " declares no stat kind")
		}
		out = append(out, sf)
	}
	return out
}

// Float reads the statistic from v, a value of the struct it was listed
// from: durations in seconds, a flag as 0 or 1.
func (f StatField) Float(v reflect.Value) float64 {
	x := v.FieldByIndex(f.Index)
	switch {
	case f.Kind == StatDuration:
		return time.Duration(x.Int()).Seconds()
	case x.Kind() == reflect.Bool:
		if x.Bool() {
			return 1
		}
		return 0
	}
	return float64(x.Int())
}
