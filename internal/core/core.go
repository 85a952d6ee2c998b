// Package core implements the paper's primary contribution, Massively
// Multi-Query Join Processing (Sections 4 and 5).
//
// Queries are partitioned into equivalence classes by query template — the
// isomorphism class of the graph minor of the query's join graph — and one
// relational conjunctive query per template evaluates every member query at
// once against the witness relations produced by Stage 1 (the shared XPath
// evaluator). The Join Processor runs Stage-1 shared tree-pattern matching
// feeding Stage-2 per-template conjunctive-query evaluation over the join
// state — Algorithm 4, template joins over the Section-5 views STR, RL and
// RR — and keeps the subscription lifecycle. Stage 1
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
// adopts the record; no row is copied), and GC the window-expiry check and,
// when it fires, the collection (State.GC).
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

	// Phase times. Stage 2 (Rvj, RL, RR, CQ) runs on the goroutine that
	// consumes the document, so its phases are wall time.
	XPath    time.Duration `json:"xpath_ns" help:"Stage-1 shared tree-pattern matching time."`
	Witness  time.Duration `json:"witness_ns" help:"Time building the witness relations RbinW/RdocW/RrootW: the document's join-state record and its node indexes."`
	Rvj      time.Duration `json:"rvj_ns" help:"Common-string discovery time (semi-join, Algorithm 4 line 2)."`
	RL       time.Duration `json:"rl_ns" help:"Time building the left view RL from the join state."`
	RR       time.Duration `json:"rr_ns" help:"Time building the right view RR from the current witness."`
	CQ       time.Duration `json:"cq_ns" help:"Per-template conjunctive-query evaluation time (the current document's indexes are Stage 1's)."`
	Maintain time.Duration `json:"maintain_ns" help:"Join-value resolution, state merge (Algorithm 2: the state adopts the document's record, no row is copied) and window collection time."`
	// Stage1Wall is the per-document wall-clock time of Stage 1 (NFA match
	// plus witness construction, the record's node indexes included),
	// accumulated across documents. Concurrent
	// publishers run Stage 1 side by side, so Stage1Wall sums per-document
	// time across goroutines and may exceed the elapsed wall time.
	Stage1Wall time.Duration `json:"stage1_wall_ns" help:"Per-document Stage-1 wall time (NFA match, witness relations and their node indexes), summed over documents."`
	// Stage2Wall is the wall-clock time of Stage-2 template evaluation: the
	// phases Rvj, RL, RR and CQ above plus what lies between them.
	Stage2Wall time.Duration `json:"stage2_wall_ns" help:"Wall time of Stage-2 template evaluation."`

	// WitnessPlans counts the per-template runs of the compiled programs
	// (cqplan.go).
	WitnessPlans int64 `json:"witness_plans" stat:"counter" help:"Per-template runs of the compiled Stage-2 programs."`
	// CQProbes counts the index entries the compiled Stage-2 steps visited
	// (cqplan.go) and CQRows the RoutT rows they produced, before the
	// window test. Both are pure functions of the input sequence and the
	// plan, so they repeat exactly.
	CQProbes int64 `json:"cq_probes" stat:"counter" help:"Index entries visited by the compiled Stage-2 steps."`
	CQRows   int64 `json:"cq_rows" stat:"counter" help:"RoutT rows the Stage-2 programs produced, before the window test."`
	// PatternsTriggered counts the registered patterns that reached witness
	// assembly (every path prefix of the pattern had a candidate in the
	// document) and WitnessProbes what their assembly examined
	// (yfilter.MatchResult.Work): in the semi-join reduction, each reduced
	// child binding, each ancestor it stamped and each parent candidate
	// tested against the stamps, then each candidate enumeration tried —
	// Stage 1's counted work, a pure function of the documents and the
	// registered patterns. A pattern that is not triggered is not visited.
	PatternsTriggered int64 `json:"patterns_triggered" stat:"counter" help:"Registered patterns that reached Stage-1 witness assembly (every path prefix had a candidate in the document)."`
	WitnessProbes     int64 `json:"witness_probes" stat:"counter" help:"Steps of the witness assembly of triggered patterns: reduced child bindings, ancestors they stamped and parent candidates tested in the semi-join reduction, and candidates tried by the enumeration."`
	// WindowGCs counts the window collections that expired at least one
	// document (State.GC) and GCRowsDropped the Rbin/Rdoc/Rroot rows they
	// removed — expiry's counted work, which is exactly the expired
	// documents' rows: rows dropped is rows merged minus rows live.
	WindowGCs     int64 `json:"window_gcs" stat:"counter" help:"Window collections that expired at least one document."`
	GCRowsDropped int64 `json:"gc_rows_dropped" stat:"counter" help:"Join-state rows removed by window collections."`

	// Gauges, read off the join state when the stats are taken (they
	// survive ResetStats): the documents inside the widest window, their
	// rows per witness relation and the join values those rows carry.
	StateDocs      int64 `json:"state_docs" stat:"gauge" help:"Documents in the join state (inside the widest window)."`
	StateRbinRows  int64 `json:"state_rbin_rows" stat:"gauge" help:"Live join-state Rbin rows."`
	StateRdocRows  int64 `json:"state_rdoc_rows" stat:"gauge" help:"Live join-state Rdoc rows."`
	StateRrootRows int64 `json:"state_rroot_rows" stat:"gauge" help:"Live join-state Rroot rows."`
	// StateValues is the distinct join values the live Rdoc rows carry: the
	// entries of the state's value dictionary.
	StateValues int64 `json:"state_values" stat:"gauge" help:"Distinct join values in the join state (entries of its value dictionary)."`
	// SubscriptionBytes is a gauge too: what the live queries' registration
	// records (one per query, one per join instance) occupy. It is constant
	// per registered query, whatever the query's text looked like. The
	// facade adds the subscriptions' source text and its own records.
	SubscriptionBytes int64 `json:"subscription_bytes" stat:"gauge" help:"Source text and registration records retained by the live subscriptions."`
	// PatternsDormant is the live patterns Stage 1 does not assemble,
	// because smaller live patterns write every row they would: it moves
	// at Register and Unregister only.
	PatternsDormant int64 `json:"patterns_dormant" stat:"gauge" help:"Live patterns Stage 1 skips because smaller live patterns write every row they would."`
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
