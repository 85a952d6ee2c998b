// Package core implements the MMQJP Join Processor: Stage-1 shared
// tree-pattern matching feeding Stage-2 per-template conjunctive-query
// evaluation over the join state, with view materialization (Section 5),
// pipelined and continuous ingestion, and subscription lifecycle. Stage 2
// runs each template's compiled conjunctive query (cqplan.go) on the
// goroutine that consumes the document (stage2.go).
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
	// ViewMaterialization enables the Section-5 optimization: shared
	// Rvj/RL/RR views and the per-string view cache (Algorithms 4 and 5).
	ViewMaterialization bool
	// RetainDocuments keeps full documents in the join state so that
	// query outputs can be constructed as XML; benchmarks disable it.
	RetainDocuments bool
	// Plan selects the step order of the compiled Stage-2 programs
	// (cqplan.go): PlanAuto and PlanWitness run the witness-driven order,
	// PlanRTDriven the RT-driven one (tests and ablation benchmarks).
	Plan PlanKind
	// PipelineDepth bounds how many upcoming documents of a ProcessBatch
	// call may have Stage 1 (parse-independent NFA match and witness
	// construction) running or completed ahead of the coordinator's
	// in-order Stage-2 consumption (pipeline.go). 0 or 1 selects the
	// sequential per-document path; match output is identical for every
	// depth.
	PipelineDepth int
	// OnDocument, when set, is called once per processed document with its
	// hot-path wall times, after the document has been fully consumed.
	// It runs on the coordinator (in document order, never concurrently
	// with itself) and must be fast and non-blocking — it sits on the
	// ingest hot path. nil disables observation at zero cost.
	OnDocument func(DocTimings)
}

// DocTimings is one document's hot-path observation, delivered to
// Config.OnDocument: the wall-clock time of each order-sensitive phase and
// the number of matches the document triggered. Stage1 is the document-local
// NFA match + witness construction (possibly measured on a pipeline worker),
// Stage2 the template evaluation, Merge the Algorithm-2 state merge plus
// view-cache maintenance, and GC the window-expiry check and, when it fires,
// the collection (State.GC).
type DocTimings struct {
	Stage1  time.Duration
	Stage2  time.Duration
	Merge   time.Duration
	GC      time.Duration
	Matches int
}

// PlanKind selects the physical plan for template conjunctive queries.
type PlanKind int

const (
	// PlanAuto runs the witness-driven order, which probes only what some
	// subscription registered (cqplan.go).
	PlanAuto PlanKind = iota
	// PlanWitness always joins outward from the current document's
	// value-join pairs (cqplan.go).
	PlanWitness
	// PlanRTDriven always iterates RT's distinct variable vectors first
	// (cqplan.go).
	PlanRTDriven
)

// Stats accumulates the cost of the processing phases, matching the
// breakdown of Figures 14 and 15, and the counted work behind them. Each
// statistic is declared once, here, and everything else is derived from the
// declaration (StatFields): its json tag names it (a duration's ends in _ns),
// its help tag describes it, and its kind is a time.Duration's type or the
// stat tag — "counter" for a cumulative count, "gauge" for a value read off
// the state when the stats are taken. The facade's EngineStats (JSON and the
// STATS line) and the server's /metrics families walk these fields.
type Stats struct {
	Documents int64 `json:"documents" stat:"counter" help:"Documents admitted into the join state."`
	Matches   int64 `json:"matches" stat:"counter" help:"Matches produced across all queries."`

	// Phase times. Stage 2 (Rvj, RL, RR, CQ) runs on the goroutine that
	// consumes the document, so its phases are wall time.
	XPath    time.Duration `json:"xpath_ns" help:"Stage-1 shared tree-pattern matching time."`
	Witness  time.Duration `json:"witness_ns" help:"Time building the witness relations RbinW/RdocW/RrootW."`
	Rvj      time.Duration `json:"rvj_ns" help:"Common-string discovery time (semi-join, Algorithm 4 line 2)."`
	RL       time.Duration `json:"rl_ns" help:"Time computing or looking up RL slices."`
	RR       time.Duration `json:"rr_ns" help:"Time computing RR slices."`
	CQ       time.Duration `json:"cq_ns" help:"Per-template conjunctive-query evaluation time."`
	Maintain time.Duration `json:"maintain_ns" help:"State merge (Algorithm 2), view-cache maintenance and window collection time."`
	// Stage1Wall is the per-document wall-clock time of Stage 1 (NFA match
	// plus witness construction), accumulated across documents and batch
	// publishes. In a pipelined batch (Config.PipelineDepth > 1) Stage 1
	// runs concurrently in workers, so Stage1Wall sums per-document time
	// across workers and may exceed the batch's elapsed wall time.
	Stage1Wall time.Duration `json:"stage1_wall_ns" help:"Per-document Stage-1 wall time, summed over documents."`
	// Stage2Wall is the coordinator's wall-clock time of Stage-2 template
	// evaluation: the phases Rvj, RL, RR and CQ above plus what lies
	// between them. Both wall counters accumulate across Process and
	// ProcessBatch calls.
	Stage2Wall time.Duration `json:"stage2_wall_ns" help:"Coordinator wall time of Stage-2 template evaluation."`

	// WitnessPlans and RTPlans count the per-template runs of each step
	// order of the compiled programs (cqplan.go).
	WitnessPlans int64 `json:"witness_plans" stat:"counter" help:"Per-template Stage-2 runs in witness-driven order."`
	RTPlans      int64 `json:"rt_plans" stat:"counter" help:"Per-template Stage-2 runs in RT-driven order."`
	// CQProbes counts the index entries the compiled Stage-2 steps visited
	// (cqplan.go) and CQRows the RoutT rows they produced, before the
	// window test. Both are pure functions of the input sequence and the
	// plan, so they repeat exactly.
	CQProbes int64 `json:"cq_probes" stat:"counter" help:"Index entries visited by the compiled Stage-2 steps."`
	CQRows   int64 `json:"cq_rows" stat:"counter" help:"RoutT rows the Stage-2 programs produced, before the window test."`
	// ViewCacheHits and ViewCacheMisses count the view cache's lookups of
	// a common string's RL slice (view materialization only), and
	// ViewCacheInvalidations the entries it dropped as stale: slices
	// referencing a document a window collection expired.
	ViewCacheHits          int64 `json:"view_cache_hits" stat:"counter" help:"View-cache lookups that found the string's RL slice."`
	ViewCacheMisses        int64 `json:"view_cache_misses" stat:"counter" help:"View-cache lookups that computed the string's RL slice."`
	ViewCacheInvalidations int64 `json:"view_cache_invalidations" stat:"counter" help:"View-cache entries dropped as stale."`
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
	// survive ResetStats): the documents inside the widest window and their
	// rows per witness relation.
	StateDocs      int64 `json:"state_docs" stat:"gauge" help:"Documents in the join state (inside the widest window)."`
	StateRbinRows  int64 `json:"state_rbin_rows" stat:"gauge" help:"Live join-state Rbin rows."`
	StateRdocRows  int64 `json:"state_rdoc_rows" stat:"gauge" help:"Live join-state Rdoc rows."`
	StateRrootRows int64 `json:"state_rroot_rows" stat:"gauge" help:"Live join-state Rroot rows."`
	// SubscriptionBytes is a gauge too: what the live queries' registration
	// records (one per query, one per join instance) occupy. It is constant
	// per registered query, whatever the query's text looked like. The
	// facade adds the subscriptions' source text and its own records.
	SubscriptionBytes int64 `json:"subscription_bytes" stat:"gauge" help:"Source text and registration records retained by the live subscriptions."`
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
