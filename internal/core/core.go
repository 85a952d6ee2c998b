// Package core implements the MMQJP Join Processor: Stage-1 shared
// tree-pattern matching feeding Stage-2 template-sharded conjunctive-query
// evaluation over the join state, with view materialization (Section 5),
// pipelined and continuous ingestion, subscription lifecycle, and an
// adaptive statistics-driven physical-plan chooser (planner.go).
//
// This file holds the processor-wide configuration and the accumulated
// statistics; the Processor itself lives in processor.go.
package core

import "time"

// Config selects processor behaviour.
type Config struct {
	// ViewMaterialization enables the Section-5 optimization: shared
	// Rvj/RL/RR views and the per-string view cache (Algorithms 4 and 5).
	ViewMaterialization bool
	// RetainDocuments keeps full documents in the join state so that
	// query outputs can be constructed as XML; benchmarks disable it.
	RetainDocuments bool
	// Plan overrides the per-template physical plan choice (tests and
	// ablation benchmarks; PlanAuto picks adaptively — see planner.go).
	Plan PlanKind
	// PlanExploreEvery enables the PlanAuto exploration policy: roughly
	// one in PlanExploreEvery per-template plan decisions additionally
	// runs the non-chosen plan, timed for cost-model calibration only
	// (its matches are discarded, so match output is unchanged). This is
	// what keeps both per-plan cost estimates honest when the chooser
	// settles on one plan. 0 disables exploration. Ignored for forced
	// plans.
	PlanExploreEvery int
	// PlanExploreSeed seeds the deterministic per-template exploration
	// sampler (0 selects 1). Given a seed, each template's sequence of
	// explore/skip decisions is a pure function of its decision count —
	// independent of Workers, PipelineDepth and wall-clock timing.
	PlanExploreSeed int64
	// Workers sets the number of template shards evaluated concurrently
	// in Stage 2 (shard.go). Each shard owns the planner records, view
	// cache entries and stats of the templates assigned to it, so workers
	// share no mutable state. 0 or 1 selects sequential evaluation;
	// match output is identical for every worker count.
	Workers int
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
	// PlanAuto chooses per template per document by calibrated cost
	// estimate (planner.go).
	PlanAuto PlanKind = iota
	// PlanWitness always joins outward from the current document's
	// value-join pairs (cqplan.go).
	PlanWitness
	// PlanRTDriven always iterates RT's distinct variable vectors first
	// (cqplan.go).
	PlanRTDriven
)

// Stats accumulates wall-clock cost of the processing phases, matching the
// breakdown of Figures 14 and 15.
type Stats struct {
	XPath    time.Duration // Stage 1: shared tree-pattern matching
	Witness  time.Duration // building RbinW/RdocW/RrootW from witnesses
	Rvj      time.Duration // common-string discovery (semi-join, Alg. 4 l.2)
	RL       time.Duration // computing/looking up RL slices
	RR       time.Duration // computing RR slices
	CQ       time.Duration // per-template conjunctive query evaluation
	Maintain time.Duration // Algorithm 2 + view cache maintenance + GC
	// Stage1Wall is the per-document wall-clock time of Stage 1 (NFA match
	// plus witness construction), accumulated across documents and batch
	// publishes. In a pipelined batch (Config.PipelineDepth > 1) Stage 1
	// runs concurrently in workers, so Stage1Wall sums per-document time
	// across workers and may exceed the batch's elapsed wall time.
	Stage1Wall time.Duration
	// Stage2Wall is the coordinator's wall-clock time of Stage-2 template
	// evaluation. With Workers > 1 the per-phase timings above accumulate
	// CPU time across workers and may exceed it; Stage2Wall is what
	// shrinks as workers are added. Both wall counters accumulate across
	// Process and ProcessBatch calls.
	Stage2Wall time.Duration
	Matches    int64
	Documents  int64
	// WitnessPlans and RTPlans count per-template plan choices (see
	// planner.go); the ablation tests assert the chooser adapts.
	WitnessPlans int64
	RTPlans      int64
	// Explorations counts PlanAuto exploration runs of the non-chosen
	// plan (calibration only, matches discarded); ExploreWall is their
	// wall-clock cost, kept out of CQ so the Figure-14/15 breakdowns
	// report only the plan that produced the output.
	Explorations int64
	ExploreWall  time.Duration
	// CQProbes counts the index entries the compiled Stage-2 steps visited
	// (cqplan.go) and CQRows the RoutT rows they produced, before the
	// window test — the chosen plan's runs only, like CQ. Both are pure
	// functions of the input sequence and the plan sequence, so they repeat
	// exactly under a forced plan.
	CQProbes int64
	CQRows   int64
	// PatternsTriggered counts the registered patterns that reached witness
	// assembly (every path prefix of the pattern had a candidate in the
	// document) and WitnessProbes the candidates their assembly examined
	// (yfilter.MatchResult.Work) — Stage 1's counted work, a pure function
	// of the documents and the registered patterns. A pattern that is not
	// triggered costs neither a probe nor an allocation.
	PatternsTriggered int64
	WitnessProbes     int64
	// WindowGCs counts the window collections that expired at least one
	// document (State.GC) and GCRowsDropped the Rbin/Rdoc/Rroot rows they
	// removed — expiry's counted work, which is exactly the expired
	// documents' rows: rows dropped is rows merged minus rows live.
	WindowGCs     int64
	GCRowsDropped int64
	// Gauges, read off the join state when the stats are taken (they
	// survive ResetStats): the documents inside the widest window and their
	// rows per witness relation (zero in a shard's stats, so Add leaves
	// the processor's reading alone).
	StateDocs      int64
	StateRbinRows  int64
	StateRdocRows  int64
	StateRrootRows int64
	// SubscriptionBytes is a gauge too: what the live queries' registration
	// records (one per query, one per join instance) occupy. It is constant
	// per registered query, whatever the query's text looked like.
	SubscriptionBytes int64
}

// Add accumulates o into s: per-shard stats into the processor's total.
func (s *Stats) Add(o Stats) {
	s.XPath += o.XPath
	s.Witness += o.Witness
	s.Rvj += o.Rvj
	s.RL += o.RL
	s.RR += o.RR
	s.CQ += o.CQ
	s.Maintain += o.Maintain
	s.Stage1Wall += o.Stage1Wall
	s.Stage2Wall += o.Stage2Wall
	s.Matches += o.Matches
	s.Documents += o.Documents
	s.WitnessPlans += o.WitnessPlans
	s.RTPlans += o.RTPlans
	s.Explorations += o.Explorations
	s.ExploreWall += o.ExploreWall
	s.CQProbes += o.CQProbes
	s.CQRows += o.CQRows
	s.PatternsTriggered += o.PatternsTriggered
	s.WitnessProbes += o.WitnessProbes
	s.WindowGCs += o.WindowGCs
	s.GCRowsDropped += o.GCRowsDropped
	s.StateDocs += o.StateDocs
	s.StateRbinRows += o.StateRbinRows
	s.StateRdocRows += o.StateRdocRows
	s.StateRrootRows += o.StateRrootRows
	s.SubscriptionBytes += o.SubscriptionBytes
}
