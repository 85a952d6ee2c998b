package mmqjp

import (
	"fmt"
	"time"

	"repro/internal/core"
)

// EngineStats is a structured snapshot of the engine's accumulated
// processing cost — one coherent type backing every stats consumer: the
// String rendering (the wire server's STATS reply and the examples), JSON
// (benchmark/cmd/layers reads the counters by their tags, as a monitoring
// pipeline would; durations marshal as nanoseconds), and the Prometheus
// /metrics endpoint of cmd/mmqjp-server.
//
// Phase durations follow the paper's Figure-14/15 breakdown and accumulate
// CPU time across Stage-2 workers; Stage1Wall/Stage2Wall are the wall-clock
// counterparts (see core.Stats). In sequential mode only Queries, Documents,
// Matches and CQ (the join time) are populated.
type EngineStats struct {
	// Sequential is true for ProcessorSequential engines, whose cost is
	// reported as a single join time (in CQ).
	Sequential bool `json:"sequential,omitempty"`

	Queries   int   `json:"queries"`
	Templates int   `json:"templates"`
	Documents int64 `json:"documents"`
	Matches   int64 `json:"matches"`

	XPath       time.Duration `json:"xpath_ns"`
	Witness     time.Duration `json:"witness_ns"`
	Rvj         time.Duration `json:"rvj_ns"`
	RL          time.Duration `json:"rl_ns"`
	RR          time.Duration `json:"rr_ns"`
	CQ          time.Duration `json:"cq_ns"`
	Maintain    time.Duration `json:"maintain_ns"`
	Stage1Wall  time.Duration `json:"stage1_wall_ns"`
	Stage2Wall  time.Duration `json:"stage2_wall_ns"`
	ExploreWall time.Duration `json:"explore_wall_ns"`

	// Plan-choice counters of the adaptive planner (planner.go).
	WitnessPlans int64 `json:"witness_plans"`
	RTPlans      int64 `json:"rt_plans"`
	Explorations int64 `json:"explorations"`

	// Counted Stage-2 work of the chosen plans: index entries the compiled
	// steps visited and RoutT rows they produced (core.Stats).
	CQProbes int64 `json:"cq_probes"`
	CQRows   int64 `json:"cq_rows"`

	// Counted Stage-1 work: registered patterns that reached witness
	// assembly and the candidates their assembly examined (core.Stats).
	PatternsTriggered int64 `json:"patterns_triggered"`
	WitnessProbes     int64 `json:"witness_probes"`

	// Counted window-expiry work: collections that expired a document and
	// the state rows they removed (core.Stats).
	WindowGCs     int64 `json:"window_gcs"`
	GCRowsDropped int64 `json:"gc_rows_dropped"`

	// Gauges of the join state as of this snapshot: documents inside the
	// widest window and their rows per witness relation.
	StateDocs      int64 `json:"state_docs"`
	StateRbinRows  int64 `json:"state_rbin_rows"`
	StateRdocRows  int64 `json:"state_rdoc_rows"`
	StateRrootRows int64 `json:"state_rroot_rows"`

	// SubscriptionBytes is what the live subscriptions retain: their source
	// text and the registration records of the facade and the join
	// processor — maintained on Subscribe and Unsubscribe, 0 once the last
	// subscription has left.
	SubscriptionBytes int64 `json:"subscription_bytes"`

	// DroppedCascades counts derived documents discarded at the
	// composition depth limit (a symptom of a cyclic query network).
	DroppedCascades int64 `json:"dropped_cascades,omitempty"`
}

// String renders the stats in the engine's historical one-line format (the
// exact format Engine.Stats returned when it was a string method).
func (s EngineStats) String() string {
	if s.Sequential {
		return fmt.Sprintf("sequential: %d queries, join time %v", s.Queries, s.CQ)
	}
	return fmt.Sprintf("mmqjp: %d queries, %d templates, %d docs, %d matches, xpath %v, witness %v, rvj %v, rl %v, rr %v, cq %v, maintain %v, stage1 %v, stage2 %v, plans witness=%d rt=%d explore=%d, stage1 triggered=%d probes=%d, state docs=%d rbin=%d rdoc=%d rroot=%d, gc runs=%d dropped=%d, subscription bytes=%d",
		s.Queries, s.Templates, s.Documents, s.Matches,
		s.XPath, s.Witness, s.Rvj, s.RL, s.RR, s.CQ, s.Maintain, s.Stage1Wall, s.Stage2Wall,
		s.WitnessPlans, s.RTPlans, s.Explorations, s.PatternsTriggered, s.WitnessProbes,
		s.StateDocs, s.StateRbinRows, s.StateRdocRows, s.StateRrootRows,
		s.WindowGCs, s.GCRowsDropped, s.SubscriptionBytes)
}

// Stats returns a structured snapshot of processing cost so far. Use
// EngineStats.String for the historical human-readable line, or marshal it
// as JSON for machines.
func (e *Engine) Stats() EngineStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.seq != nil {
		return EngineStats{
			Sequential: true,
			Queries:    e.seq.NumQueries(),
			Documents:  e.seq.NumDocs(),
			Matches:    e.seq.NumMatches(),
			CQ:         e.seq.JoinTime(),

			SubscriptionBytes: e.subBytes,
		}
	}
	out := fromCore(e.proc.Stats())
	out.Queries, out.Templates = e.proc.NumQueries(), e.proc.NumTemplates()
	out.SubscriptionBytes += e.subBytes
	out.DroppedCascades = e.droppedCascades
	return out
}

// fromCore lifts the processor's counters into the engine-level type.
func fromCore(s core.Stats) EngineStats {
	return EngineStats{
		Documents:    s.Documents,
		Matches:      s.Matches,
		XPath:        s.XPath,
		Witness:      s.Witness,
		Rvj:          s.Rvj,
		RL:           s.RL,
		RR:           s.RR,
		CQ:           s.CQ,
		Maintain:     s.Maintain,
		Stage1Wall:   s.Stage1Wall,
		Stage2Wall:   s.Stage2Wall,
		ExploreWall:  s.ExploreWall,
		WitnessPlans: s.WitnessPlans,
		RTPlans:      s.RTPlans,
		Explorations: s.Explorations,
		CQProbes:     s.CQProbes,
		CQRows:       s.CQRows,

		PatternsTriggered: s.PatternsTriggered,
		WitnessProbes:     s.WitnessProbes,

		WindowGCs:     s.WindowGCs,
		GCRowsDropped: s.GCRowsDropped,

		StateDocs:      s.StateDocs,
		StateRbinRows:  s.StateRbinRows,
		StateRdocRows:  s.StateRdocRows,
		StateRrootRows: s.StateRrootRows,

		SubscriptionBytes: s.SubscriptionBytes,
	}
}
