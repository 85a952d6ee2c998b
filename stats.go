package mmqjp

import (
	"fmt"
	"reflect"
	"strings"

	"repro/internal/core"
)

// EngineStats is a structured snapshot of the engine's accumulated
// processing cost — one coherent type backing every stats consumer: the
// String rendering (the wire server's STATS reply and the examples), JSON
// (benchmark/cmd/layers reads the counters by their tags, as a monitoring
// pipeline would; durations marshal as nanoseconds), and the Prometheus
// /metrics endpoint of cmd/mmqjp-server. The join processor's statistics
// are the embedded core.Stats, where each is declared once; the fields
// here are the facade's own, declared the same way.
//
// Phase durations follow the paper's Figure-14/15 breakdown; Stage2Wall
// spans the Stage-2 phases, and Stage1Wall sums Stage 1 over documents, which
// pipeline workers may run concurrently (see core.Stats). In sequential mode
// only Queries, Documents, Matches, CQ (the join time) and SubscriptionBytes
// are populated.
type EngineStats struct {
	// Sequential is true for ProcessorSequential engines, whose cost is
	// reported as a single join time (in CQ).
	Sequential bool `json:"sequential,omitempty" stat:"gauge" help:"1 when every query is evaluated on its own (ProcessorSequential)."`
	Queries    int  `json:"queries" stat:"gauge" help:"Live subscriptions."`
	Templates  int  `json:"templates" stat:"gauge" help:"Live canonical query templates."`

	core.Stats

	// DroppedCascades counts derived documents discarded at the
	// composition depth limit (a symptom of a cyclic query network).
	DroppedCascades int64 `json:"dropped_cascades,omitempty" stat:"counter" help:"Derived documents discarded at the composition depth limit."`
}

var engineStatFields = core.StatFields(reflect.TypeOf(EngineStats{}))

// String renders every statistic as name=value, in declaration order;
// durations print as Go durations.
func (s EngineStats) String() string {
	v := reflect.ValueOf(s)
	var b strings.Builder
	for i, f := range engineStatFields {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%v", f.Name, v.FieldByIndex(f.Index))
	}
	return b.String()
}

// Stats returns a structured snapshot of processing cost so far. Use
// EngineStats.String for a one-line rendering, or marshal it as JSON for
// machines.
func (e *Engine) Stats() EngineStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.seq != nil {
		return EngineStats{
			Sequential: true,
			Queries:    e.seq.NumQueries(),
			Stats: core.Stats{
				Documents:         e.seq.NumDocs(),
				Matches:           e.seq.NumMatches(),
				CQ:                e.seq.JoinTime(),
				SubscriptionBytes: e.subBytes,
			},
		}
	}
	out := EngineStats{
		Queries:         e.proc.NumQueries(),
		Templates:       e.proc.NumTemplates(),
		Stats:           e.proc.Stats(),
		DroppedCascades: e.droppedCascades,
	}
	out.SubscriptionBytes += e.subBytes
	return out
}
