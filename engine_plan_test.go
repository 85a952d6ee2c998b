package mmqjp

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/workload"
)

// TestAsyncChurnMatchesSequential checks the compiled Stage-2 programs
// against an evaluator that never reads a template's trie: while
// subscriptions churn between publishes, every document's matches must equal
// those of a ProcessorSequential engine (one query at a time) replaying the
// identical schedule — PublishDoc from one goroutine with Unsubscribe/Subscribe
// churn at fixed positions.
func TestAsyncChurnMatchesSequential(t *testing.T) {
	queries, stream := rssBatchFixture(200, 120)
	// Deterministic replacement queries for the churn-in half of each
	// churn step.
	extraRng := rand.New(rand.NewSource(33))
	var extras []string
	for _, q := range workload.DefaultRSS().Queries(extraRng, 24) {
		extras = append(extras, q.Source)
	}

	run := func(opts Options) [][]Match {
		eng := New(opts)
		var live []QueryID
		for _, q := range queries {
			live = append(live, eng.MustSubscribe(q))
		}
		out := make([][]Match, 0, len(stream))
		nextExtra := 0
		for i, d := range stream {
			if i%10 == 5 {
				// Unsubscribe the oldest live query and subscribe a
				// replacement, at the same position in both engines.
				if err := eng.Unsubscribe(live[0]); err != nil {
					t.Fatalf("unsubscribe %d: %v", live[0], err)
				}
				live = live[1:]
				live = append(live, eng.MustSubscribe(extras[nextExtra%len(extras)]))
				nextExtra++
			}
			out = append(out, publishOne(eng, "S", d))
		}
		return out
	}

	want := run(Options{Processor: ProcessorSequential})
	got := run(Options{})
	total := 0
	for i := range want {
		total += len(want[i])
		if g, w := renderEngineMatches(got[i]), renderEngineMatches(want[i]); g != w {
			t.Fatalf("doc %d: MMQJP\n%sdiffers from sequential\n%s", i, g, w)
		}
	}
	if total == 0 {
		t.Fatal("the sequential engine produced no matches; the comparison is vacuous")
	}
}

// TestPlanStatsAccessor checks the per-template Stage-2 statistics surface:
// after a multi-template workload the snapshot reports the live templates in
// template order, with their signatures, vector groups and run counters.
func TestPlanStatsAccessor(t *testing.T) {
	eng := New(Options{})
	for i := 1; i <= 4; i++ {
		for j := 1; j <= 4; j++ {
			if i == j {
				continue
			}
			eng.MustSubscribe(fmt.Sprintf(
				"S//r->v0[./l1->v1][./l2->v2] FOLLOWED BY{v1=w1 AND v2=w2, 1000} S//r->w0[./l%d->w1][./l%d->w2]", i, j))
		}
	}
	for i := 0; i < 40; i++ {
		b := NewDocumentBuilder(int64(i+1), int64(i+1), "r")
		for l := 1; l <= 4; l++ {
			b.Element(0, fmt.Sprintf("l%d", l), fmt.Sprintf("value-%d", l))
		}
		publishOne(eng, "S", b.Build())
	}
	stats := eng.PlanStats()
	if len(stats) == 0 {
		t.Fatal("no per-template plan stats after a multi-template workload")
	}
	var runs int64
	for i, ts := range stats {
		if i > 0 && stats[i-1].Template >= ts.Template {
			t.Errorf("plan stats not in template order: %d then %d", stats[i-1].Template, ts.Template)
		}
		if ts.Sig == "" {
			t.Errorf("template %d: empty signature", ts.Template)
		}
		if ts.VecGroups <= 0 {
			t.Errorf("template %d: no live vector groups", ts.Template)
		}
		runs += ts.WitnessRuns
	}
	if runs == 0 {
		t.Error("no plan runs recorded")
	}

	// Sequential mode has no templates and must report nil.
	seq := New(Options{Processor: ProcessorSequential})
	if s := seq.PlanStats(); s != nil {
		t.Errorf("sequential PlanStats = %v, want nil", s)
	}
}
