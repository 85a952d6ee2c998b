package mmqjp

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/workload"
)

// TestParsePlan covers the server flag's plan names.
func TestParsePlan(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Plan
	}{
		{"auto", PlanAuto}, {"", PlanAuto}, {"Witness", PlanWitness},
		{"rt", PlanRTDriven}, {"RTDriven", PlanRTDriven}, {"rt-driven", PlanRTDriven},
	} {
		got, err := ParsePlan(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParsePlan(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParsePlan("nested-loops"); err == nil {
		t.Error("ParsePlan accepted an unknown plan name")
	}
}

// TestPlanInvisibilityUnderAsyncChurn is the engine-level plan-invisibility
// guarantee: PlanWitness, forced PlanRTDriven and the default PlanAuto must
// produce byte-identical per-document match streams
// while documents flow through the continuous async ingest pipeline and
// subscriptions churn between publishes. Each engine replays the identical
// admission schedule — PublishAsync admissions from one goroutine with
// Unsubscribe/Subscribe churn at fixed positions (routed through the
// pipeline barrier) — so any cross-engine difference is the plan's doing.
// The CI race job runs this under -race, with the pipeline's Stage-1 workers
// beside the goroutine that walks the templates' tries.
func TestPlanInvisibilityUnderAsyncChurn(t *testing.T) {
	queries, stream := rssBatchFixture(200, 120)
	// Deterministic replacement queries for the churn-in half of each
	// churn step.
	extraRng := rand.New(rand.NewSource(33))
	var extras []string
	for _, q := range workload.DefaultRSS().Queries(extraRng, 24) {
		extras = append(extras, q.Source)
	}

	type stepResult [][]Match
	run := func(opts Options) stepResult {
		eng := New(opts)
		var live []QueryID
		for _, q := range queries {
			live = append(live, eng.MustSubscribe(q))
		}
		chans := make([]<-chan []Match, 0, len(stream))
		nextExtra := 0
		for i, d := range stream {
			if i%10 == 5 {
				// Unsubscribe the oldest live query and subscribe a
				// replacement; both run at a pipeline barrier, so their
				// position in the admission order is exact and identical
				// across engines.
				if err := eng.Unsubscribe(live[0]); err != nil {
					t.Fatalf("unsubscribe %d: %v", live[0], err)
				}
				live = live[1:]
				live = append(live, eng.MustSubscribe(extras[nextExtra%len(extras)]))
				nextExtra++
			}
			chans = append(chans, eng.PublishAsync("S", d))
		}
		eng.Flush()
		out := make(stepResult, len(chans))
		for i, ch := range chans {
			out[i] = collectAsync(t, ch)
		}
		eng.Close()
		return out
	}

	base := Options{Processor: ProcessorViewMat, PipelineDepth: 2}
	witness, rt, auto := base, base, base
	witness.Plan = PlanWitness
	rt.Plan = PlanRTDriven
	auto.Plan = PlanAuto

	want := run(witness)
	for _, tc := range []struct {
		name string
		opts Options
	}{{"rt", rt}, {"auto", auto}} {
		got := run(tc.opts)
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("plan=%s doc %d: %d matches vs %d under forced witness",
					tc.name, i, len(got[i]), len(want[i]))
			}
			for j := range got[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("plan=%s doc %d match %d: %+v vs witness %+v",
						tc.name, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

// TestPlanStatsAccessor checks the per-template Stage-2 statistics surface:
// after a multi-template workload the snapshot reports the live templates in
// template order, with their signatures, vector groups and run counters.
func TestPlanStatsAccessor(t *testing.T) {
	eng := New(Options{Processor: ProcessorViewMat})
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
		eng.Publish("S", b.Build())
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
		runs += ts.WitnessRuns + ts.RTRuns
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
