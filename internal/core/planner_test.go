package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/workload"
	"repro/internal/xmldoc"
	"repro/internal/xscl"
)

// collidingStream is the stream the RT-driven order wins on: n-leaf two-level
// documents that all carry the same values, one time unit apart, so under a
// short window every stored document joins the current one on every leaf and
// the witness side fans out.
func collidingStream(n, count int) []*xmldoc.Document {
	out := make([]*xmldoc.Document, count)
	for i := range out {
		b := xmldoc.NewBuilder(xmldoc.DocID(i+1), xmldoc.Timestamp(i+1), "r")
		for l := 1; l <= n; l++ {
			b.Element(0, fmt.Sprintf("l%d", l), fmt.Sprintf("value-%d", l))
		}
		out[i] = b.Build()
	}
	return out
}

// TestPlannerWorthCountedWork pins what the adaptive planner is worth, as
// counted work and with exploration off: on a shape where the RT-driven order
// wins (colliding two-level documents), one where the per-template choice is
// mixed (the paper-scale generator) and one where witness-driven wins
// throughout (the RSS stream), PlanAuto produces the forced plans' matches and
// visits at most 1.5 times the index entries of the better forced plan for the
// whole replay (measured: 0.51, 1.07–1.17 and 1.00 times — auto chooses per
// template and document, so it can beat both). PlanAuto's choice reads wall
// clocks, so its count moves a little between runs; the forced counts repeat
// exactly. A replacement for the planner — a static order, a counted cost
// model — has these numbers to beat.
func TestPlannerWorthCountedWork(t *testing.T) {
	if raceEnabled {
		t.Skip("one worker, no second goroutine: the race detector has nothing to see here and takes ten times as long")
	}
	tl := workload.TwoLevel{N: 4, Theta: 0.8, Window: 12}
	ps := workload.DefaultPaperScale()
	rss := workload.DefaultRSS()
	for _, tc := range []struct {
		name    string
		queries []*xscl.Query
		stream  []*xmldoc.Document
	}{
		{"colliding two-level", tl.Queries(rand.New(rand.NewSource(1)), 300), collidingStream(tl.N, 100)},
		{"paper scale", ps.Queries(rand.New(rand.NewSource(1)), 800), ps.Stream(rand.New(rand.NewSource(8)), 300)},
		{"rss", rss.Queries(rand.New(rand.NewSource(1)), 1000), rss.Stream(rand.New(rand.NewSource(8)), 2000)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plans := []PlanKind{PlanWitness, PlanRTDriven, PlanAuto}
			procs := make([]*Processor, len(plans))
			for i, plan := range plans {
				procs[i] = NewProcessor(Config{ViewMaterialization: true, Plan: plan})
				for _, q := range tc.queries {
					procs[i].MustRegister(q)
				}
			}
			matches := 0
			for _, d := range tc.stream {
				want := harnessRecs(procs[0].Process("S", d))
				matches += len(want)
				for _, p := range procs[1:] {
					if got := harnessRecs(p.Process("S", d)); !reflect.DeepEqual(got, want) {
						t.Fatalf("document %d: %s and %s disagree: %d matches against %d",
							d.ID, comboName(p.cfg), comboName(procs[0].cfg), len(got), len(want))
					}
				}
			}
			if matches == 0 {
				t.Fatal("the replay produced no match: nothing was compared")
			}
			witness, rt, auto := procs[0].Stats(), procs[1].Stats(), procs[2].Stats()
			best := min(witness.CQProbes, rt.CQProbes)
			t.Logf("%d matches; probes: forced witness %d, forced RT %d, auto %d (%.2f of the better; %d witness / %d RT decisions)",
				matches, witness.CQProbes, rt.CQProbes, auto.CQProbes,
				float64(auto.CQProbes)/float64(best), auto.WitnessPlans, auto.RTPlans)
			if 2*auto.CQProbes > 3*best {
				t.Errorf("PlanAuto visited %d index entries, over 1.5 times the better forced plan's %d", auto.CQProbes, best)
			}
		})
	}
}
