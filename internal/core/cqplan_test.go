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

// TestPlanChooserAdapts verifies the physical-plan cost model: the
// two-fixed-document technical benchmark (every stored leaf matches, huge
// witness fan-out) must run RT-driven, while a stream whose documents match
// few stored values must run witness-driven.
func TestPlanChooserAdapts(t *testing.T) {
	// Technical benchmark: two-level workload, 2000 queries, d1 then d2.
	c := workload.DefaultTwoLevel()
	rng := rand.New(rand.NewSource(1))
	p := NewProcessor(Config{})
	for _, q := range c.Queries(rng, 2000) {
		p.MustRegister(q)
	}
	d1, d2 := c.Documents()
	p.Process("S", d1)
	p.Process("S", d2)
	s := p.Stats()
	if s.RTPlans == 0 {
		t.Errorf("technical benchmark never chose the RT-driven plan (witness=%d rt=%d)", s.WitnessPlans, s.RTPlans)
	}

	// Stream: RSS items with sparse value collisions.
	rssc := workload.RSS{Channels: 400, Items: 200, TitlePool: 10000, DescPool: 10000, Theta: 0.8}
	rng2 := rand.New(rand.NewSource(2))
	ps := NewProcessor(Config{ViewMaterialization: true})
	for _, q := range rssc.Queries(rng2, 2000) {
		ps.MustRegister(q)
	}
	for _, d := range rssc.Stream(rng2, 200) {
		ps.Process("S", d)
	}
	ss := ps.Stats()
	if ss.WitnessPlans == 0 {
		t.Errorf("stream workload never chose the witness-driven plan (witness=%d rt=%d)", ss.WitnessPlans, ss.RTPlans)
	}
	if ss.RTPlans > ss.WitnessPlans {
		t.Errorf("stream workload mostly RT-driven: witness=%d rt=%d", ss.WitnessPlans, ss.RTPlans)
	}
}

// twoLeafQuery builds a FOLLOWED BY query joining the given leaf on both
// sides; all such queries share one template, and queries on different
// leaves occupy different variable-vector groups within it.
func twoLeafQuery(leaf string, window int64) *xscl.Query {
	return xscl.MustParse(fmt.Sprintf(
		"S//r->v0[./%s->v1] FOLLOWED BY{v1=w1, %d} S//r->w0[./%s->w1]",
		leaf, window, leaf))
}

// TestVectorGroupChurn exercises vector-group add/remove under
// subscription churn: instances sharing a variable vector collapse onto one
// group, a group whose last instance leaves is dropped, the template itself
// is reclaimed with its last query — and the adaptive planner's statistics
// record survives the reclamation and is resumed by a re-registration of
// the same template shape.
func TestVectorGroupChurn(t *testing.T) {
	p := NewProcessor(Config{})
	qa1 := p.MustRegister(twoLeafQuery("l1", 10))
	qa2 := p.MustRegister(twoLeafQuery("l1", 20))
	qb := p.MustRegister(twoLeafQuery("l2", 10))

	if n := len(p.templateList); n != 1 {
		t.Fatalf("queries on one shape made %d templates", n)
	}
	tmpl := p.templateList[0]
	ps := tmpl.plan
	if ps == nil {
		t.Fatal("template has no planner record")
	}
	if n := len(tmpl.vecList); n != 2 {
		t.Fatalf("expected 2 vector groups (l1 shared, l2), got %d", n)
	}
	var shared *vecGroup
	for _, g := range tmpl.vecList {
		if len(g.insts) == 2 {
			shared = g
		}
	}
	if shared == nil {
		t.Fatal("no vector group holds both l1 instances")
	}
	if w0, w1 := p.instances[shared.insts[0]].window, p.instances[shared.insts[1]].window; w0 != 10 || w1 != 20 {
		t.Fatalf("shared group windows = %d, %d, want 10, 20", w0, w1)
	}

	// Removing one of two sharers shrinks the group but keeps it.
	p.MustUnregister(qa1)
	if n := len(tmpl.vecList); n != 2 {
		t.Fatalf("after partial removal: %d groups, want 2", n)
	}
	if n := len(shared.insts); n != 1 {
		t.Fatalf("shared group holds %d instances, want 1", n)
	}
	// Removing the last sharer drops the group entirely.
	p.MustUnregister(qa2)
	if n := len(tmpl.vecList); n != 1 {
		t.Fatalf("after draining l1: %d groups, want 1", n)
	}
	// Removing the last query reclaims the template...
	p.MustUnregister(qb)
	if n := len(p.templateList); n != 0 {
		t.Fatalf("template not reclaimed: %d live", n)
	}
	// ...but the planner record survives: a re-registration of the same
	// shape resumes the same statistics.
	p.MustRegister(twoLeafQuery("l3", 10))
	if n := len(p.templateList); n != 1 {
		t.Fatalf("re-registration made %d templates", n)
	}
	if p.templateList[0].plan != ps {
		t.Error("re-registered template did not resume its planner record")
	}
	if n := len(p.templateList[0].vecList); n != 1 {
		t.Fatalf("re-registered template has %d groups, want 1", n)
	}
}

// TestVectorGroupChurnMatches verifies the RT-driven plan evaluates exactly
// the surviving vector groups after churn: a churned processor forced onto
// the RT-driven plan produces the same matches as a fresh processor holding
// only the surviving queries.
func TestVectorGroupChurnMatches(t *testing.T) {
	docs := func() []*xmldoc.Document {
		var out []*xmldoc.Document
		for i := 1; i <= 3; i++ {
			b := xmldoc.NewBuilder(xmldoc.DocID(i), xmldoc.Timestamp(i), "r")
			b.Element(0, "l1", "x")
			b.Element(0, "l2", "y")
			b.Element(0, "l3", "x")
			out = append(out, b.Build())
		}
		return out
	}

	churned := NewProcessor(Config{Plan: PlanRTDriven})
	dead1 := churned.MustRegister(twoLeafQuery("l1", 10))
	churned.MustRegister(twoLeafQuery("l2", 10))
	dead2 := churned.MustRegister(twoLeafQuery("l3", 10))
	churned.MustRegister(twoLeafQuery("l1", 20))
	churned.MustUnregister(dead1)
	churned.MustUnregister(dead2)

	fresh := NewProcessor(Config{Plan: PlanRTDriven})
	fresh.MustRegister(twoLeafQuery("l2", 10))
	fresh.MustRegister(twoLeafQuery("l1", 20))

	for i, d := range docs() {
		got := matchSet(churned.Process("S", d))
		// Query ids differ between the two processors (1→0, 3→1);
		// remap the fresh ids onto the churned ones.
		want := map[matchKey]bool{}
		for k := range matchSet(fresh.Process("S", d)) {
			remap := map[int64]int64{0: 1, 1: 3}
			want[matchKey{remap[k.q], k.ldoc, k.rdoc}] = true
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("doc %d: churned %v vs fresh %v", i+1, keys(got), keys(want))
		}
	}
}

// TestCalibrationConvergence drives the cost model directly: EWMAs converge
// to a shifted per-unit cost, and once observations contradict the static
// prior, the calibrated decision overrides it in both directions.
func TestCalibrationConvergence(t *testing.T) {
	var e ewma
	for i := 0; i < 5; i++ {
		e.observe(10)
	}
	for i := 0; i < 20; i++ {
		e.observe(1)
	}
	if e.value() < 1 || e.value() > 1.5 {
		t.Errorf("EWMA after shift = %v, want ≈1", e.value())
	}

	p := NewProcessor(Config{})
	p.MustRegister(twoLeafQuery("l1", 10))
	tmpl := p.templateList[0]
	perDoc := func(int) float64 { return 2 } // tiny fan-out: prior says witness

	if d := p.choosePlan(tmpl, perDoc); d.rtDriven {
		t.Fatal("uncalibrated chooser overrode the witness-leaning prior")
	}
	// Observed costs contradict the prior: witness wall time per unit is
	// vastly larger than RT wall time per unit.
	for i := 0; i < 8; i++ {
		tmpl.plan.witnessCost.observe(1e6, 1)
		tmpl.plan.rtCost.observe(1, 1)
	}
	if d := p.choosePlan(tmpl, perDoc); !d.rtDriven {
		t.Fatal("calibrated chooser ignored observed witness cost")
	}
	// And back: the EWMAs track a drift in the other direction.
	for i := 0; i < 40; i++ {
		tmpl.plan.witnessCost.observe(1, 1)
		tmpl.plan.rtCost.observe(1e6, 1)
	}
	if d := p.choosePlan(tmpl, perDoc); d.rtDriven {
		t.Fatal("calibrated chooser did not converge back to the witness plan")
	}
	// The slope is a ratio of averages (regression through the origin):
	// runs observed at large unit counts must not inflate the per-unit
	// prediction the way averaging small-unit ratios would.
	var c planCost
	c.observe(1000, 10) // 100 ns/unit at the observed scale
	c.observe(1200, 12)
	if got := c.perUnit(); got < 95 || got > 105 {
		t.Fatalf("perUnit = %v, want ≈100", got)
	}
	// Forced plans bypass calibration entirely.
	p.cfg.Plan = PlanRTDriven
	for i := 0; i < 8; i++ {
		tmpl.plan.rtCost.observe(1e9, 1)
	}
	if d := p.choosePlan(tmpl, perDoc); !d.rtDriven {
		t.Fatal("forced PlanRTDriven not honored")
	}
}

// TestExplorationSamplingDeterminism pins the exploration sampler: for a
// fixed PlanExploreSeed the per-template explore/skip sequence is
// reproducible across processor instances, and different seeds draw
// different sequences.
func TestExplorationSamplingDeterminism(t *testing.T) {
	sequence := func(seed int64) []bool {
		p := NewProcessor(Config{PlanExploreEvery: 2, PlanExploreSeed: seed})
		p.MustRegister(twoLeafQuery("l1", 10))
		tmpl := p.templateList[0]
		perDoc := func(int) float64 { return 1 }
		out := make([]bool, 256)
		for i := range out {
			out[i] = p.choosePlan(tmpl, perDoc).explore
		}
		return out
	}
	a, b := sequence(7), sequence(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different exploration sequences")
	}
	if reflect.DeepEqual(a, sequence(8)) {
		t.Fatal("different seeds produced identical 256-draw exploration sequences")
	}
	explored := 0
	for _, e := range a {
		if e {
			explored++
		}
	}
	if explored == 0 || explored == len(a) {
		t.Fatalf("exploration rate degenerate: %d/%d", explored, len(a))
	}

	// Exploration is a PlanAuto policy: forced plans never sample.
	p := NewProcessor(Config{Plan: PlanWitness, PlanExploreEvery: 2, PlanExploreSeed: 7})
	p.MustRegister(twoLeafQuery("l1", 10))
	for i := 0; i < 64; i++ {
		if p.choosePlan(p.templateList[0], func(int) float64 { return 1 }).explore {
			t.Fatal("forced plan requested exploration")
		}
	}
}
