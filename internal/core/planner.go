package core

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// Adaptive statistics-driven plan selection.
//
// The Join Processor evaluates each template's conjunctive query with one of
// two physical plans, the two step orders of the template's compiled program
// (cqplan.go):
//
//   - The witness-driven order joins outward from the value-join pairs of
//     the current document, leaving the query relation RT — the template's
//     vector groups — for a final probe. It is ideal on streams, where an
//     incoming document's string values match few stored values.
//
//   - The RT-driven order iterates the *distinct variable vectors* of RT
//     (queries sharing blocks and wiring collapse onto one vector) and, for
//     each vector, runs the now fully-selective body. It corresponds to the
//     plan a cost-based SQL optimizer picks for the paper's CQ when the
//     witness side fans out: RT as the outer side with index nested loops.
//
// The two orders produce identical RoutT rows, and the differential tests
// force and compare both. The paper's claim is that a cost-based choice
// between the two is what keeps massively multi-query join processing fast
// as workloads shift; the chooser here makes that choice adaptive instead of
// frozen:
//
//   - Per-template runtime statistics are collected during Stage 2: the
//     observed witness fan-out estimate, the distinct-vector-group
//     cardinality of the RT-driven plan, and a wall-time EWMA per plan,
//     normalized by each plan's cost units.
//   - The cost model is calibrated online: once both plans have been
//     observed on a template, the decision compares
//     witnessNs/unit × fan-out  vs  rtNs/unit × vector-group cost —
//     measured constants replacing the frozen magic numbers. Until then
//     the uncalibrated prior (the old frozen heuristic) decides.
//   - An occasional-exploration policy keeps both estimates honest: with
//     Config.PlanExploreEvery > 0, roughly one in that many per-template
//     decisions additionally runs the non-chosen plan, timed for
//     calibration only. Its matches are discarded, so match output is
//     identical to exploration-off — both plans produce byte-identical
//     match streams (the plan-invisibility tests force and compare all
//     three modes).
//
// Statistics live in planStats records keyed by template signature on the
// processor (planMemo), so they survive Unsubscribe/re-Register churn the
// same way the canonicalization memo does. During Stage 2 each record is
// touched only by the goroutine of the shard owning its template
// (shard.go), so accumulation is lock-free by ownership; Stats()'s
// per-shard counters are merged the same way. The exploration sampler is a
// per-template PRNG seeded from Config.PlanExploreSeed and the template
// signature, advanced exactly once per PlanAuto decision — its explore/skip
// sequence is deterministic for a fixed seed, independent of Workers,
// PipelineDepth, and timing.

// ewmaAlpha weights new observations; ~1/alpha observations dominate the
// average, so calibration tracks workload drift within a few dozen
// documents without chasing per-document noise.
const ewmaAlpha = 0.25

// ewma is an exponentially weighted moving average seeded by its first
// observation.
type ewma struct {
	v float64
	n int64
}

func (e *ewma) observe(x float64) {
	e.n++
	if e.n == 1 {
		e.v = x
		return
	}
	e.v += ewmaAlpha * (x - e.v)
}

func (e *ewma) value() float64 { return e.v }
func (e *ewma) samples() int64 { return e.n }

// planCost is one plan's calibrated cost model: paired EWMAs of observed
// wall time and of the cost units the run was estimated at. The per-unit
// slope is the ratio of the two averages — a decayed regression through the
// origin — rather than an average of per-run ratios: a witness run has a
// fixed per-template cost on top of its fan-out-proportional part, and
// averaging ratios taken at small fan-outs folds that fixed cost into the
// slope, inflating predictions at fan-out spikes by orders of magnitude
// (which flipped the chooser to the wrong plan). The ratio of averages
// weights the slope toward the unit scale actually observed.
type planCost struct {
	ns    ewma
	units ewma
}

func (c *planCost) observe(ns, units float64) {
	c.ns.observe(ns)
	c.units.observe(units)
}

// perUnit returns the calibrated wall nanoseconds per cost unit.
func (c *planCost) perUnit() float64 {
	if c.units.value() <= 0 {
		return 0
	}
	return c.ns.value() / c.units.value()
}

func (c *planCost) samples() int64 { return c.ns.samples() }

// planStats is one template's adaptive-planner record. See the package
// comment above for the ownership discipline that makes accumulation
// lock-free.
type planStats struct {
	// fanout is the observed witness fan-out estimate per decision, the
	// size driver of the witness-driven plan.
	fanout ewma
	// probes is the observed number of vector groups an RT-driven run
	// evaluated.
	probes ewma
	// witnessCost and rtCost are the calibrated cost models of each plan:
	// witness units are the fan-out estimate, RT units the vector-group
	// cost (see planCost).
	witnessCost planCost
	rtCost      planCost

	witnessRuns  int64
	rtRuns       int64
	explorations int64
	lastRTDriven bool

	// rng drives exploration sampling; created lazily on the first
	// PlanAuto decision and advanced exactly once per decision.
	rng *rand.Rand
}

// planStatsFor returns the retained planner record for a template
// signature, creating it on first registration.
func (p *Processor) planStatsFor(sig string) *planStats {
	ps, ok := p.planMemo[sig]
	if !ok {
		ps = &planStats{}
		p.planMemo[sig] = ps
	}
	return ps
}

// sampler returns the template's exploration PRNG, seeding it
// deterministically from the configured seed and the template signature.
//
//mmqjp:nondet seeded deterministic exploration PRNG (same seed+sig -> same draws)
func (ps *planStats) sampler(seed int64, sig string) *rand.Rand {
	if ps.rng == nil {
		if seed == 0 {
			seed = 1
		}
		ps.rng = rand.New(rand.NewSource(seed ^ int64(fnv64(sig))))
	}
	return ps.rng
}

// fnv64 is FNV-1a over s, mixing the template signature into the
// exploration seed so templates draw independent sequences.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// planDecision is one per-template per-document plan choice.
type planDecision struct {
	rtDriven bool
	// explore requests a calibration run of the non-chosen plan.
	explore bool
	// witnessUnits and rtUnits are the cost-unit counts the decision was
	// based on, reused to normalize the observed wall times.
	witnessUnits float64
	rtUnits      float64
}

// witnessFanout estimates the intermediate-result size of the witness-driven
// plan: value-join groups multiply per previous document, so the estimate is
// Σ_d (pairs_d)^k over the per-document row counts of the value-join pair
// relation (basic path) or of the shared left view RL (view-materialization
// path).
func witnessFanout(byDoc *rowIndex, k int) float64 {
	est := 0.0
	for g := 1; g < len(byDoc.off); g++ {
		n := byDoc.off[g] - byDoc.off[g-1]
		if n == 0 {
			continue // a slot of the index's span with no row
		}
		est += math.Pow(float64(n), float64(k))
		if est > 1e15 {
			return est
		}
	}
	return est
}

// rtDrivenCost estimates the RT-driven plan: one selective evaluation per
// distinct variable vector.
func (t *Template) rtDrivenCost() float64 {
	return float64(len(t.vecList)) * float64(len(t.VJ)+t.N+1)
}

// choosePlan decides the physical plan for one template against the current
// document and records the decision-time statistics. fanout(k) is the
// document's witnessFanout for a template with k value joins.
//
//mmqjp:nondet exploration draws come from the seeded template PRNG (sampler)
func (p *Processor) choosePlan(t *Template, fanout func(k int) float64) planDecision {
	ps := t.plan
	// Forced plans return before any estimation: the fan-out estimate is
	// an O(|perDoc|) pow loop per template per document, pure waste for a
	// constant decision (the ablation benchmarks measure exactly this
	// path). Unit counts of 1 keep runPlans' per-unit normalization
	// well-defined; forced-mode EWMAs are never read by a chooser.
	switch p.cfg.Plan {
	case PlanWitness:
		ps.lastRTDriven = false
		return planDecision{witnessUnits: 1, rtUnits: 1}
	case PlanRTDriven:
		ps.lastRTDriven = true
		return planDecision{rtDriven: true, witnessUnits: 1, rtUnits: 1}
	}
	d := planDecision{
		witnessUnits: fanout(len(t.VJ)) + 1,
		rtUnits:      t.rtDrivenCost() + 1,
	}
	ps.fanout.observe(d.witnessUnits - 1)
	calibrated := ps.witnessCost.samples() > 0 && ps.rtCost.samples() > 0
	predW, predRT := d.witnessUnits, d.rtUnits
	if calibrated {
		// Calibrated: compare predicted wall times.
		predW = ps.witnessCost.perUnit() * d.witnessUnits
		predRT = ps.rtCost.perUnit() * d.rtUnits
		d.rtDriven = predW > predRT
	} else {
		// Uncalibrated prior: the frozen heuristic the calibrated model
		// replaces, biased toward the witness plan on streams.
		d.rtDriven = d.witnessUnits-1 > 4*(d.rtUnits-1)+1024
	}
	if every := p.cfg.PlanExploreEvery; every > 0 {
		// The sampler is advanced exactly once per decision, so the draw
		// sequence stays deterministic regardless of the cutoff below.
		d.explore = ps.sampler(p.cfg.PlanExploreSeed, t.Sig).Intn(every) == 0
		if d.explore {
			// Skip the draw when the non-chosen plan's prediction is
			// confidently bad. Two tiers, because the two prediction
			// scales differ: calibrated predictions are commensurable
			// wall times, so anything beyond exploreCutoff× the chosen
			// plan is pure re-measurement overhead; uncalibrated unit
			// priors (fan-out vs vector-group cost) are only roughly
			// comparable, so they get the much looser explosion guard
			// uncalibratedExploreCutoff — enough to never run an
			// engine-stalling cross product (witness fan-out grows as
			// pow(pairs, k)) while still sampling a moderately-worse
			// plan once, after which the calibrated tier governs.
			chosen, other := predW, predRT
			if d.rtDriven {
				chosen, other = predRT, predW
			}
			cutoff := uncalibratedExploreCutoff
			if calibrated {
				cutoff = exploreCutoff
			}
			if other > cutoff*chosen {
				d.explore = false
			}
		}
	}
	ps.lastRTDriven = d.rtDriven
	return d
}

// exploreCutoff bounds calibrated exploration: the non-chosen plan is only
// re-measured while its calibrated prediction stays within this factor of
// the chosen plan's. uncalibratedExploreCutoff is the pre-calibration
// explosion guard over the raw unit priors, deliberately loose so that a
// plan within a few orders of magnitude still gets its one calibrating
// sample.
const (
	exploreCutoff             = 32.0
	uncalibratedExploreCutoff = 1024.0
)

// runPlans runs the decided step order of t's compiled program on ex, which
// appends the matches to ex.out, and feeds the observed wall time back into
// the template's calibrated cost model. When the decision requests
// exploration, the other order runs afterwards for calibration only: its
// matches are dropped again (both orders emit the same rows, so nothing is
// lost), its cost lands in ExploreWall, not CQ, and its probes and rows are
// not counted.
//
//mmqjp:nondet wall-clock cost calibration; plan choice is output-invisible
//mmqjp:shardaccess called from the owning shard's evaluation; timings land on that shard
func (p *Processor) runPlans(sh *shard, t *Template, d planDecision, ex *cqExec) {
	ps := t.plan
	// Calibration is a PlanAuto concept: forced plans skip the unit
	// estimation in choosePlan, so feeding their wall times into the cost
	// models would record nanoseconds-per-run under fields documented as
	// per-unit costs. Forced runs still tick the run counters.
	auto := p.cfg.Plan == PlanAuto
	chosen, other := t.progs[0], t.progs[1]
	if d.rtDriven {
		chosen, other = other, chosen
	}
	ex.probes, ex.rows = 0, 0
	dt := ps.timedRun(ex, chosen, d, auto)
	sh.stats.CQ += dt
	sh.stats.CQProbes += ex.probes
	sh.stats.CQRows += ex.rows
	if d.rtDriven {
		sh.stats.RTPlans++
		ps.rtRuns++
	} else {
		sh.stats.WitnessPlans++
		ps.witnessRuns++
	}
	if d.explore {
		sh.stats.Explorations++
		ps.explorations++
		kept := len(ex.out)
		sh.stats.ExploreWall += ps.timedRun(ex, other, d, true)
		ex.out = ex.out[:kept]
	}
}

// timedRun runs prog on ex and records the run: the vector groups an
// RT-driven run evaluated, and — when calibrate is set — its wall time
// against the cost units the decision estimated.
//
//mmqjp:nondet wall-clock cost calibration; plan choice is output-invisible
func (ps *planStats) timedRun(ex *cqExec, prog *cqProgram, d planDecision, calibrate bool) time.Duration {
	t0 := time.Now()
	ex.run(prog)
	dt := time.Since(t0)
	cost, units := &ps.witnessCost, d.witnessUnits
	if prog.rtDriven {
		cost, units = &ps.rtCost, d.rtUnits
		ps.probes.observe(float64(len(prog.t.vecList)))
	}
	if calibrate {
		cost.observe(float64(dt), units)
	}
	return dt
}

// TemplatePlanStats is one live template's adaptive-planner snapshot, as
// returned by Processor.PlanStats.
type TemplatePlanStats struct {
	Template TemplateID
	Sig      string
	// VecGroups is the live distinct-variable-vector count, the outer
	// cardinality of the RT-driven plan.
	VecGroups int
	// FanoutEWMA is the observed witness fan-out estimate.
	FanoutEWMA float64
	// ProbeEWMA is the observed number of vector groups evaluated per
	// RT-driven run.
	ProbeEWMA float64
	// WitnessNsPerUnit and RTNsPerUnit are the calibrated per-unit costs
	// (0 until the plan has been observed on this template; forced plans
	// never calibrate, so both stay 0 outside PlanAuto).
	WitnessNsPerUnit float64
	RTNsPerUnit      float64
	WitnessRuns      int64
	RTRuns           int64
	Explorations     int64
	// LastRTDriven reports the most recent decision.
	LastRTDriven bool
}

// PlanStats returns a snapshot of the adaptive planner's per-template
// statistics for the live templates, in template-id order. Like Stats, it
// must not race a Process call (the engine facade serializes them).
func (p *Processor) PlanStats() []TemplatePlanStats {
	out := make([]TemplatePlanStats, 0, len(p.templateList))
	for _, t := range p.templateList {
		ps := t.plan
		out = append(out, TemplatePlanStats{
			Template:         t.ID,
			Sig:              t.Sig,
			VecGroups:        len(t.vecList),
			FanoutEWMA:       ps.fanout.value(),
			ProbeEWMA:        ps.probes.value(),
			WitnessNsPerUnit: ps.witnessCost.perUnit(),
			RTNsPerUnit:      ps.rtCost.perUnit(),
			WitnessRuns:      ps.witnessRuns,
			RTRuns:           ps.rtRuns,
			Explorations:     ps.explorations,
			LastRTDriven:     ps.lastRTDriven,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Template < out[j].Template })
	return out
}
