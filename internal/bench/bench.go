// Package bench regenerates every table and figure of the paper's
// evaluation (Section 6). Each runner reproduces one experiment's workload
// and parameter sweep and reports the same series the paper plots; absolute
// numbers differ from the paper's 2007 SQL-Server testbed, but the shapes —
// who wins, by what order of magnitude, where curves flatten — are the
// reproduction targets (see EXPERIMENTS.md).
package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	mmqjp "repro"
	"repro/internal/core"
	"repro/internal/sequential"
	"repro/internal/workload"
	"repro/internal/xmldoc"
	"repro/internal/xscl"
)

// Mode selects the system under test.
type Mode int

const (
	// ModeMMQJP is Algorithm 1 (template joins, no view materialization).
	ModeMMQJP Mode = iota
	// ModeViewMat is Algorithm 4 (shared views + view cache).
	ModeViewMat
	// ModeSequential is the per-query baseline.
	ModeSequential
)

func (m Mode) String() string {
	switch m {
	case ModeMMQJP:
		return "MMQJP"
	case ModeViewMat:
		return "MMQJP+ViewMat"
	default:
		return "Sequential"
	}
}

// Result is one experiment's output table. The JSON form is what
// cmd/mmqjp-bench -json writes and cmd/benchdiff compares (benchdiff reads
// only Columns/Rows; Stats rides along for monitoring pipelines).
type Result struct {
	ID      string     `json:"id"` // "fig8", "table3", ...
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	// Stats is the structured engine-stats snapshot of the experiment's
	// final (largest) engine run, in the same mmqjp.EngineStats schema the
	// server's STATS reply and /metrics endpoint report — one schema for
	// every stats consumer. Nil for experiments with no full engine pass.
	Stats *mmqjp.EngineStats `json:"stats,omitempty"`
}

// String renders the result as an aligned text table.
func (r Result) String() string {
	width := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		width[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", r.ID, r.Title)
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", width[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(r.Columns)
	for _, row := range r.Rows {
		writeRow(row)
	}
	return sb.String()
}

// Options tunes experiment scale. Zero values select defaults sized to run
// the full suite in minutes; the paper-scale values are noted per field.
type Options struct {
	Seed        int64
	QueryCounts []int // fig8/11/16 sweep (paper: 10..100000; fig16 to 1e6)
	Queries     int   // fixed query count for fig9/10/12/13 (paper: 1000)
	BigQueries  int   // query count for fig14/15 (paper: 100000)
	RSSItems    int   // stream length for fig16 (paper: 225000)
	SeqRSSItems int   // stream length cap for the sequential runs of fig16
	Repeats     int   // measurement repetitions for the two-document experiments (reported value is the mean)
	// WorkerCounts is the Stage-2 worker sweep of the "workers"
	// experiment (not a paper figure: it measures the parallel
	// template-sharded engine, default 1,2,4,8).
	WorkerCounts []int
	// PipelineDepths is the ingest-pipeline depth sweep of the "pipeline"
	// experiment (not a paper figure: it measures the batched
	// Stage-1/Stage-2 overlap, default 1,2,4,8; 1 = sequential baseline).
	PipelineDepths []int
	// ChurnCounts is the subscription-churn sweep of the "churn"
	// experiment: between stream chunks, this many of the oldest queries
	// are unsubscribed and as many fresh ones subscribed (default
	// 0,8,64; 0 = the churn-free baseline).
	ChurnCounts []int
	// PublisherCounts is the concurrent-publisher sweep of the
	// "publishers" experiment (not a paper figure: it measures the
	// continuous async ingest pipeline under concurrent admission,
	// default 1,2,4,8).
	PublisherCounts []int
	// PartitionCounts is the router-partition sweep of the "partitions"
	// experiment (not a paper figure: it measures the engine-of-engines
	// router behind the public facade, default 1,2,4; 1 = the single
	// unpartitioned engine).
	PartitionCounts []int
	// ScaleQueries and ScaleItems size the "scale" experiment's
	// paper-scale workload (scale.go). The nominal paper-scale regime is
	// workload.DefaultPaperScale() — 100k instances over 2000 items; the
	// defaults here (1500 queries, 250 items) are a time-budget slice of
	// it that still clears 50 live templates, and the CI gate runs an even
	// smaller one (see the Makefile).
	ScaleQueries int
	ScaleItems   int
}

// Defaults fills zero fields.
func (o Options) Defaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if len(o.QueryCounts) == 0 {
		o.QueryCounts = []int{10, 100, 1000, 10000, 100000}
	}
	if o.Queries == 0 {
		o.Queries = 1000
	}
	if o.BigQueries == 0 {
		o.BigQueries = 100000
	}
	if o.RSSItems == 0 {
		o.RSSItems = 5000
	}
	if o.SeqRSSItems == 0 {
		o.SeqRSSItems = o.RSSItems
	}
	if o.Repeats == 0 {
		o.Repeats = 3
	}
	if len(o.WorkerCounts) == 0 {
		o.WorkerCounts = []int{1, 2, 4, 8}
	}
	if len(o.PipelineDepths) == 0 {
		o.PipelineDepths = []int{1, 2, 4, 8}
	}
	if len(o.ChurnCounts) == 0 {
		o.ChurnCounts = []int{0, 8, 64}
	}
	if len(o.PublisherCounts) == 0 {
		o.PublisherCounts = []int{1, 2, 4, 8}
	}
	if len(o.PartitionCounts) == 0 {
		o.PartitionCounts = []int{1, 2, 4}
	}
	if o.ScaleQueries == 0 {
		o.ScaleQueries = 1500
	}
	if o.ScaleItems == 0 {
		o.ScaleItems = 250
	}
	return o
}

// twoDocRun measures the total Stage-2 (join) processing time of d2 given d1
// in the join state, for the given query set and mode, averaged over
// repeats runs (the paper averaged 10 runs). It returns milliseconds and the
// number of templates (0 for sequential).
func twoDocRun(qs []*xscl.Query, d1, d2 *xmldoc.Document, mode Mode, repeats int) (float64, int) {
	if repeats < 1 {
		repeats = 1
	}
	total := 0.0
	templates := 0
	for r := 0; r < repeats; r++ {
		if mode == ModeSequential {
			p := sequential.NewProcessor()
			for _, q := range qs {
				p.MustRegister(q)
			}
			p.Process("S", d1)
			p.ResetStats()
			p.Process("S", d2)
			total += float64(p.JoinTime()) / float64(time.Millisecond)
			continue
		}
		p := core.NewProcessor(core.Config{ViewMaterialization: mode == ModeViewMat})
		for _, q := range qs {
			p.MustRegister(q)
		}
		p.Process("S", d1)
		p.ResetStats()
		p.Process("S", d2)
		s := p.Stats()
		total += float64(s.Rvj+s.RL+s.RR+s.CQ) / float64(time.Millisecond)
		templates = p.NumTemplates()
	}
	return total / float64(repeats), templates
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func f(v float64) string { return fmt.Sprintf("%.3f", v) }

// Fig8 — simple (two-level) schema, total conjunctive query processing time
// vs number of queries, MMQJP vs Sequential.
func Fig8(o Options) Result {
	o = o.Defaults()
	c := workload.DefaultTwoLevel()
	res := Result{ID: "fig8", Title: "simple schema: time vs #queries",
		Columns: []string{"queries", "MMQJP (ms)", "Sequential (ms)", "templates"}}
	for _, nq := range o.QueryCounts {
		rng := rand.New(rand.NewSource(o.Seed))
		qs := c.Queries(rng, nq)
		d1, d2 := c.Documents()
		tm, ntmpl := twoDocRun(qs, d1, d2, ModeMMQJP, o.Repeats)
		ts, _ := twoDocRun(qs, d1, d2, ModeSequential, o.Repeats)
		res.Rows = append(res.Rows, []string{fmt.Sprint(nq), f(tm), f(ts), fmt.Sprint(ntmpl)})
	}
	return res
}

// Fig9 — simple schema, time vs number of leaf nodes N.
func Fig9(o Options) Result {
	o = o.Defaults()
	res := Result{ID: "fig9", Title: "simple schema: time vs #leaves N",
		Columns: []string{"leaves", "MMQJP (ms)", "Sequential (ms)", "templates"}}
	for _, n := range []int{4, 6, 8, 10, 12} {
		c := workload.TwoLevel{N: n, Theta: 0.8, Window: 1000}
		rng := rand.New(rand.NewSource(o.Seed))
		qs := c.Queries(rng, o.Queries)
		d1, d2 := c.Documents()
		tm, ntmpl := twoDocRun(qs, d1, d2, ModeMMQJP, o.Repeats)
		ts, _ := twoDocRun(qs, d1, d2, ModeSequential, o.Repeats)
		res.Rows = append(res.Rows, []string{fmt.Sprint(n), f(tm), f(ts), fmt.Sprint(ntmpl)})
	}
	return res
}

// Fig10 — simple schema, time vs Zipf parameter.
func Fig10(o Options) Result {
	o = o.Defaults()
	res := Result{ID: "fig10", Title: "simple schema: time vs Zipf parameter",
		Columns: []string{"zipf", "MMQJP (ms)", "Sequential (ms)", "templates"}}
	for _, theta := range []float64{0, 0.4, 0.8, 1.2, 1.6} {
		c := workload.TwoLevel{N: 6, Theta: theta, Window: 1000}
		rng := rand.New(rand.NewSource(o.Seed))
		qs := c.Queries(rng, o.Queries)
		d1, d2 := c.Documents()
		tm, ntmpl := twoDocRun(qs, d1, d2, ModeMMQJP, o.Repeats)
		ts, _ := twoDocRun(qs, d1, d2, ModeSequential, o.Repeats)
		res.Rows = append(res.Rows, []string{fmt.Sprintf("%.1f", theta), f(tm), f(ts), fmt.Sprint(ntmpl)})
	}
	return res
}

// Fig11 — complex (three-level) schema, time vs number of queries.
func Fig11(o Options) Result {
	o = o.Defaults()
	c := workload.DefaultThreeLevel()
	res := Result{ID: "fig11", Title: "complex schema: time vs #queries",
		Columns: []string{"queries", "MMQJP (ms)", "Sequential (ms)", "templates"}}
	for _, nq := range o.QueryCounts {
		rng := rand.New(rand.NewSource(o.Seed))
		qs := c.Queries(rng, nq)
		d1, d2 := c.Documents()
		tm, ntmpl := twoDocRun(qs, d1, d2, ModeMMQJP, o.Repeats)
		ts, _ := twoDocRun(qs, d1, d2, ModeSequential, o.Repeats)
		res.Rows = append(res.Rows, []string{fmt.Sprint(nq), f(tm), f(ts), fmt.Sprint(ntmpl)})
	}
	return res
}

// Fig12 — complex schema, time vs maximum number of value joins K.
func Fig12(o Options) Result {
	o = o.Defaults()
	res := Result{ID: "fig12", Title: "complex schema: time vs max value joins K",
		Columns: []string{"K", "MMQJP (ms)", "Sequential (ms)", "templates"}}
	for _, k := range []int{2, 3, 4, 5} {
		c := workload.ThreeLevel{Branch: 4, K: k, Theta: 0.8, Window: 1000}
		rng := rand.New(rand.NewSource(o.Seed))
		qs := c.Queries(rng, o.Queries)
		d1, d2 := c.Documents()
		tm, ntmpl := twoDocRun(qs, d1, d2, ModeMMQJP, o.Repeats)
		ts, _ := twoDocRun(qs, d1, d2, ModeSequential, o.Repeats)
		res.Rows = append(res.Rows, []string{fmt.Sprint(k), f(tm), f(ts), fmt.Sprint(ntmpl)})
	}
	return res
}

// Fig13 — complex schema, time vs Zipf parameter.
func Fig13(o Options) Result {
	o = o.Defaults()
	res := Result{ID: "fig13", Title: "complex schema: time vs Zipf parameter",
		Columns: []string{"zipf", "MMQJP (ms)", "Sequential (ms)", "templates"}}
	for _, theta := range []float64{0, 0.4, 0.8, 1.2, 1.6} {
		c := workload.ThreeLevel{Branch: 4, K: 4, Theta: theta, Window: 1000}
		rng := rand.New(rand.NewSource(o.Seed))
		qs := c.Queries(rng, o.Queries)
		d1, d2 := c.Documents()
		tm, ntmpl := twoDocRun(qs, d1, d2, ModeMMQJP, o.Repeats)
		ts, _ := twoDocRun(qs, d1, d2, ModeSequential, o.Repeats)
		res.Rows = append(res.Rows, []string{fmt.Sprintf("%.1f", theta), f(tm), f(ts), fmt.Sprint(ntmpl)})
	}
	return res
}

// viewMatBreakdown measures the stacked cost components of Figures 14/15.
func viewMatBreakdown(qs []*xscl.Query, d1, d2 *xmldoc.Document) (plain float64, rvj, rl, rr, cq float64) {
	plain, _ = twoDocRun(qs, d1, d2, ModeMMQJP, 1)

	p := core.NewProcessor(core.Config{ViewMaterialization: true})
	for _, q := range qs {
		p.MustRegister(q)
	}
	p.Process("S", d1)
	p.ResetStats()
	p.Process("S", d2)
	s := p.Stats()
	return plain, ms(s.Rvj), ms(s.RL), ms(s.RR), ms(s.CQ)
}

// Fig14 — view materialization breakdown on the simple schema.
func Fig14(o Options) Result {
	o = o.Defaults()
	c := workload.DefaultTwoLevel()
	rng := rand.New(rand.NewSource(o.Seed))
	qs := c.Queries(rng, o.BigQueries)
	d1, d2 := c.Documents()
	plain, rvj, rl, rr, cq := viewMatBreakdown(qs, d1, d2)
	return Result{ID: "fig14", Title: fmt.Sprintf("view materialization, simple schema, %d queries", o.BigQueries),
		Columns: []string{"approach", "component", "time (ms)"},
		Rows: [][]string{
			{"MMQJP", "conjunctive query", f(plain)},
			{"MMQJP+ViewMat", "computing Rvj (STR)", f(rvj)},
			{"MMQJP+ViewMat", "computing RL", f(rl)},
			{"MMQJP+ViewMat", "computing RR", f(rr)},
			{"MMQJP+ViewMat", "conjunctive query", f(cq)},
			{"MMQJP+ViewMat", "total", f(rvj + rl + rr + cq)},
		}}
}

// Fig15 — view materialization breakdown on the complex schema.
func Fig15(o Options) Result {
	o = o.Defaults()
	c := workload.DefaultThreeLevel()
	rng := rand.New(rand.NewSource(o.Seed))
	qs := c.Queries(rng, o.BigQueries)
	d1, d2 := c.Documents()
	plain, rvj, rl, rr, cq := viewMatBreakdown(qs, d1, d2)
	return Result{ID: "fig15", Title: fmt.Sprintf("view materialization, complex schema, %d queries", o.BigQueries),
		Columns: []string{"approach", "component", "time (ms)"},
		Rows: [][]string{
			{"MMQJP", "conjunctive query", f(plain)},
			{"MMQJP+ViewMat", "computing Rvj (STR)", f(rvj)},
			{"MMQJP+ViewMat", "computing RL", f(rl)},
			{"MMQJP+ViewMat", "computing RR", f(rr)},
			{"MMQJP+ViewMat", "conjunctive query", f(cq)},
			{"MMQJP+ViewMat", "total", f(rvj + rl + rr + cq)},
		}}
}

// Fig16 — RSS stream processing throughput vs number of queries.
func Fig16(o Options) Result {
	o = o.Defaults()
	res := Result{ID: "fig16", Title: fmt.Sprintf("RSS stream throughput (%d items)", o.RSSItems),
		Columns: []string{"queries", "MMQJP+ViewMat (ev/s)", "MMQJP (ev/s)", "Sequential (ev/s)", "seq items"}}
	c := workload.DefaultRSS()
	for _, nq := range o.QueryCounts {
		rng := rand.New(rand.NewSource(o.Seed))
		qs := c.Queries(rng, nq)
		srng := rand.New(rand.NewSource(o.Seed + 7))
		stream := c.Stream(srng, o.RSSItems)

		vm, vmStats := rssThroughput(qs, stream, ModeViewMat)
		basic, _ := rssThroughput(qs, stream, ModeMMQJP)
		seqStream := stream
		if len(seqStream) > o.SeqRSSItems {
			seqStream = seqStream[:o.SeqRSSItems]
		}
		seq, _ := rssThroughput(qs, seqStream, ModeSequential)
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(nq), f(vm), f(basic), f(seq), fmt.Sprint(len(seqStream))})
		res.Stats = vmStats
	}
	return res
}

// rssThroughput returns events/second of Stage-2 join processing over the
// stream, plus the run's structured stats (nil for sequential).
func rssThroughput(qs []*xscl.Query, stream []*xmldoc.Document, mode Mode) (float64, *mmqjp.EngineStats) {
	if mode == ModeSequential {
		p := sequential.NewProcessor()
		for _, q := range qs {
			p.MustRegister(q)
		}
		for _, d := range stream {
			p.Process("S", d)
		}
		return perSecond(len(stream), p.JoinTime()), nil
	}
	p := core.NewProcessor(core.Config{ViewMaterialization: mode == ModeViewMat})
	for _, q := range qs {
		p.MustRegister(q)
	}
	for _, d := range stream {
		p.Process("S", d)
	}
	s := p.Stats()
	return perSecond(len(stream), s.Rvj+s.RL+s.RR+s.CQ), engineStats(p)
}

// engineStats converts a processor's accumulated core.Stats into the public
// structured form that Result.Stats carries.
func engineStats(p *core.Processor) *mmqjp.EngineStats {
	s := p.Stats()
	return &mmqjp.EngineStats{
		Queries:      p.NumQueries(),
		Templates:    p.NumTemplates(),
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
	}
}

func perSecond(n int, d time.Duration) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// WorkersSweep — not a paper figure: Stage-2 wall-clock throughput vs the
// number of template-shard workers on the RSS multi-template workload, the
// scaling measurement of the parallel engine. Stage2Wall is the
// coordinator-side wall time of template evaluation, the quantity that
// shrinks as workers are added (the per-phase stats sum CPU time across
// workers and do not).
func WorkersSweep(o Options) Result {
	o = o.Defaults()
	c := workload.DefaultRSS()
	rng := rand.New(rand.NewSource(o.Seed))
	qs := c.Queries(rng, o.Queries)
	srng := rand.New(rand.NewSource(o.Seed + 7))
	stream := c.Stream(srng, o.RSSItems)
	res := Result{ID: "workers",
		Title:   fmt.Sprintf("Stage-2 throughput vs workers (%d queries, %d items)", o.Queries, len(stream)),
		Columns: []string{"workers", "MMQJP (ev/s)", "MMQJP+ViewMat (ev/s)", "templates"}}
	for _, nw := range o.WorkerCounts {
		basic, bp := stage2Throughput(qs, stream, ModeMMQJP, nw)
		vm, vp := stage2Throughput(qs, stream, ModeViewMat, nw)
		res.Rows = append(res.Rows, []string{fmt.Sprint(nw), f(basic), f(vm), fmt.Sprint(bp.NumTemplates())})
		res.Stats = engineStats(vp)
	}
	return res
}

// stage2Throughput returns events/second of Stage-2 wall-clock time over
// the stream with the given worker count, plus the finished processor.
func stage2Throughput(qs []*xscl.Query, stream []*xmldoc.Document, mode Mode, workers int) (float64, *core.Processor) {
	p := core.NewProcessor(core.Config{ViewMaterialization: mode == ModeViewMat, Workers: workers})
	for _, q := range qs {
		p.MustRegister(q)
	}
	for _, d := range stream {
		p.Process("S", d)
	}
	return perSecond(len(stream), p.Stats().Stage2Wall), p
}

// PipelineSweep — not a paper figure: end-to-end ingest throughput
// (documents/second of the full two-stage pipeline, wall clock of one
// ProcessBatch over the whole stream) versus the batch-ingestion pipeline
// depth on the multi-template RSS workload. Depth 1 is the sequential
// per-document baseline; deeper pipelines overlap Stage 1 of upcoming
// documents with the in-order Stage-2 consumption.
func PipelineSweep(o Options) Result {
	o = o.Defaults()
	c := workload.DefaultRSS()
	rng := rand.New(rand.NewSource(o.Seed))
	qs := c.Queries(rng, o.Queries)
	srng := rand.New(rand.NewSource(o.Seed + 7))
	stream := c.Stream(srng, o.RSSItems)
	res := Result{ID: "pipeline",
		Title:   fmt.Sprintf("end-to-end ingest throughput vs pipeline depth (%d queries, %d items)", o.Queries, len(stream)),
		Columns: []string{"depth", "MMQJP (docs/s)", "MMQJP+ViewMat (docs/s)", "templates"}}
	for _, depth := range o.PipelineDepths {
		basic, bp := ingestThroughput(qs, stream, ModeMMQJP, depth)
		vm, vp := ingestThroughput(qs, stream, ModeViewMat, depth)
		res.Rows = append(res.Rows, []string{fmt.Sprint(depth), f(basic), f(vm), fmt.Sprint(bp.NumTemplates())})
		res.Stats = engineStats(vp)
	}
	return res
}

// ingestThroughput returns end-to-end documents/second of one ProcessBatch
// over the stream at the given pipeline depth, plus the finished processor.
func ingestThroughput(qs []*xscl.Query, stream []*xmldoc.Document, mode Mode, depth int) (float64, *core.Processor) {
	p := core.NewProcessor(core.Config{ViewMaterialization: mode == ModeViewMat, PipelineDepth: depth})
	for _, q := range qs {
		p.MustRegister(q)
	}
	start := time.Now()
	p.ProcessBatch("S", stream)
	return perSecond(len(stream), time.Since(start)), p
}

// ChurnSweep — not a paper figure: end-to-end ingest throughput on the RSS
// workload under subscription churn, the lifecycle measurement of the
// refcounted template machinery. The stream is processed in 8 chunks;
// between chunks the k oldest subscriptions are unsubscribed and k fresh
// ones subscribed (k = the sweep parameter, 0 = churn-free baseline), so
// canonical templates are continuously reclaimed and re-registered while
// documents flow. Reported docs/s include the churn work itself.
func ChurnSweep(o Options) Result {
	o = o.Defaults()
	c := workload.DefaultRSS()
	srng := rand.New(rand.NewSource(o.Seed + 7))
	stream := c.Stream(srng, o.RSSItems)
	res := Result{ID: "churn",
		Title:   fmt.Sprintf("ingest throughput under subscription churn (%d standing queries, %d items)", o.Queries, len(stream)),
		Columns: []string{"churn/chunk", "MMQJP (docs/s)", "MMQJP+ViewMat (docs/s)", "churn ops/s", "templates"}}
	for _, k := range o.ChurnCounts {
		basic, _, _ := churnRun(c, stream, o, ModeMMQJP, k)
		vm, churnRate, vp := churnRun(c, stream, o, ModeViewMat, k)
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(k), f(basic), f(vm), f(churnRate), fmt.Sprint(vp.NumTemplates())})
		res.Stats = engineStats(vp)
	}
	return res
}

// churnRun ingests the stream in chunks, unsubscribing the k oldest and
// subscribing k fresh queries between chunks, and returns whole-run
// documents/second, churn operations/second, and the final processor
// (for template counts and structured stats).
func churnRun(c workload.RSS, stream []*xmldoc.Document, o Options, mode Mode, k int) (docsPerSec, churnPerSec float64, proc *core.Processor) {
	qrng := rand.New(rand.NewSource(o.Seed))
	p := core.NewProcessor(core.Config{ViewMaterialization: mode == ModeViewMat})
	var live []core.QueryID
	for _, q := range c.Queries(qrng, o.Queries) {
		live = append(live, p.MustRegister(q))
	}
	const chunks = 8
	chunk := (len(stream) + chunks - 1) / chunks
	churnOps := 0
	start := time.Now()
	for i := 0; i < len(stream); i += chunk {
		end := i + chunk
		if end > len(stream) {
			end = len(stream)
		}
		p.ProcessBatch("S", stream[i:end])
		if k > 0 {
			for _, q := range c.Queries(qrng, k) {
				live = append(live, p.MustRegister(q))
			}
			for _, id := range live[:k] {
				p.MustUnregister(id)
			}
			live = live[k:]
			churnOps += 2 * k
		}
	}
	elapsed := time.Since(start)
	return perSecond(len(stream), elapsed), perSecond(churnOps, elapsed), p
}

// PublishersSweep — not a paper figure: sustained end-to-end ingest
// throughput versus the number of concurrent publisher goroutines feeding
// the continuous async ingest pipeline (core.Ingest) on the multi-template
// RSS workload. One publisher is the serial-admission baseline; more
// publishers contend on admission while the pipeline overlaps their
// documents' Stage-1 work ahead of the in-order Stage-2 consumption.
func PublishersSweep(o Options) Result {
	o = o.Defaults()
	c := workload.DefaultRSS()
	rng := rand.New(rand.NewSource(o.Seed))
	qs := c.Queries(rng, o.Queries)
	srng := rand.New(rand.NewSource(o.Seed + 7))
	stream := c.Stream(srng, o.RSSItems)
	res := Result{ID: "publishers",
		Title:   fmt.Sprintf("continuous ingest throughput vs concurrent publishers (%d queries, %d items)", o.Queries, len(stream)),
		Columns: []string{"publishers", "MMQJP (docs/s)", "MMQJP+ViewMat (docs/s)", "templates"}}
	for _, np := range o.PublisherCounts {
		basic, bp := publisherThroughput(qs, stream, ModeMMQJP, np)
		vm, vp := publisherThroughput(qs, stream, ModeViewMat, np)
		res.Rows = append(res.Rows, []string{fmt.Sprint(np), f(basic), f(vm), fmt.Sprint(bp.NumTemplates())})
		res.Stats = engineStats(vp)
	}
	return res
}

// publisherThroughput returns end-to-end documents/second of the stream
// pushed through a continuous ingest pipeline by the given number of
// concurrent publisher goroutines (round-robin split), plus the finished
// processor. The clock stops after Close, which drains the pipeline.
func publisherThroughput(qs []*xscl.Query, stream []*xmldoc.Document, mode Mode, publishers int) (float64, *core.Processor) {
	p := core.NewProcessor(core.Config{ViewMaterialization: mode == ModeViewMat})
	for _, q := range qs {
		p.MustRegister(q)
	}
	ing := core.NewIngest(p, core.IngestConfig{Depth: 4, Workers: 4})
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < publishers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(stream); i += publishers {
				_ = ing.Submit("S", stream[i], nil)
			}
		}(w)
	}
	wg.Wait()
	ing.Close()
	return perSecond(len(stream), time.Since(start)), p
}

// PartitionsSweep — not a paper figure: end-to-end ingest throughput of the
// engine-of-engines router (Options.Partitions) versus partition count on
// the multi-template RSS workload, measured through the public facade (New
// + PublishBatch) so the router's fan-out, merge, and global-id relabeling
// are all on the clock. Partitions = 1 is the single unpartitioned engine.
//
// The throughput series is "(info)": on a gate host every partition runs
// the same full document stream, so wall-clock scaling is scheduler noise
// there and carries no regression signal. The matches column IS the gate's
// invariant — routed output is byte-identical to the single engine for
// every N, so the count must not vary down the rows (the run fails fast if
// it does, rather than publishing a wrong table).
func PartitionsSweep(o Options) Result {
	o = o.Defaults()
	c := workload.DefaultRSS()
	rng := rand.New(rand.NewSource(o.Seed))
	qs := c.Queries(rng, o.Queries)
	srng := rand.New(rand.NewSource(o.Seed + 7))
	stream := c.Stream(srng, o.RSSItems)
	res := Result{ID: "partitions",
		Title:   fmt.Sprintf("routed ingest throughput vs partition count (%d queries, %d items)", o.Queries, len(stream)),
		Columns: []string{"partitions", "MMQJP+ViewMat (docs/s) (info)", "matches", "templates"}}
	baselineMatches := int64(-1)
	for _, n := range o.PartitionCounts {
		eng := mmqjp.New(mmqjp.Options{Processor: mmqjp.ProcessorViewMat, Partitions: n, PipelineDepth: 2})
		for _, q := range qs {
			eng.MustSubscribe(q.Source)
		}
		start := time.Now()
		eng.PublishBatch("S", stream)
		docsPerSec := perSecond(len(stream), time.Since(start))
		stats := eng.Stats()
		if baselineMatches < 0 {
			baselineMatches = stats.Matches
		} else if stats.Matches != baselineMatches {
			panic(fmt.Sprintf("bench: partitions=%d produced %d matches, partitions=%d produced %d — the router broke N-invariance",
				n, stats.Matches, o.PartitionCounts[0], baselineMatches))
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(n), f(docsPerSec), fmt.Sprint(stats.Matches), fmt.Sprint(stats.Templates)})
		res.Stats = &stats
	}
	return res
}

// PlanningSweep — not a paper figure: the adaptive-planner ablation. It
// measures end-to-end throughput (wall clock of per-document Process over
// the stream) of forced PlanWitness, forced PlanRTDriven, and adaptive
// PlanAuto (exploration on) on two opposed workloads:
//
//   - "rss-stream" favors the witness-driven plan: an incoming feed item's
//     string values collide with few stored values, so joining outward from
//     the current document is cheap.
//   - "colliding-twolevel" favors the RT-driven plan: every document
//     carries the same leaf values (the paper's technical benchmark,
//     streamed with a finite window), so the witness-side fan-out explodes
//     and iterating RT's distinct variable vectors wins.
//
// The reproduction target is that PlanAuto tracks the better forced plan on
// both workloads (within noise) — the paper's cost-based-choice claim, now
// driven by runtime statistics instead of frozen constants. The last
// column reports PlanAuto's chosen-plan and exploration counts.
func PlanningSweep(o Options) Result {
	o = o.Defaults()
	res := Result{ID: "planning",
		Title: fmt.Sprintf("adaptive planner vs forced plans (%d queries)", o.Queries),
		Columns: []string{"workload", "PlanWitness (docs/s)", "PlanRTDriven (docs/s)",
			"PlanAuto (docs/s)", "auto witness/rt/explore"}}

	rssc := workload.DefaultRSS()
	rng := rand.New(rand.NewSource(o.Seed))
	qs := rssc.Queries(rng, o.Queries)
	srng := rand.New(rand.NewSource(o.Seed + 7))
	stream := rssc.Stream(srng, o.RSSItems)
	row, _ := planningRow("rss-stream", qs, stream, o)
	res.Rows = append(res.Rows, row)

	tl := workload.TwoLevel{N: 4, Theta: 0.8, Window: 12}
	qrng := rand.New(rand.NewSource(o.Seed))
	tqs := tl.Queries(qrng, o.Queries)
	nDocs := o.RSSItems / 4
	if nDocs > 100 {
		nDocs = 100
	}
	if nDocs < 10 {
		nDocs = 10
	}
	row, stats := planningRow("colliding-twolevel", tqs, CollidingStream(tl.N, nDocs), o)
	res.Rows = append(res.Rows, row)
	res.Stats = stats
	return res
}

// CollidingStream builds the RT-favoring document stream of the "planning"
// experiment: n-leaf two-level documents all carrying identical values,
// timestamps advancing one unit per document. Exported so the root
// BenchmarkPlanningSweep measures exactly the gate experiment's workload
// shape.
func CollidingStream(n, count int) []*xmldoc.Document {
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

func planningRow(name string, qs []*xscl.Query, stream []*xmldoc.Document, o Options) ([]string, *mmqjp.EngineStats) {
	w, _ := planThroughput(qs, stream, core.PlanWitness, 0, o.Seed)
	r, _ := planThroughput(qs, stream, core.PlanRTDriven, 0, o.Seed)
	a, auto := planThroughput(qs, stream, core.PlanAuto, 64, o.Seed)
	s := engineStats(auto)
	return []string{name, f(w), f(r), f(a),
		fmt.Sprintf("%d/%d/%d", s.WitnessPlans, s.RTPlans, s.Explorations)}, s
}

// planThroughput returns end-to-end documents/second of per-document
// processing under the given plan (view materialization on, the production
// mode), plus the processor for the chosen-plan counters.
func planThroughput(qs []*xscl.Query, stream []*xmldoc.Document, plan core.PlanKind, explore int, seed int64) (float64, *core.Processor) {
	p := core.NewProcessor(core.Config{
		ViewMaterialization: true, Plan: plan,
		PlanExploreEvery: explore, PlanExploreSeed: seed,
	})
	for _, q := range qs {
		p.MustRegister(q)
	}
	start := time.Now()
	for _, d := range stream {
		p.Process("S", d)
	}
	return perSecond(len(stream), time.Since(start)), p
}

// Table3 — number of query templates vs number of value joins, for the flat
// and the complex (three-level) schema, computed by exact enumeration.
//
// Wirings are enumerated up to isomorphism: the left endpoint sequence and
// the right endpoint sequence are restricted to restricted-growth strings
// (every wiring can be relabeled into this form by renaming each side's
// leaves in order of first occurrence). For the complex schema, each side's
// distinct leaves are additionally partitioned over intermediate nodes in
// every possible way. The paper reports an upper bound "<230" for 4 joins on
// the complex schema; the enumeration here produces the exact count.
func Table3(o Options) Result {
	o = o.Defaults()
	res := Result{ID: "table3", Title: "#query templates vs #value joins",
		Columns: []string{"#VJ", "#QT (flat schema)", "#QT (complex schema)"}}
	for k := 1; k <= 4; k++ {
		flat := countFlatTemplates(k)
		complexN := countComplexTemplates(k)
		res.Rows = append(res.Rows, []string{fmt.Sprint(k), fmt.Sprint(flat), fmt.Sprint(complexN)})
	}
	return res
}

// rgs enumerates the restricted growth strings of length k: sequences with
// s[0] = 0 and s[i] ≤ max(s[0..i-1]) + 1. They canonically label sequences
// up to value renaming (there are Bell(k) of them).
func rgs(k int) [][]int {
	var out [][]int
	cur := make([]int, k)
	var rec func(i, max int)
	rec = func(i, max int) {
		if i == k {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for v := 0; v <= max+1; v++ {
			cur[i] = v
			rec(i+1, maxInt(max, v))
		}
	}
	rec(0, -1)
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// wirings enumerates the distinct-pair wirings of k value joins up to
// independent leaf relabeling on both sides.
func wirings(k int) (ls, rs [][]int) {
	seqs := rgs(k)
	for _, l := range seqs {
	next:
		for _, r := range seqs {
			seen := map[[2]int]bool{}
			for i := 0; i < k; i++ {
				key := [2]int{l[i], r[i]}
				if seen[key] {
					continue next // duplicate predicate: a (k-1)-join query
				}
				seen[key] = true
			}
			ls = append(ls, l)
			rs = append(rs, r)
		}
	}
	return ls, rs
}

// countFlatTemplates counts distinct templates over all k-join queries on a
// two-level schema.
func countFlatTemplates(k int) int {
	sigs := map[string]bool{}
	ls, rs := wirings(k)
	for i := range ls {
		q := flatWiringQuery(ls[i], rs[i])
		addTemplateSig(q, sigs)
	}
	return len(sigs)
}

// countComplexTemplates counts distinct templates over all k-join queries on
// the three-level schema: every wiring combined with every grouping of each
// side's leaves under intermediate nodes.
func countComplexTemplates(k int) int {
	sigs := map[string]bool{}
	ls, rs := wirings(k)
	for i := range ls {
		nl := maxOf(ls[i]) + 1
		nr := maxOf(rs[i]) + 1
		for _, lp := range rgs(nl) {
			for _, rp := range rgs(nr) {
				q := complexWiringQuery(ls[i], rs[i], lp, rp)
				addTemplateSig(q, sigs)
			}
		}
	}
	return len(sigs)
}

func maxOf(s []int) int {
	m := 0
	for _, v := range s {
		m = maxInt(m, v)
	}
	return m
}

func addTemplateSig(q *xscl.Query, sigs map[string]bool) {
	g, err := core.BuildJoinGraph(q)
	if err != nil {
		return
	}
	_, sig, _ := core.ExtractTemplate(g)
	sigs[sig] = true
}

// flatWiringQuery renders a two-level query with the given wiring: join i
// equates left leaf l[i] with right leaf r[i].
func flatWiringQuery(l, r []int) *xscl.Query {
	lhs := sideFlat(l, "v")
	rhs := sideFlat(r, "w")
	var preds []string
	for i := range l {
		preds = append(preds, fmt.Sprintf("v%d=w%d", l[i], r[i]))
	}
	sort.Strings(preds)
	return xscl.MustParse(fmt.Sprintf("%s FOLLOWED BY{%s, 10} %s", lhs, strings.Join(preds, " AND "), rhs))
}

func sideFlat(endpoints []int, pfx string) string {
	s := fmt.Sprintf("S//r->%s", pfx)
	for leaf := 0; leaf <= maxOf(endpoints); leaf++ {
		s += fmt.Sprintf("[.//l%d->%s%d]", leaf, pfx, leaf)
	}
	return s
}

// complexWiringQuery renders a three-level query: wiring as above, with each
// side's leaves grouped under intermediates by the partition strings lp/rp
// (lp[leaf] is the intermediate group of left leaf `leaf`).
func complexWiringQuery(l, r, lp, rp []int) *xscl.Query {
	lhs := sideComplex(lp, "v")
	rhs := sideComplex(rp, "w")
	var preds []string
	for i := range l {
		preds = append(preds, fmt.Sprintf("v%d=w%d", l[i], r[i]))
	}
	sort.Strings(preds)
	return xscl.MustParse(fmt.Sprintf("%s FOLLOWED BY{%s, 10} %s", lhs, strings.Join(preds, " AND "), rhs))
}

func sideComplex(part []int, pfx string) string {
	groups := map[int][]int{}
	order := []int{}
	for leaf, g := range part {
		if len(groups[g]) == 0 {
			order = append(order, g)
		}
		groups[g] = append(groups[g], leaf)
	}
	sort.Ints(order)
	s := fmt.Sprintf("S//r->%s", pfx)
	for _, g := range order {
		s += fmt.Sprintf("[./m%d->%sm%d", g, pfx, g)
		for _, leaf := range groups[g] {
			s += fmt.Sprintf("[./l%d->%s%d]", leaf, pfx, leaf)
		}
		s += "]"
	}
	return s
}

// All returns every experiment id: the paper's tables and figures in paper
// order, then the repo's own scaling experiments.
func All() []string {
	return []string{"table3", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "workers", "pipeline", "churn", "publishers", "planning", "partitions", "scale", "allocs"}
}

// Run executes one experiment by id.
func Run(id string, o Options) (Result, error) {
	switch id {
	case "table3":
		return Table3(o), nil
	case "fig8":
		return Fig8(o), nil
	case "fig9":
		return Fig9(o), nil
	case "fig10":
		return Fig10(o), nil
	case "fig11":
		return Fig11(o), nil
	case "fig12":
		return Fig12(o), nil
	case "fig13":
		return Fig13(o), nil
	case "fig14":
		return Fig14(o), nil
	case "fig15":
		return Fig15(o), nil
	case "fig16":
		return Fig16(o), nil
	case "workers":
		return WorkersSweep(o), nil
	case "pipeline":
		return PipelineSweep(o), nil
	case "churn":
		return ChurnSweep(o), nil
	case "publishers":
		return PublishersSweep(o), nil
	case "planning":
		return PlanningSweep(o), nil
	case "partitions":
		return PartitionsSweep(o), nil
	case "scale":
		return ScaleSweep(o), nil
	case "allocs":
		return AllocsSweep(o), nil
	default:
		return Result{}, fmt.Errorf("bench: unknown experiment %q (have %v)", id, All())
	}
}
