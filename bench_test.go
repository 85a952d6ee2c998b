// Package mmqjp_test is the external test package for the benchmarks: it
// exercises only internal packages.
package mmqjp_test

// One testing.B benchmark per table and figure of the paper's evaluation
// (Section 6), plus microbenchmarks of the subsystems the figures exercise.
// The figure benchmarks run reduced-scale sweeps so that `go test -bench=.`
// completes in minutes; the full paper-scale sweeps are produced by
// cmd/mmqjp-bench (see the README's "Benchmarks" section).

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/sequential"
	"repro/internal/workload"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
	"repro/internal/xscl"
	"repro/internal/yfilter"
)

func benchOptions() bench.Options {
	return bench.Options{
		Seed:        1,
		QueryCounts: []int{10, 100, 1000},
		Queries:     300,
		BigQueries:  10000,
		RSSItems:    500,
		SeqRSSItems: 500,
	}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		res, err := bench.Run(id, o)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// BenchmarkTable3 regenerates Table 3 (#templates vs #value joins) by exact
// enumeration over both schemas.
func BenchmarkTable3(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkFig8 regenerates Figure 8 (simple schema, time vs #queries).
func BenchmarkFig8(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9 regenerates Figure 9 (simple schema, time vs #leaves).
func BenchmarkFig9(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10 regenerates Figure 10 (simple schema, time vs Zipf).
func BenchmarkFig10(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11 regenerates Figure 11 (complex schema, time vs #queries).
func BenchmarkFig11(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkFig12 regenerates Figure 12 (complex schema, time vs K).
func BenchmarkFig12(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkFig13 regenerates Figure 13 (complex schema, time vs Zipf).
func BenchmarkFig13(b *testing.B) { runExperiment(b, "fig13") }

// BenchmarkFig14 regenerates Figure 14 (view materialization, simple schema).
func BenchmarkFig14(b *testing.B) { runExperiment(b, "fig14") }

// BenchmarkFig15 regenerates Figure 15 (view materialization, complex schema).
func BenchmarkFig15(b *testing.B) { runExperiment(b, "fig15") }

// BenchmarkFig16 regenerates Figure 16 (RSS stream throughput).
func BenchmarkFig16(b *testing.B) { runExperiment(b, "fig16") }

// --- Subsystem microbenchmarks ---

// BenchmarkRegisterQueries measures query registration (join graph, minor,
// canonical template, RT insert, pattern registration) on the two-level
// workload.
func BenchmarkRegisterQueries(b *testing.B) {
	c := workload.DefaultTwoLevel()
	rng := rand.New(rand.NewSource(1))
	qs := c.Queries(rng, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := core.NewProcessor(core.Config{})
		for _, q := range qs {
			p.MustRegister(q)
		}
	}
	b.ReportMetric(float64(1000), "queries/op")
}

// BenchmarkTemplateExtraction measures the join graph -> minor -> canonical
// form pipeline in isolation.
func BenchmarkTemplateExtraction(b *testing.B) {
	q := xscl.PaperQ1(100)
	g, err := core.BuildJoinGraph(q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ExtractTemplate(g)
	}
}

// BenchmarkXSCLParse measures the query language front end.
func BenchmarkXSCLParse(b *testing.B) {
	src := xscl.PaperQ1(100).Source
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xscl.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkYFilterMatch measures Stage 1: shared NFA matching of a document
// against 200 registered patterns (15 distinct once canonically equal ones
// are shared), every one of which the document triggers.
func BenchmarkYFilterMatch(b *testing.B) {
	e := yfilter.NewEngine()
	c := workload.DefaultRSS()
	names := c.LeafNames()
	for i := 0; i < 200; i++ {
		src := fmt.Sprintf("S//item->v0[./%s->v1][./%s->v2]",
			names[i%len(names)], names[(i+1+i/5)%len(names)])
		p, err := xpath.ParseBlock(src)
		if err != nil {
			b.Fatal(err)
		}
		e.Register(p)
	}
	rng := rand.New(rand.NewSource(2))
	benchYFilter(b, e, []*xmldoc.Document{c.Item(rng, 0)})
}

// BenchmarkYFilterMatchFewTrigger is the other regime: 1 000 path filters
// over 265-node feed documents, of which a document triggers a few percent.
func BenchmarkYFilterMatchFewTrigger(b *testing.B) {
	e := yfilter.NewEngine()
	c := workload.DefaultDeepFeed()
	for _, q := range c.Queries(rand.New(rand.NewSource(1)), 1000) {
		norm, _ := q.Left.NormalizedFullyBound()
		e.Register(norm)
	}
	benchYFilter(b, e, c.Stream(rand.New(rand.NewSource(2)), 16))
}

// benchYFilter matches the documents round-robin and assembles the bindings
// of every triggered pattern, returning each result to the engine's pool as
// Stage 1 does.
func benchYFilter(b *testing.B, e *yfilter.Engine, docs []*xmldoc.Document) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := e.MatchDocument("S", docs[i%len(docs)])
		for _, id := range r.Triggered() {
			r.Bindings(id)
		}
		r.Release()
	}
}

// BenchmarkProcessDocument measures steady-state per-document cost of the
// full MMQJP pipeline on the RSS workload.
func BenchmarkProcessDocument(b *testing.B) {
	c := workload.DefaultRSS()
	rng := rand.New(rand.NewSource(1))
	p := core.NewProcessor(core.Config{})
	for _, q := range c.Queries(rng, 5000) {
		p.MustRegister(q)
	}
	srng := rand.New(rand.NewSource(3))
	warm := c.Stream(srng, 500)
	for _, d := range warm {
		p.Process("S", d)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Process("S", c.Item(srng, 500+i))
	}
}

// BenchmarkSequentialProcessDocument is the per-query baseline counterpart.
func BenchmarkSequentialProcessDocument(b *testing.B) {
	c := workload.DefaultRSS()
	rng := rand.New(rand.NewSource(1))
	p := sequential.NewProcessor()
	for _, q := range c.Queries(rng, 5000) {
		p.MustRegister(q)
	}
	srng := rand.New(rand.NewSource(3))
	for _, d := range c.Stream(srng, 500) {
		p.Process("S", d)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Process("S", c.Item(srng, 500+i))
	}
}
