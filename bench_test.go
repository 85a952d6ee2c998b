// Package mmqjp_test is the external test package for the benchmarks: it
// exercises only internal packages, and keeping it external lets
// internal/bench import the root package (for the shared EngineStats
// schema) without an import cycle through the test binary.
package mmqjp_test

// One testing.B benchmark per table and figure of the paper's evaluation
// (Section 6), plus microbenchmarks of the subsystems the figures exercise.
// The figure benchmarks run reduced-scale sweeps so that `go test -bench=.`
// completes in minutes; the full paper-scale sweeps are produced by
// cmd/mmqjp-bench (see EXPERIMENTS.md for recorded results).

import (
	"fmt"
	"math/rand"
	"sync"
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
// against 200 distinct registered patterns.
func BenchmarkYFilterMatch(b *testing.B) {
	e := yfilter.NewEngine()
	var ids []yfilter.PatternID
	c := workload.DefaultRSS()
	names := c.LeafNames()
	for i := 0; i < 200; i++ {
		src := fmt.Sprintf("S//item->v0[./%s->v1][./%s->v2]",
			names[i%len(names)], names[(i+1+i/5)%len(names)])
		p, err := xpath.ParseBlock(src)
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, e.Register(p))
	}
	rng := rand.New(rand.NewSource(2))
	doc := c.Item(rng, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := e.MatchDocument("S", doc)
		for _, id := range ids {
			r.Witnesses(id)
		}
	}
}

// BenchmarkProcessDocumentViewMat measures steady-state per-document cost of
// the full MMQJP pipeline with view materialization on the RSS workload.
func BenchmarkProcessDocumentViewMat(b *testing.B) {
	benchProcessDocument(b, true)
}

// BenchmarkProcessDocumentBasic is the same without view materialization.
func BenchmarkProcessDocumentBasic(b *testing.B) {
	benchProcessDocument(b, false)
}

func benchProcessDocument(b *testing.B, viewMat bool) {
	c := workload.DefaultRSS()
	rng := rand.New(rand.NewSource(1))
	p := core.NewProcessor(core.Config{ViewMaterialization: viewMat})
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

// BenchmarkWorkersSweep measures steady-state per-document cost of the full
// pipeline at increasing Stage-2 worker counts on the multi-template RSS
// workload — the scaling benchmark of the template-sharded parallel engine.
func BenchmarkWorkersSweep(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		for _, viewMat := range []bool{false, true} {
			name := fmt.Sprintf("workers=%d/viewmat=%v", workers, viewMat)
			b.Run(name, func(b *testing.B) {
				c := workload.DefaultRSS()
				rng := rand.New(rand.NewSource(1))
				p := core.NewProcessor(core.Config{ViewMaterialization: viewMat, Workers: workers})
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
			})
		}
	}
}

// BenchmarkPipelineSweep measures end-to-end batch ingest (Stage 1 + Stage 2
// + maintenance, wall clock) at increasing pipeline depths on the
// multi-template RSS workload — the scaling benchmark of the batched
// Stage-1/Stage-2 overlap. Depth 1 is the sequential per-document baseline.
func BenchmarkPipelineSweep(b *testing.B) {
	for _, depth := range []int{1, 2, 4, 8} {
		for _, viewMat := range []bool{false, true} {
			name := fmt.Sprintf("depth=%d/viewmat=%v", depth, viewMat)
			b.Run(name, func(b *testing.B) {
				c := workload.DefaultRSS()
				rng := rand.New(rand.NewSource(1))
				p := core.NewProcessor(core.Config{ViewMaterialization: viewMat, PipelineDepth: depth})
				for _, q := range c.Queries(rng, 5000) {
					p.MustRegister(q)
				}
				srng := rand.New(rand.NewSource(3))
				for _, d := range c.Stream(srng, 500) {
					p.Process("S", d)
				}
				const batch = 32
				next := 500
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					docs := make([]*xmldoc.Document, batch)
					for j := range docs {
						docs[j] = c.Item(srng, next)
						next++
					}
					b.StartTimer()
					p.ProcessBatch("S", docs)
				}
				b.ReportMetric(batch, "docs/op")
			})
		}
	}
}

// BenchmarkPublishersSweep measures sustained end-to-end ingest throughput
// of the continuous async pipeline at increasing concurrent-publisher
// counts on the multi-template RSS workload — the scaling benchmark of the
// persistent Stage-1 pool under concurrent admission. One publisher is the
// serial-admission baseline.
func BenchmarkPublishersSweep(b *testing.B) {
	for _, publishers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("publishers=%d", publishers), func(b *testing.B) {
			c := workload.DefaultRSS()
			rng := rand.New(rand.NewSource(1))
			p := core.NewProcessor(core.Config{ViewMaterialization: true})
			for _, q := range c.Queries(rng, 5000) {
				p.MustRegister(q)
			}
			srng := rand.New(rand.NewSource(3))
			for _, d := range c.Stream(srng, 500) {
				p.Process("S", d)
			}
			ing := core.NewIngest(p, core.IngestConfig{Depth: 4, Workers: 4})
			defer ing.Close()
			const batch = 32
			next := 500
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				docs := make([]*xmldoc.Document, batch)
				for j := range docs {
					docs[j] = c.Item(srng, next)
					next++
				}
				b.StartTimer()
				var wg sync.WaitGroup
				for w := 0; w < publishers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for j := w; j < len(docs); j += publishers {
							if err := ing.Submit("S", docs[j], nil); err != nil {
								b.Error(err)
								return
							}
						}
					}(w)
				}
				wg.Wait()
				if err := ing.Flush(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(batch, "docs/op")
		})
	}
}

// BenchmarkChurnSweep measures end-to-end ingest throughput under
// subscription churn at increasing per-chunk churn counts on the
// multi-template RSS workload — the lifecycle benchmark of the refcounted
// template machinery (Unregister + reclamation). Churn 0 is the static
// baseline.
func BenchmarkChurnSweep(b *testing.B) {
	for _, churn := range []int{0, 8, 64} {
		for _, viewMat := range []bool{false, true} {
			name := fmt.Sprintf("churn=%d/viewmat=%v", churn, viewMat)
			b.Run(name, func(b *testing.B) {
				c := workload.DefaultRSS()
				srng := rand.New(rand.NewSource(3))
				stream := c.Stream(srng, 400)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					qrng := rand.New(rand.NewSource(1))
					p := core.NewProcessor(core.Config{ViewMaterialization: viewMat})
					var live []core.QueryID
					for _, q := range c.Queries(qrng, 1000) {
						live = append(live, p.MustRegister(q))
					}
					const chunk = 50
					for j := 0; j < len(stream); j += chunk {
						end := j + chunk
						if end > len(stream) {
							end = len(stream)
						}
						p.ProcessBatch("S", stream[j:end])
						if churn > 0 {
							for _, q := range c.Queries(qrng, churn) {
								live = append(live, p.MustRegister(q))
							}
							for _, id := range live[:churn] {
								p.MustUnregister(id)
							}
							live = live[churn:]
						}
					}
				}
				b.ReportMetric(float64(len(stream)), "docs/op")
			})
		}
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

// BenchmarkViewCacheAblation quantifies the Section-5 cache: steady-state
// document cost with the view cache and without it.
func BenchmarkViewCacheAblation(b *testing.B) {
	for _, tc := range []struct {
		name string
		cfg  core.Config
	}{
		{"cache", core.Config{ViewMaterialization: true}},
		{"nocache", core.Config{}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			c := workload.DefaultRSS()
			rng := rand.New(rand.NewSource(1))
			p := core.NewProcessor(tc.cfg)
			for _, q := range c.Queries(rng, 2000) {
				p.MustRegister(q)
			}
			srng := rand.New(rand.NewSource(3))
			for _, d := range c.Stream(srng, 300) {
				p.Process("S", d)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Process("S", c.Item(srng, 300+i))
			}
		})
	}
}

// BenchmarkPlanningSweep measures steady-state throughput of the three
// plan modes (forced witness, forced RT-driven, adaptive PlanAuto with
// exploration) on the two opposed planning workloads of the "planning"
// experiment: the witness-favoring RSS stream and the RT-favoring
// colliding two-level stream.
func BenchmarkPlanningSweep(b *testing.B) {
	rssc := workload.DefaultRSS()
	rssQueries := rssc.Queries(rand.New(rand.NewSource(1)), 300)
	rssStream := rssc.Stream(rand.New(rand.NewSource(8)), 300)

	tl := workload.TwoLevel{N: 4, Theta: 0.8, Window: 12}
	tlQueries := tl.Queries(rand.New(rand.NewSource(1)), 300)
	colliding := bench.CollidingStream(tl.N, 60)

	workloads := []struct {
		name   string
		qs     []*xscl.Query
		stream []*xmldoc.Document
	}{
		{"rss", rssQueries, rssStream},
		{"colliding", tlQueries, colliding},
	}
	plans := []struct {
		name    string
		plan    core.PlanKind
		explore int
	}{
		{"witness", core.PlanWitness, 0},
		{"rt", core.PlanRTDriven, 0},
		{"auto", core.PlanAuto, 64},
	}
	for _, wl := range workloads {
		for _, pl := range plans {
			b.Run(wl.name+"/"+pl.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p := core.NewProcessor(core.Config{
						ViewMaterialization: true, Plan: pl.plan,
						PlanExploreEvery: pl.explore, PlanExploreSeed: 1,
					})
					for _, q := range wl.qs {
						p.MustRegister(q)
					}
					for _, d := range wl.stream {
						p.Process("S", d)
					}
				}
				b.ReportMetric(float64(len(wl.stream)), "docs/op")
			})
		}
	}
}
