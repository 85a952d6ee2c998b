package bench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
	"repro/internal/xmldoc"
	"repro/internal/xscl"
)

// The "scale" experiment: the measured workers sweep on the PaperScale
// workload (internal/workload/paperscale.go — 50+ live canonical templates,
// nominally 100k query instances). Throughput is the end-to-end wall clock
// of processing the stream on this host, per template-shard worker count.
// With more workers than cores the extra workers cannot run simultaneously,
// so the multi-worker rows are scheduler noise on a small gate host and are
// reported "(info)"; the serial run is the one benchdiff gates.

// scaleThroughput returns end-to-end documents/second of processing the
// stream at the given worker count, plus the finished processor.
func scaleThroughput(qs []*xscl.Query, stream []*xmldoc.Document, workers int) (float64, *core.Processor) {
	p := core.NewProcessor(core.Config{ViewMaterialization: true, Workers: workers})
	for _, q := range qs {
		p.MustRegister(q)
	}
	start := time.Now()
	for _, d := range stream {
		p.Process("S", d)
	}
	return perSecond(len(stream), time.Since(start)), p
}

// ScaleSweep — the paper-scale workers sweep: measured end-to-end
// throughput per worker count.
func ScaleSweep(o Options) Result {
	o = o.Defaults()
	c := workload.DefaultPaperScale()
	rng := rand.New(rand.NewSource(o.Seed))
	qs := c.Queries(rng, o.ScaleQueries)
	srng := rand.New(rand.NewSource(o.Seed + 7))
	stream := c.Stream(srng, o.ScaleItems)

	res := Result{ID: "scale",
		Title: fmt.Sprintf("paper-scale workers sweep (%d of %d queries, %d of %d items; measured on this host's cores)",
			o.ScaleQueries, c.Instances, len(stream), c.Items),
		// benchdiff gates per column: the serial column carries only the
		// workers=1 measurement ("-" elsewhere, which benchdiff skips).
		Columns: []string{"workers", "measured (docs/s) (info)", "serial (docs/s)", "templates"}}
	for _, nw := range o.WorkerCounts {
		docsPerS, p := scaleThroughput(qs, stream, nw)
		measured, serial := f(docsPerS), "-"
		if nw == 1 {
			serial = measured
		}
		res.Rows = append(res.Rows, []string{fmt.Sprint(nw), measured, serial, fmt.Sprint(p.NumTemplates())})
		res.Stats = engineStats(p)
	}
	return res
}
