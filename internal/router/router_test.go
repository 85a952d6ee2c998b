package router_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/router"
	"repro/internal/workload"
	"repro/internal/xmldoc"
	"repro/internal/xscl"
)

// The routed differential harness: the same seeded random churn traces the
// core harness replays (internal/core/harness_test.go) are driven through a
// Router at Partitions ∈ {1, 2, 4} and through a single core.Processor with
// the identical per-partition configuration. The router's merged per-event
// output must be byte-identical — order included — to the single engine's,
// across plan / workers / pipeline-depth / view-materialization
// combinations. A second test snapshots the routed state mid-trace
// (ExportStates at a churn boundary), rebuilds a fresh router, re-registers
// the live queries in global-id order, restores, and requires the replayed
// suffix to stay byte-identical.

// rec is the byte-identity fingerprint of one match. Template identity is
// recorded by canonical signature, which — unlike TemplateID — is portable
// across partitions.
type rec struct {
	Query              core.QueryID
	LeftDoc, RightDoc  xmldoc.DocID
	LeftTS, RightTS    xmldoc.Timestamp
	LeftRoot, RghtRoot xmldoc.NodeID
	Sig                string
	Bindings           string
}

func recs(ms []core.Match) []rec {
	out := make([]rec, len(ms))
	for i, m := range ms {
		sig := ""
		if m.Template != nil {
			sig = m.Template.Sig
		}
		out[i] = rec{
			Query:   m.Query,
			LeftDoc: m.LeftDoc, RightDoc: m.RightDoc,
			LeftTS: m.LeftTS, RightTS: m.RightTS,
			LeftRoot: m.LeftRoot, RghtRoot: m.RightRoot,
			Sig:      sig,
			Bindings: fmt.Sprint(m.Bindings),
		}
	}
	return out
}

// backend is the common replay surface of a single processor and a router.
type backend interface {
	Register(q *xscl.Query) (core.QueryID, error)
	Unregister(id core.QueryID) error
	ProcessBatchFunc(stream string, docs []*xmldoc.Document, deliver func(i int, matches *core.Matches))
}

// replayTrace drives a trace through b exactly as the core harness does:
// churn-free document spans go through ProcessBatchFunc (so pipeline depth
// is exercised), churn is applied between batches. ids carries the
// already-registered subscriptions (indexed by subscription number) when
// resuming a trace suffix on a restored backend; nil for a fresh replay.
func replayTrace(b backend, tr workload.Trace, ids []core.QueryID) [][]rec {
	for _, q := range tr.Initial {
		id, err := b.Register(q)
		if err != nil {
			panic(err)
		}
		ids = append(ids, id)
	}
	out := make([][]rec, len(tr.Events))
	i := 0
	for i < len(tr.Events) {
		ev := tr.Events[i]
		for _, u := range ev.Unsubscribe {
			if err := b.Unregister(ids[u]); err != nil {
				panic(err)
			}
		}
		for _, q := range ev.Subscribe {
			id, err := b.Register(q)
			if err != nil {
				panic(err)
			}
			ids = append(ids, id)
		}
		j := i + 1
		for j < len(tr.Events) && len(tr.Events[j].Unsubscribe) == 0 && len(tr.Events[j].Subscribe) == 0 {
			j++
		}
		docs := make([]*xmldoc.Document, 0, j-i)
		for k := i; k < j; k++ {
			docs = append(docs, tr.Events[k].Doc)
		}
		base := i
		b.ProcessBatchFunc("S", docs, func(k int, ms *core.Matches) {
			out[base+k] = recs(ms.Slice())
		})
		i = j
	}
	return out
}

// combos is the configuration grid the routed oracle runs under: a spread
// of the core harness's Plan × Workers × PipelineDepth ×
// ViewMaterialization axes.
func combos(seed int64) []core.Config {
	return []core.Config{
		{Plan: core.PlanWitness},
		{Plan: core.PlanWitness, Workers: 4, PipelineDepth: 2, ViewMaterialization: true},
		{Plan: core.PlanRTDriven, Workers: 4, ViewMaterialization: true},
		{Plan: core.PlanAuto, PlanExploreEvery: 2, PlanExploreSeed: seed, PipelineDepth: 2, ViewMaterialization: true},
		{Plan: core.PlanAuto, PlanExploreEvery: 2, PlanExploreSeed: seed, Workers: 4},
	}
}

func comboName(cfg core.Config) string {
	plan := map[core.PlanKind]string{core.PlanWitness: "witness", core.PlanRTDriven: "rt", core.PlanAuto: "auto"}[cfg.Plan]
	return fmt.Sprintf("plan=%s workers=%d depth=%d viewmat=%v",
		plan, cfg.Workers, cfg.PipelineDepth, cfg.ViewMaterialization)
}

func traceForSeed(seed int64, deep bool) workload.Trace {
	gen := workload.DefaultRandomFlat()
	if deep {
		gen = workload.DefaultRandomDeep()
	}
	rng := rand.New(rand.NewSource(seed))
	nQueries := 2 + rng.Intn(6)
	nDocs := 6 + rng.Intn(10)
	return gen.Trace(rng, nQueries, nDocs, true)
}

// TestRoutedEquivalence is the engine-of-engines oracle: N routed engines ≡
// 1 engine, byte-identical per event, on identical churn traces.
func TestRoutedEquivalence(t *testing.T) {
	seeds := []struct {
		seed int64
		deep bool
	}{{1, false}, {2, false}, {3, false}, {4, false}, {5, false}, {101, true}, {102, true}}
	totalMatches := 0
	for _, s := range seeds {
		tr := traceForSeed(s.seed, s.deep)
		for _, cfg := range combos(s.seed) {
			ref := replayTrace(core.NewProcessor(cfg), tr, nil)
			for _, ms := range ref {
				totalMatches += len(ms)
			}
			for _, parts := range []int{1, 2, 4} {
				r := router.New(router.Config{Partitions: parts, Core: cfg})
				got := replayTrace(r, tr, nil)
				for ev := range ref {
					if !reflect.DeepEqual(ref[ev], got[ev]) {
						t.Fatalf("seed %d deep=%v %s partitions=%d: event %d diverges from the single engine:\nsingle: %v\nrouted: %v",
							s.seed, s.deep, comboName(cfg), parts, ev, ref[ev], got[ev])
					}
				}
			}
		}
	}
	if totalMatches == 0 {
		t.Fatal("no seed produced any match; the routed oracle would be vacuous")
	}
}

// liveQueries replays a trace's churn up to (but excluding) event cut and
// returns, per global query id, the query live at that point (nil for
// tombstones).
func liveQueries(tr workload.Trace, cut int) []*xscl.Query {
	var qs []*xscl.Query
	qs = append(qs, tr.Initial...)
	for i := 0; i < cut; i++ {
		for _, u := range tr.Events[i].Unsubscribe {
			qs[u] = nil
		}
		qs = append(qs, tr.Events[i].Subscribe...)
	}
	return qs
}

// TestRoutedSnapshotRestoreMidTrace cuts each trace at a churn boundary,
// exports every partition's state at that consistent prefix, rebuilds a
// fresh router (re-registering live queries in global-id order, burning
// tombstoned ids), restores, and replays the suffix — which must be
// byte-identical to the uninterrupted routed run and hence to the single
// engine.
func TestRoutedSnapshotRestoreMidTrace(t *testing.T) {
	for _, s := range []struct {
		seed int64
		deep bool
	}{{1, false}, {3, false}, {5, false}, {101, true}} {
		tr := traceForSeed(s.seed, s.deep)
		cfg := core.Config{Plan: core.PlanAuto, PlanExploreEvery: 2, PlanExploreSeed: s.seed, Workers: 2, PipelineDepth: 2, ViewMaterialization: true}
		// Cut at the first churn boundary past the midpoint (falling back
		// to the exact midpoint), so the snapshot happens where the
		// engine's barrier would put it.
		cut := len(tr.Events) / 2
		for i := cut; i < len(tr.Events); i++ {
			if len(tr.Events[i].Unsubscribe) > 0 || len(tr.Events[i].Subscribe) > 0 {
				cut = i
				break
			}
		}
		prefix := workload.Trace{Initial: tr.Initial, Events: tr.Events[:cut]}
		suffix := workload.Trace{Events: tr.Events[cut:]}

		for _, parts := range []int{2, 4} {
			full := router.New(router.Config{Partitions: parts, Core: cfg})
			want := replayTrace(full, tr, nil)

			r1 := router.New(router.Config{Partitions: parts, Core: cfg})
			replayTrace(r1, prefix, nil)
			states := r1.ExportStates()

			r2 := router.New(router.Config{Partitions: parts, Core: cfg})
			var ids []core.QueryID
			for gid, q := range liveQueries(tr, cut) {
				if q == nil {
					r2.SkipQueryID()
					ids = append(ids, core.QueryID(gid))
					continue
				}
				id := r2.MustRegister(q)
				if id != core.QueryID(gid) {
					t.Fatalf("seed %d partitions=%d: restore registered query %d on id %d", s.seed, parts, gid, id)
				}
				ids = append(ids, id)
			}
			if err := r2.RestoreStates(states); err != nil {
				t.Fatalf("seed %d partitions=%d: restore: %v", s.seed, parts, err)
			}
			got := replayTrace(r2, suffix, ids)
			for ev := range got {
				if !reflect.DeepEqual(want[cut+ev], got[ev]) {
					t.Fatalf("seed %d deep=%v partitions=%d: post-restore event %d diverges:\nuninterrupted: %v\nrestored:      %v",
						s.seed, s.deep, parts, cut+ev, want[cut+ev], got[ev])
				}
			}
		}
	}
}

// TestRouterStatsAggregation checks the per-partition observability surface:
// aggregate Stats sums the partitions (with Documents counted once), and the
// partition counts cover every live query exactly once.
func TestRouterStatsAggregation(t *testing.T) {
	// Scan the harness seeds for a trace that actually produces matches
	// (deterministic: the first qualifying seed always wins).
	var tr workload.Trace
	for seed := int64(1); seed <= 20; seed++ {
		cand := traceForSeed(seed, false)
		probe := core.NewProcessor(core.Config{})
		matches := 0
		for _, ms := range replayTrace(probe, cand, nil) {
			matches += len(ms)
		}
		if matches > 0 {
			tr = cand
			break
		}
	}
	r := router.New(router.Config{Partitions: 4, Core: core.Config{ViewMaterialization: true}})
	replayTrace(r, tr, nil)
	agg := r.Stats()
	if want := int64(len(tr.Events)); agg.Documents != want {
		t.Fatalf("aggregate Documents = %d, want %d (one per published document)", agg.Documents, want)
	}
	if agg.Matches == 0 {
		t.Fatal("trace produced no matches; the routed oracle would be vacuous")
	}
	var matches int64
	queries, templates := r.PartitionCounts()
	for i, ps := range r.PartitionStats() {
		matches += ps.Matches
		if queries[i] < 0 || templates[i] < 0 {
			t.Fatalf("negative partition counts: %v %v", queries, templates)
		}
	}
	if matches != agg.Matches {
		t.Fatalf("partition Matches sum to %d, aggregate says %d", matches, agg.Matches)
	}
	total := 0
	for _, q := range queries {
		total += q
	}
	if total != r.NumQueries() {
		t.Fatalf("partition queries sum to %d, NumQueries says %d", total, r.NumQueries())
	}
}

// TestMatchesOwnedByCaller pins who owns a publish's result: the []Match a
// document returns, and the Bindings inside it, are the caller's for good.
// Stage 2 emits into buffers the shards keep and reuse across documents
// (core's shard.ex), so every entry point keeps each document's slice
// untouched until the stream ends — through documents with more, fewer and no
// matches, window collections included — and only then fingerprints it,
// against a second backend of the same configuration whose output was
// fingerprinted document by document. A result aliasing a reused buffer would
// have been overwritten by then.
func TestMatchesOwnedByCaller(t *testing.T) {
	gen := workload.DefaultRSS()
	queries := gen.Queries(rand.New(rand.NewSource(3)), 60)
	for _, q := range queries {
		q.Window = 40
	}
	// A single-block match travels the same result slice; every third
	// document has one.
	queries = append(queries, xscl.MustParse("S//item->x[./flag->f]"))
	rng := rand.New(rand.NewSource(4))
	docs := make([]*xmldoc.Document, 300)
	for i := range docs {
		b := xmldoc.NewBuilder(xmldoc.DocID(i+1), xmldoc.Timestamp(i+1), "item")
		for _, leaf := range gen.LeafNames() {
			b.Element(0, leaf, fmt.Sprintf("%s-%d", leaf, rng.Intn(12)))
		}
		if i%3 == 0 {
			b.Element(0, "flag", "set")
		}
		docs[i] = b.Build()
	}

	type backend interface {
		core.Backend
		Register(*xscl.Query) (core.QueryID, error)
	}
	for _, workers := range []int{1, 4} {
		cfg := core.Config{ViewMaterialization: true, Workers: workers, PipelineDepth: 2}
		newBackend := func(routed bool) backend {
			var b backend = core.NewProcessor(cfg)
			if routed {
				b = router.New(router.Config{Partitions: 2, Core: cfg})
			}
			for _, q := range queries {
				if _, err := b.Register(q); err != nil {
					t.Fatal(err)
				}
			}
			return b
		}
		for _, mode := range []struct {
			name   string
			routed bool
			// run publishes docs on b and returns every document's
			// result as the entry point handed it out.
			run func(b backend) [][]core.Match
		}{
			{"Process", false, func(b backend) [][]core.Match {
				out := make([][]core.Match, len(docs))
				for i, d := range docs {
					out[i] = b.(*core.Processor).Process("S", d)
				}
				return out
			}},
			{"ProcessBatch", false, func(b backend) [][]core.Match {
				return b.(*core.Processor).ProcessBatch("S", docs)
			}},
			{"Ingest", false, func(b backend) [][]core.Match {
				out := make([][]core.Match, len(docs))
				in := core.NewIngest(b, core.IngestConfig{Depth: 2})
				for i, d := range docs {
					i := i
					if err := in.Submit("S", d, func(ms *core.Matches) { out[i] = ms.Slice() }); err != nil {
						t.Fatal(err)
					}
				}
				in.Close()
				return out
			}},
			{"Router", true, func(b backend) [][]core.Match {
				out := make([][]core.Match, len(docs))
				for i, d := range docs {
					out[i] = b.(*router.Router).Process("S", d)
				}
				return out
			}},
		} {
			t.Run(fmt.Sprintf("%s/workers=%d", mode.name, workers), func(t *testing.T) {
				kept := mode.run(newBackend(mode.routed))

				ref := newBackend(mode.routed)
				total, none := 0, 0
				for i, d := range docs {
					want := recs(ref.Consume(ref.RunStage1("S", d)).Slice())
					if got := recs(kept[i]); !reflect.DeepEqual(got, want) {
						t.Fatalf("document %d: the result kept since its publish differs from a fresh engine's\nkept:  %v\nfresh: %v", i, got, want)
					}
					total += len(want)
					if len(want) == 0 {
						none++
					}
				}
				if total < 10*len(docs) || none == 0 {
					t.Fatalf("%d matches over %d documents, %d without any: the stream does not vary the buffers' fill", total, len(docs), none)
				}
			})
		}
	}
}
