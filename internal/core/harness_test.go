package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/sequential"
	"repro/internal/workload"
	"repro/internal/xmldoc"
)

// The randomized differential harness: seeded random traces (queries,
// document streams, subscription churn — internal/workload/random.go) are
// replayed through every Plan × PipelineDepth × ViewMaterialization
// combination of the core processor and through the sequential oracle.
//
//   - All core combinations must produce byte-identical per-event match
//     streams — order included. This subsumes the plan-invisibility claim
//     (witness, forced RT-driven and PlanAuto emit the same bytes; the
//     RT-driven order never reads the vector-group trie the others walk)
//     and the pipeline determinism claim at once.
//   - The (query, leftDoc, rightDoc) sets must equal the sequential
//     oracle's (multiplicities differ by design: MMQJP emits one match per
//     RoutT row, Sequential one per witness pair) — restricted to document
//     pairs published at or after the query's subscription. For documents
//     that predate a churned-in subscription, visibility is
//     implementation-defined state sharing: the core processor shares
//     retained witness tuples at canonical-variable granularity while the
//     oracle shares whole-pattern witness stores, so the two legitimately
//     disagree about pre-subscription history (both ways). Within a
//     query's live window the semantics are exact and the sets must
//     coincide.
//
// Every trial is a pure function of its seed, and failures log the seed, so
// a red run reproduces with a one-line test.

// harnessRec is the byte-identity fingerprint of one core match.
type harnessRec struct {
	Query              QueryID
	LeftDoc, RightDoc  xmldoc.DocID
	LeftTS, RightTS    xmldoc.Timestamp
	LeftRoot, RghtRoot xmldoc.NodeID
	Sig                string
	Bindings           string
}

func harnessRecs(ms []Match) []harnessRec {
	out := make([]harnessRec, len(ms))
	for i, m := range ms {
		sig := ""
		if m.Template != nil {
			sig = m.Template.Sig
		}
		out[i] = harnessRec{
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

// replayTrace runs a trace through one processor configuration and returns
// the per-event match records. Events between churn points are fed through
// ProcessBatchFunc so PipelineDepth > 1 actually exercises the pipelined
// path; churn is applied between batches, exactly where the engine's
// barrier would put it.
func replayTrace(cfg Config, tr workload.Trace) [][]harnessRec {
	p := NewProcessor(cfg)
	var ids []QueryID
	for _, q := range tr.Initial {
		ids = append(ids, p.MustRegister(q))
	}
	out := make([][]harnessRec, len(tr.Events))
	i := 0
	for i < len(tr.Events) {
		ev := tr.Events[i]
		for _, u := range ev.Unsubscribe {
			p.MustUnregister(ids[u])
		}
		for _, q := range ev.Subscribe {
			ids = append(ids, p.MustRegister(q))
		}
		// Batch this event's document with the following churn-free
		// events' documents.
		j := i + 1
		for j < len(tr.Events) && len(tr.Events[j].Unsubscribe) == 0 && len(tr.Events[j].Subscribe) == 0 {
			j++
		}
		docs := make([]*xmldoc.Document, 0, j-i)
		for k := i; k < j; k++ {
			docs = append(docs, tr.Events[k].Doc)
		}
		base := i
		p.ProcessBatchFunc("S", docs, func(k int, ms *Matches) {
			out[base+k] = harnessRecs(ms.Slice())
		})
		i = j
	}
	return out
}

// replaySequential runs the same trace through the sequential oracle and
// returns per-event (query, leftDoc, rightDoc) sets.
func replaySequential(tr workload.Trace) []map[matchKey]bool {
	p := sequential.NewProcessor()
	var ids []sequential.QueryID
	for _, q := range tr.Initial {
		ids = append(ids, p.MustRegister(q))
	}
	out := make([]map[matchKey]bool, len(tr.Events))
	for i, ev := range tr.Events {
		for _, u := range ev.Unsubscribe {
			if err := p.Unregister(ids[u]); err != nil {
				panic(err)
			}
		}
		for _, q := range ev.Subscribe {
			ids = append(ids, p.MustRegister(q))
		}
		out[i] = seqMatchSet(p.Process("S", ev.Doc))
	}
	return out
}

func harnessKeySet(recs []harnessRec) map[matchKey]bool {
	out := map[matchKey]bool{}
	for _, r := range recs {
		out[matchKey{int64(r.Query), int64(r.LeftDoc), int64(r.RightDoc)}] = true
	}
	return out
}

// harnessCombos enumerates every Plan × PipelineDepth × ViewMaterialization
// combination under differential test (12 in all).
func harnessCombos() []Config {
	var out []Config
	for _, plan := range []PlanKind{PlanWitness, PlanRTDriven, PlanAuto} {
		for _, depth := range []int{0, 2} {
			for _, vm := range []bool{false, true} {
				out = append(out, Config{
					Plan:                plan,
					PipelineDepth:       depth,
					ViewMaterialization: vm,
				})
			}
		}
	}
	return out
}

// comboName names a configuration under test; workers is the number of
// goroutines the test runs Stage 1 on ahead of Consume (stage1Ahead), 0 when
// Stage 1 runs where the processor puts it.
func comboName(cfg Config, workers int) string {
	plan := map[PlanKind]string{PlanWitness: "witness", PlanRTDriven: "rt", PlanAuto: "auto"}[cfg.Plan]
	return fmt.Sprintf("plan=%s workers=%d depth=%d viewmat=%v", plan, workers, cfg.PipelineDepth, cfg.ViewMaterialization)
}

// stage1Ahead runs Stage 1 of docs on workers goroutines and returns the
// results in document order. Stage 1 reads only the documents and the
// registered patterns, so it may run ahead of the ordered Consume, as the
// ingest pipeline's Stage-1 workers run it.
func stage1Ahead(p *Processor, stream string, docs []*xmldoc.Document, workers int) []*Stage1Result {
	out := make([]*Stage1Result, len(docs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(docs); i += workers {
				out[i] = p.RunStage1(stream, docs[i])
			}
		}()
	}
	wg.Wait()
	return out
}

func runHarnessSeed(t *testing.T, seed int64, deep bool) {
	t.Helper()
	gen := workload.DefaultRandomFlat()
	if deep {
		gen = workload.DefaultRandomDeep()
	}
	rng := rand.New(rand.NewSource(seed))
	nQueries := 2 + rng.Intn(6)
	nDocs := 6 + rng.Intn(10)
	tr := gen.Trace(rng, nQueries, nDocs, true)

	combos := harnessCombos()
	ref := replayTrace(combos[0], tr)
	for _, cfg := range combos[1:] {
		got := replayTrace(cfg, tr)
		for ev := range ref {
			if !reflect.DeepEqual(ref[ev], got[ev]) {
				t.Fatalf("seed %d deep=%v: event %d diverges between %q and %q:\nref: %v\ngot: %v",
					seed, deep, ev, comboName(combos[0], 0), comboName(cfg, 0), ref[ev], got[ev])
			}
		}
	}

	seq := replaySequential(tr)
	subEvent := subscriptionEvents(tr)
	for ev := range ref {
		got := filterLiveWindow(harnessKeySet(ref[ev]), subEvent)
		want := filterLiveWindow(seq[ev], subEvent)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d deep=%v: event %d diverges from the sequential oracle:\nmmqjp: %v\nseq:   %v",
				seed, deep, ev, keys(got), keys(want))
		}
	}
}

// subscriptionEvents maps each subscription index to the event index it was
// issued at (-1 for the initial set, which precedes every document).
func subscriptionEvents(tr workload.Trace) map[int64]int {
	out := map[int64]int{}
	for i := range tr.Initial {
		out[int64(i)] = -1
	}
	next := len(tr.Initial)
	for ev, e := range tr.Events {
		for range e.Subscribe {
			out[int64(next)] = ev
			next++
		}
	}
	return out
}

// filterLiveWindow keeps the matches whose both documents were published at
// or after the query's subscription event — the window where core and the
// sequential oracle have identical, fully-specified semantics. Document ids
// are event index + 1 by construction of workload.Trace.
func filterLiveWindow(s map[matchKey]bool, subEvent map[int64]int) map[matchKey]bool {
	out := map[matchKey]bool{}
	for k := range s {
		sub := subEvent[k.q]
		if int(k.ldoc-1) >= sub && int(k.rdoc-1) >= sub {
			out[k] = true
		}
	}
	return out
}

// TestRandomizedDifferentialHarness replays seeded random churn traces
// through every plan/pipeline/view-materialization combination and
// the sequential oracle. Failures log the seed.
func TestRandomizedDifferentialHarness(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		runHarnessSeed(t, seed, false)
	}
	for seed := int64(101); seed <= 106; seed++ {
		runHarnessSeed(t, seed, true)
	}
}
