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
// replayed through the core processor and through the sequential oracle.
//
//   - The (query, leftDoc, rightDoc) sets must equal the sequential
//     oracle's, which evaluates each query alone and never reads the
//     vector-group trie the compiled programs walk (multiplicities differ by design: MMQJP emits one match per
//     RoutT row, Sequential one per witness pair) — restricted to document
//     pairs published at or after the query's subscription. For documents
//     that predate a churned-in subscription, visibility is
//     implementation-defined state sharing: the core processor shares
//     retained witness tuples by class name — a row written for one
//     pattern serves every query whose demand names it the same — while
//     the oracle shares whole-pattern witness stores, so the two
//     legitimately disagree about pre-subscription history (both ways). Within a
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

// replayTrace runs a trace through the processor and returns the per-event
// match records; each event's churn is applied before its document, where
// the engine's registration lock puts it.
func replayTrace(tr workload.Trace) [][]harnessRec {
	p := NewProcessor(Config{})
	var ids []QueryID
	for _, q := range tr.Initial {
		ids = append(ids, p.MustRegister(q))
	}
	out := make([][]harnessRec, len(tr.Events))
	for i, ev := range tr.Events {
		for _, u := range ev.Unsubscribe {
			p.MustUnregister(ids[u])
		}
		for _, q := range ev.Subscribe {
			ids = append(ids, p.MustRegister(q))
		}
		out[i] = harnessRecs(p.Process("S", ev.Doc))
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

// comboName names a run under test; workers is the number of goroutines the
// test runs Stage 1 on ahead of Consume (stage1Ahead), 0 when Stage 1 runs
// where the processor puts it. The rest of the name is fixed: it spelled
// out settings that are gone (one step order, no Stage-1 lookahead inside
// the processor, the views), and it stays so that subtest names and results
// compare with earlier runs.
func comboName(workers int) string {
	return fmt.Sprintf("plan=witness workers=%d depth=0 viewmat=true", workers)
}

// stage1Ahead runs Stage 1 of docs on workers goroutines and returns the
// results in document order. Stage 1 reads only the documents and the
// registered patterns, so it may run ahead of the ordered Consume, as
// concurrent publishers run it.
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

	ref := replayTrace(tr)
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
// through the core processor and the sequential oracle. Failures log the
// seed.
func TestRandomizedDifferentialHarness(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		runHarnessSeed(t, seed, false)
	}
	for seed := int64(101); seed <= 106; seed++ {
		runHarnessSeed(t, seed, true)
	}
}

// publishInTurn is the ingest shape of concurrent publishers: docs are spread
// over workers goroutines, each runs a document's Stage 1 on its own
// goroutine and then waits for the document's turn to Consume it, so Stage 1
// of later documents overlaps the Consume of earlier ones while the serial
// order stays the document order. It returns each document's matches.
func publishInTurn(p *Processor, stream string, docs []*xmldoc.Document, workers int) [][]Match {
	out := make([][]Match, len(docs))
	turn := make([]chan struct{}, len(docs)+1)
	for i := range turn {
		turn[i] = make(chan struct{})
	}
	close(turn[0])
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(docs); i += workers {
				r := p.RunStage1(stream, docs[i])
				<-turn[i]
				out[i] = p.ConsumeStage1(r)
				close(turn[i+1])
			}
		}()
	}
	wg.Wait()
	return out
}
