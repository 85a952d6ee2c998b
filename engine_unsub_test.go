package mmqjp

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/workload"
)

// TestEngineUnsubscribe covers the basic lifecycle on every processor kind:
// a subscription fires, is removed, and fires no more; ids stay stable and
// errors are reported.
func TestEngineUnsubscribe(t *testing.T) {
	for _, kind := range allKinds() {
		eng := New(Options{Processor: kind})
		qid := eng.MustSubscribe(paperQ1)

		eng.AppendPublishXML(nil, "S", paperD1, 1, 100)
		ms, _ := eng.AppendPublishXML(nil, "S", paperD2, 2, 200)
		if len(ms) != 1 {
			t.Fatalf("kind=%d: %d matches before unsubscribe, want 1", kind, len(ms))
		}
		if err := eng.Unsubscribe(qid); err != nil {
			t.Fatalf("kind=%d: %v", kind, err)
		}
		if n := eng.NumQueries(); n != 0 {
			t.Errorf("kind=%d: NumQueries = %d after unsubscribe", kind, n)
		}
		if src := eng.Query(qid); src != "" {
			t.Errorf("kind=%d: Query returns %q after unsubscribe", kind, src)
		}
		eng.AppendPublishXML(nil, "S", paperD1, 3, 300)
		ms, _ = eng.AppendPublishXML(nil, "S", paperD2, 4, 400)
		if len(ms) != 0 {
			t.Errorf("kind=%d: unsubscribed query fired %d times", kind, len(ms))
		}
		if err := eng.Unsubscribe(qid); err == nil {
			t.Errorf("kind=%d: double unsubscribe accepted", kind)
		}
		if err := eng.Unsubscribe(QueryID(99)); err == nil {
			t.Errorf("kind=%d: unknown id accepted", kind)
		}
	}
}

// TestEngineUnsubscribeKeepsOthers removes one of two subscriptions; the
// survivor keeps firing under its original id, and templates shared with the
// removed query survive.
func TestEngineUnsubscribeKeepsOthers(t *testing.T) {
	eng := New(Options{})
	keep := eng.MustSubscribe(paperQ1)
	drop := eng.MustSubscribe(
		"S//book->x1[.//category->x2][.//title->x3] FOLLOWED BY{x2=x5 AND x3=x6, 1000} S//blog->x4[.//category->x5][.//title->x6]")
	if eng.NumTemplates() != 1 {
		t.Fatalf("test premise: queries share a template, have %d", eng.NumTemplates())
	}
	if err := eng.Unsubscribe(drop); err != nil {
		t.Fatal(err)
	}
	if eng.NumTemplates() != 1 {
		t.Errorf("shared template reclaimed with a survivor: %d", eng.NumTemplates())
	}
	eng.AppendPublishXML(nil, "S", paperD1, 1, 100)
	ms, _ := eng.AppendPublishXML(nil, "S", paperD2, 2, 200)
	if len(ms) != 1 || ms[0].Query != keep {
		t.Errorf("survivor matches = %v, want one for query %d", ms, keep)
	}
}

// TestEngineUnsubscribeStopsCascade removes the upstream PUBLISH query of a
// composition chain: the downstream subscription must stop receiving derived
// documents (and vice versa, removing the downstream query silences it while
// the upstream keeps publishing).
func TestEngineUnsubscribeStopsCascade(t *testing.T) {
	setup := func() (*Engine, QueryID, QueryID) {
		eng := New(Options{EnableComposition: true})
		q1 := eng.MustSubscribe(
			"S//alert->a[./host->h][./sev->s] FOLLOWED BY{h=h2 AND s=s2, 100} S//confirm->c[./host->h2][./sev->s2] PUBLISH incidents")
		q2 := eng.MustSubscribe(
			"incidents//alert->a[./host->h] JOIN{h=h2, 1000} P//page->p[./host->h2]")
		return eng, q1, q2
	}
	feed := func(t *testing.T, eng *Engine, id int64) map[QueryID]int {
		t.Helper()
		eng.AppendPublishXML(nil, "P", "<page><host>web1</host></page>", id, id*10)
		eng.AppendPublishXML(nil, "S", "<alert><host>web1</host><sev>hi</sev></alert>", id+1, id*10+1)
		ms, err := eng.AppendPublishXML(nil, "S", "<confirm><host>web1</host><sev>hi</sev></confirm>", id+2, id*10+2)
		if err != nil {
			t.Fatal(err)
		}
		fired := map[QueryID]int{}
		for _, m := range ms {
			fired[m.Query]++
		}
		return fired
	}

	eng, q1, q2 := setup()
	if fired := feed(t, eng, 1); fired[q1] != 1 || fired[q2] == 0 {
		t.Fatalf("chain does not resolve before unsubscribe: %v", fired)
	}

	// Removing the upstream PUBLISH query stops the cascade entirely.
	eng, q1, q2 = setup()
	if err := eng.Unsubscribe(q1); err != nil {
		t.Fatal(err)
	}
	if fired := feed(t, eng, 1); fired[q1] != 0 || fired[q2] != 0 {
		t.Errorf("cascade survived upstream unsubscribe: %v", fired)
	}

	// Removing the downstream query silences it but not the publisher.
	eng, q1, q2 = setup()
	if err := eng.Unsubscribe(q2); err != nil {
		t.Fatal(err)
	}
	if fired := feed(t, eng, 1); fired[q1] != 1 || fired[q2] != 0 {
		t.Errorf("downstream unsubscribe mishandled: %v", fired)
	}
}

// renderEngineMatches serializes engine matches byte-for-byte, order
// included.
func renderEngineMatches(ms []Match) string {
	var sb strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&sb, "q%d l%d@%d r%d@%d\n", m.Query, m.LeftDoc, m.LeftTS, m.RightDoc, m.RightTS)
	}
	return sb.String()
}

// TestEngineChurnDeterminism is the lifecycle determinism requirement at the
// facade: publish → GC → publish interleaved with Subscribe/Unsubscribe
// churn must leave the engine producing byte-identical per-document output
// to a fresh engine holding only the surviving subscriptions (run under -race
// in CI).
func TestEngineChurnDeterminism(t *testing.T) {
	gen := workload.DefaultRSS()
	qrng := rand.New(rand.NewSource(3))
	// Finite windows (the generator emits INF) so window GC runs during
	// the stream; timestamps advance one per item.
	var sources []string
	for _, q := range gen.Queries(qrng, 80) {
		sources = append(sources, strings.Replace(q.Source, "INF", "60", 1))
	}
	surviving, churned := sources[:40], sources[40:]
	srng := rand.New(rand.NewSource(11))
	stream := gen.Stream(srng, 150)
	const churnAt = 75

	// Reference: a fresh sequential-config engine with only the surviving
	// subscriptions, fed the whole stream.
	fresh := New(Options{})
	for _, src := range surviving {
		fresh.MustSubscribe(src)
	}
	var ref []string
	for _, d := range stream {
		ref = append(ref, renderEngineMatches(publishOne(fresh, "S", d)))
	}

	eng := New(Options{})
	var churnIDs []QueryID
	for _, src := range surviving {
		eng.MustSubscribe(src)
	}
	for _, src := range churned {
		churnIDs = append(churnIDs, eng.MustSubscribe(src))
	}
	publishBatch(eng, "S", stream[:churnAt])
	for _, id := range churnIDs {
		if err := eng.Unsubscribe(id); err != nil {
			t.Fatal(err)
		}
	}
	if n := eng.NumQueries(); n != len(surviving) {
		t.Fatalf("NumQueries = %d, want %d", n, len(surviving))
	}
	for di, ms := range publishBatch(eng, "S", stream[churnAt:]) {
		if got := renderEngineMatches(ms); got != ref[churnAt+di] {
			t.Fatalf("churned engine diverges from fresh on doc %d:\nchurned:\n%sfresh:\n%s",
				churnAt+di+1, got, ref[churnAt+di])
		}
	}
}

// TestEngineUnsubscribeAllThenResubscribe drains every subscription and
// checks the engine behaves like a brand-new one afterwards (modulo id
// allocation, which never reuses ids).
func TestEngineUnsubscribeAllThenResubscribe(t *testing.T) {
	// Composition implies RetainDocuments, so the drain must also release
	// the engine-side document store.
	eng := New(Options{EnableComposition: true})
	var ids []QueryID
	for i := 0; i < 3; i++ {
		ids = append(ids, eng.MustSubscribe(paperQ1))
	}
	eng.AppendPublishXML(nil, "S", paperD1, 1, 100)
	eng.AppendPublishXML(nil, "S", paperD2, 2, 200)
	if len(eng.docs) == 0 {
		t.Fatal("test premise: documents retained while subscribed")
	}
	for _, id := range ids {
		if err := eng.Unsubscribe(id); err != nil {
			t.Fatal(err)
		}
	}
	if eng.NumQueries() != 0 || eng.NumTemplates() != 0 {
		t.Fatalf("engine not drained: %d queries, %d templates", eng.NumQueries(), eng.NumTemplates())
	}
	if len(eng.docs) != 0 {
		t.Fatalf("drained engine retains %d documents", len(eng.docs))
	}
	// The old join state must be gone: a resubscribed query starts from
	// scratch and cannot match against pre-unsubscribe documents.
	qid := eng.MustSubscribe(paperQ1)
	ms, _ := eng.AppendPublishXML(nil, "S", paperD2, 3, 250)
	if len(ms) != 0 {
		t.Errorf("resubscribed query matched against reclaimed state: %v", ms)
	}
	eng.AppendPublishXML(nil, "S", paperD1, 4, 300)
	ms, _ = eng.AppendPublishXML(nil, "S", paperD2, 5, 350)
	if len(ms) != 1 || ms[0].Query != qid {
		t.Errorf("resubscribed query does not fire on fresh documents: %v", ms)
	}
}
