package mmqjp

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

const (
	paperD1 = `<book><publisher>Wrox</publisher><author>Andrew Watt</author><author>Danny Ayers</author><title>Beginning RSS and Atom Programming</title><category>Scripting &amp; Programming</category><category>Web Site Development</category><isbn>0764579169</isbn></book>`
	paperD2 = `<blog><url>http://dannyayers.com/topics/books/rss-book</url><author>Danny Ayers</author><title>Beginning RSS and Atom Programming</title><category>Book Announcement</category><category>Scripting &amp; Programming</category><body>Just heard ...</body></blog>`
	paperQ1 = "S//book->x1[.//author->x2][.//title->x3] FOLLOWED BY{x2=x5 AND x3=x6, 1000} S//blog->x4[.//author->x5][.//title->x6]"
)

func allKinds() []ProcessorKind {
	return []ProcessorKind{ProcessorMMQJP, ProcessorSequential}
}

// publishOne publishes one parsed document through PublishDoc and returns
// its matches.
func publishOne(e *Engine, stream string, d *Document) []Match {
	res, err := e.PublishDoc(stream, d)
	if err != nil {
		panic(err) // a parsed document has nothing left to fail on
	}
	return res.Matches()
}

// publishBatch publishes docs as one PublishDoc batch and returns each
// document's matches.
func publishBatch(e *Engine, stream string, docs []*Document) [][]Match {
	res, err := e.PublishDoc(stream, nil, WithDocs(docs...))
	if err != nil {
		panic(err)
	}
	return res.Batches
}

// TestZeroOptionsRunViewMaterialization pins the evaluator New(Options{})
// builds — the one mmqjp-server runs — to the join processor's only one,
// template joins over the document's value-join pairs. On the colliding
// two-level stream, where every stored document joins the current one on
// every leaf, Options{}, ProcessorViewMat and core.NewProcessor(core.Config{})
// must give the same matches and exactly the same Stage-2 probe count:
// 99 591 since every value join reads one pair relation, its later ones by
// state slot and key shape (137 487 while view joins read RL and RR, 137 091
// while side-root templates ran whole, 206 739 before the join index entered
// a template only where its other view joins have pairs too). Every publish
// expires what left the window, so no probe reaches an expired document, and
// the document's pairs are built once for every template.
func TestZeroOptionsRunViewMaterialization(t *testing.T) {
	tl := workload.TwoLevel{N: 4, Theta: 0.8, Window: 12}
	queries := tl.Queries(rand.New(rand.NewSource(1)), 300)
	stream := make([]*Document, 100)
	for i := range stream {
		b := NewDocumentBuilder(int64(i+1), int64(i+1), "r")
		for l := 1; l <= tl.N; l++ {
			b.Element(0, fmt.Sprintf("l%d", l), fmt.Sprintf("value-%d", l))
		}
		stream[i] = b.Build()
	}
	p := core.NewProcessor(core.Config{})
	for _, q := range queries {
		p.MustRegister(q)
	}
	var want strings.Builder
	for _, d := range stream {
		for _, m := range p.Process("S", d) {
			fmt.Fprintf(&want, "q%d l%d@%d r%d@%d\n", m.Query, m.LeftDoc, m.LeftTS, m.RightDoc, m.RightTS)
		}
	}
	const wantProbes = 99591
	if got := p.Stats().CQProbes; got != wantProbes {
		t.Fatalf("core processor: %d probes, want %d", got, wantProbes)
	}
	t.Logf("core processor: %d probes", wantProbes)
	if strings.Count(want.String(), "\n") == 0 {
		t.Fatal("no matches: the comparison is vacuous")
	}
	for _, opts := range []Options{{}, {Processor: ProcessorViewMat}} {
		eng := New(opts)
		for _, q := range queries {
			eng.MustSubscribe(q.Source)
		}
		var got strings.Builder
		for _, ms := range publishBatch(eng, "S", stream) {
			got.WriteString(renderEngineMatches(ms))
		}
		if got.String() != want.String() {
			t.Errorf("%+v: matches differ from the core processor's", opts)
		}
		if probes := eng.Stats().CQProbes; probes != wantProbes {
			t.Errorf("%+v: %d probes, want %d", opts, probes, wantProbes)
		}
	}
}

func TestEngineEndToEnd(t *testing.T) {
	for _, kind := range allKinds() {
		eng := New(Options{Processor: kind})
		qid := eng.MustSubscribe(paperQ1)

		ms, err := publishXML(eng, "S", paperD1, 1, 100)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != 0 {
			t.Errorf("kind=%d: book alone fired", kind)
		}
		ms, err = publishXML(eng, "S", paperD2, 2, 200)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != 1 {
			t.Fatalf("kind=%d: matches = %d, want 1", kind, len(ms))
		}
		m := ms[0]
		if m.Query != qid || m.LeftDoc != 1 || m.RightDoc != 2 || m.LeftTS != 100 || m.RightTS != 200 {
			t.Errorf("kind=%d: match = %+v", kind, m)
		}
	}
}

func TestEngineOutputXML(t *testing.T) {
	eng := New(Options{RetainDocuments: true})
	eng.MustSubscribe(paperQ1)
	publishXML(eng, "S", paperD1, 1, 100)
	ms, _ := publishXML(eng, "S", paperD2, 2, 200)
	if len(ms) != 1 {
		t.Fatal("no match")
	}
	out, ok := eng.OutputXML(ms[0])
	if !ok {
		t.Fatal("output not available")
	}
	if !strings.HasPrefix(out, "<result><book>") || !strings.Contains(out, "<blog>") {
		t.Errorf("output = %s", out)
	}
	if !strings.Contains(out, "Danny Ayers") {
		t.Errorf("output missing author: %s", out)
	}
}

func TestEngineOutputRequiresRetention(t *testing.T) {
	eng := New(Options{})
	eng.MustSubscribe(paperQ1)
	publishXML(eng, "S", paperD1, 1, 100)
	ms, _ := publishXML(eng, "S", paperD2, 2, 200)
	if _, ok := eng.OutputXML(ms[0]); ok {
		t.Error("output available without RetainDocuments")
	}
}

func TestEngineSubscribeError(t *testing.T) {
	eng := New(Options{})
	if _, err := eng.Subscribe("not a query at all ["); err == nil {
		t.Error("bad query accepted")
	}
	if _, err := publishXML(eng, "S", "<unclosed>", 1, 1); err == nil {
		t.Error("bad document accepted")
	}
}

func TestEnginePublishName(t *testing.T) {
	eng := New(Options{})
	eng.MustSubscribe("S//a->x JOIN{x=y, 10} S//b->y PUBLISH hits")
	b1 := NewDocumentBuilder(1, 5, "a")
	b1.SetText(0, "v")
	publishOne(eng, "S", b1.Build())
	b2 := NewDocumentBuilder(2, 6, "b")
	b2.SetText(0, "v")
	ms := publishOne(eng, "S", b2.Build())
	if len(ms) != 1 || ms[0].Publish != "hits" {
		t.Errorf("matches = %+v", ms)
	}
}

func TestEngineStatsString(t *testing.T) {
	for _, kind := range allKinds() {
		eng := New(Options{Processor: kind})
		eng.MustSubscribe(paperQ1)
		publishXML(eng, "S", paperD1, 1, 100)
		publishXML(eng, "S", paperD2, 2, 200)
		s := eng.Stats()
		// The STATS rendering: every statistic as name=value, durations as
		// Go durations under their name without _ns.
		line := s.String()
		for _, want := range []string{"queries=1 ", "documents=2 ", fmt.Sprintf(" cq=%v ", s.CQ)} {
			if !strings.Contains(line, want) {
				t.Errorf("kind=%d: String() = %q, want it to contain %q", kind, line, want)
			}
		}
		if n := strings.Count(line, "="); n != len(engineStatsKeys) {
			t.Errorf("kind=%d: String() has %d name=value pairs, want %d", kind, n, len(engineStatsKeys))
		}
		if s.Queries != 1 {
			t.Errorf("kind=%d: queries = %d, want 1", kind, s.Queries)
		}
		if s.Documents != 2 {
			t.Errorf("kind=%d: documents = %d, want 2", kind, s.Documents)
		}
		if s.Matches < 1 {
			t.Errorf("kind=%d: matches = %d, want >= 1", kind, s.Matches)
		}
		if s.Sequential != (kind == ProcessorSequential) {
			t.Errorf("kind=%d: sequential flag = %v", kind, s.Sequential)
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("kind=%d: marshal stats: %v", kind, err)
		}
		var round EngineStats
		if err := json.Unmarshal(b, &round); err != nil {
			t.Fatalf("kind=%d: unmarshal stats: %v", kind, err)
		}
		if round != s {
			t.Errorf("kind=%d: stats JSON round-trip mismatch:\n got %+v\nwant %+v", kind, round, s)
		}
	}
}

func TestEngineTemplatesExposed(t *testing.T) {
	eng := New(Options{})
	eng.MustSubscribe(paperQ1)
	eng.MustSubscribe("S//book->x1[.//author->x2][.//category->x7] FOLLOWED BY{x2=x5 AND x7=x8, 1000} S//blog->x4[.//author->x5][.//category->x8]")
	if eng.NumTemplates() != 1 {
		t.Errorf("templates = %d, want 1", eng.NumTemplates())
	}
	if eng.NumQueries() != 2 {
		t.Errorf("queries = %d", eng.NumQueries())
	}
	if !strings.Contains(eng.Query(0), "FOLLOWED BY") {
		t.Errorf("query source lost")
	}
}

func TestEngineCompositionChain(t *testing.T) {
	// q1 joins an alert with a confirmation and publishes to "incidents";
	// q2 consumes incidents and correlates them with a page on the same
	// host. The chain only resolves through the derived stream.
	eng := New(Options{EnableComposition: true})
	// Two predicates keep the block roots in the templates, so the
	// derived documents carry whole alert/confirm subtrees.
	q1 := eng.MustSubscribe(
		"S//alert->a[./host->h][./sev->s] FOLLOWED BY{h=h2 AND s=s2, 100} S//confirm->c[./host->h2][./sev->s2] PUBLISH incidents")
	q2 := eng.MustSubscribe(
		"incidents//alert->a[./host->h] JOIN{h=h2, 1000} P//page->p[./host->h2]")

	feed := func(stream, xml string, id, ts int64) []Match {
		ms, err := publishXML(eng, stream, xml, id, ts)
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}

	feed("P", "<page><host>web1</host></page>", 1, 5)
	feed("S", "<alert><host>web1</host><sev>hi</sev></alert>", 2, 10)
	ms := feed("S", "<confirm><host>web1</host><sev>hi</sev></confirm>", 3, 20)

	fired := map[QueryID]int{}
	for _, m := range ms {
		fired[m.Query]++
	}
	if fired[q1] != 1 {
		t.Errorf("q1 fired %d times, want 1", fired[q1])
	}
	if fired[q2] != 1 {
		t.Errorf("q2 fired %d times, want 1 (via the derived incidents stream)", fired[q2])
	}
	if eng.DroppedCascades() != 0 {
		t.Errorf("dropped cascades = %d", eng.DroppedCascades())
	}
}

func TestEngineCompositionDepthLimit(t *testing.T) {
	// A self-feeding query network must be cut off at the depth limit
	// rather than looping forever: the single-block query republishes
	// every x element it sees back onto its own input stream.
	eng := New(Options{EnableComposition: true})
	eng.MustSubscribe("loop//x->a PUBLISH loop")
	ms, err := publishXML(eng, "loop", "<r><x>v</x></r>", 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != MaxCompositionDepth+1 {
		t.Errorf("matches = %d, want %d (one per level)", len(ms), MaxCompositionDepth+1)
	}
	if eng.DroppedCascades() != 1 {
		t.Errorf("dropped cascades = %d, want 1", eng.DroppedCascades())
	}
}

func TestEngineCompositionDisabledByDefault(t *testing.T) {
	eng := New(Options{RetainDocuments: true})
	eng.MustSubscribe("S//a->x FOLLOWED BY{x=y, 100} S//b->y PUBLISH derived")
	eng.MustSubscribe("derived//a->x")
	publishXML(eng, "S", "<a>v</a>", 1, 10)
	ms, _ := publishXML(eng, "S", "<b>v</b>", 2, 20)
	// Only the first query fires; no cascade without EnableComposition.
	if len(ms) != 1 {
		t.Errorf("matches = %d, want 1", len(ms))
	}
}

func TestEngineCompositionDerivedContent(t *testing.T) {
	// The derived document carries the matched subtrees, verified by a
	// downstream query binding into them.
	eng := New(Options{EnableComposition: true})
	eng.MustSubscribe("S//book->b[.//author->a][.//title->t] FOLLOWED BY{a=a2 AND t=t2, 100} S//blog->g[.//author->a2][.//title->t2] PUBLISH pairs")
	probe := eng.MustSubscribe("pairs//result->r[./book[./author->x]][./blog[./author->y]]")
	publishXML(eng, "S", "<book><author>Danny</author><title>RSS</title></book>", 1, 10)
	ms, _ := publishXML(eng, "S", "<blog><author>Danny</author><title>RSS</title></blog>", 2, 20)
	found := false
	for _, m := range ms {
		if m.Query == probe {
			found = true
		}
	}
	if !found {
		t.Errorf("derived document structure not matchable downstream: %+v", ms)
	}
}
