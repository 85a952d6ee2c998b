package core

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/sym"
	"repro/internal/xmldoc"
	"repro/internal/xscl"
)

// feedPaperDocs processes d1 then d2 (Figures 1 and 2) and returns the
// matches triggered by d2.
func feedPaperDocs(t *testing.T, window int64) (*Processor, []QueryID, []Match) {
	t.Helper()
	p := NewProcessor(Config{})
	ids := []QueryID{
		p.MustRegister(xscl.PaperQ1(window)),
		p.MustRegister(xscl.PaperQ2(window)),
		p.MustRegister(xscl.PaperQ3(window)),
	}
	d1 := xmldoc.PaperD1(1, 100)
	d2 := xmldoc.PaperD2(2, 200)
	if got := p.Process("S", d1); len(got) != 0 {
		t.Fatalf("d1 produced %d matches, want 0", len(got))
	}
	return p, ids, p.Process("S", d2)
}

func matchSummary(ms []Match) []string {
	var out []string
	for _, m := range ms {
		out = append(out, summaryOf(m))
	}
	sort.Strings(out)
	return out
}

func summaryOf(m Match) string {
	return string(rune('A'+int(m.Query))) +
		":" + itos(int64(m.LeftDoc)) + "->" + itos(int64(m.RightDoc))
}

func itos(i int64) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return "big"
}

// TestPaperWorkedExample reproduces Section 4.4.1: after d1 and d2, Q1 and
// Q2 each produce exactly one result; Q3 produces none (d1 is not a blog).
func TestPaperWorkedExample(t *testing.T) {
	_, ids, ms := feedPaperDocs(t, 1000)
	if len(ms) != 2 {
		t.Fatalf("%d matches, want 2: %v", len(ms), matchSummary(ms))
	}
	seen := map[QueryID]bool{}
	for _, m := range ms {
		seen[m.Query] = true
		if m.LeftDoc != 1 || m.RightDoc != 2 {
			t.Errorf("match docs = %d -> %d", m.LeftDoc, m.RightDoc)
		}
		if m.LeftRoot != 0 || m.RightRoot != 0 {
			t.Errorf("roots = %d, %d, want the two document roots", m.LeftRoot, m.RightRoot)
		}
	}
	if !seen[ids[0]] || !seen[ids[1]] || seen[ids[2]] {
		t.Errorf("fired queries = %v, want Q1 and Q2 only", seen)
	}
}

// TestPaperTable4Bindings checks the RoutT node bindings of Table 4(f):
// Q1 binds (0,2,4 | 0,2,3): book root, Danny Ayers author, title in d1;
// blog root, author, title in d2.
func TestPaperTable4Bindings(t *testing.T) {
	_, ids, ms := feedPaperDocs(t, 1000)
	for _, m := range ms {
		if m.Query != ids[0] {
			continue
		}
		nodes := map[int64]bool{}
		for _, b := range m.Bindings {
			nodes[int64(b)] = true
		}
		// Left side nodes 0 (book), 2/3 is the author node id 3 in
		// Figure 1 numbering... our PaperD1 has Danny Ayers at node 3
		// and title at node 4; right side: blog root 0, author 2,
		// title 3.
		for _, want := range []int64{0, 3, 4, 2} {
			if !nodes[want] {
				t.Errorf("Q1 bindings missing node %d: %v", want, m.Bindings)
			}
		}
	}
}

// TestPaperStateRelations checks Rdoc/Rbin contents after d1 against
// Tables 4(b) and 4(c): value-join nodes of d1 are the authors (2,3), title
// (4) and categories (5,6); Rbin holds the root→leaf pairs.
func TestPaperStateRelations(t *testing.T) {
	p := NewProcessor(Config{})
	p.MustRegister(xscl.PaperQ1(1000))
	p.MustRegister(xscl.PaperQ2(1000))
	p.MustRegister(xscl.PaperQ3(1000))
	p.Process("S", xmldoc.PaperD1(1, 100))

	rbin, rdoc, _ := stateRelations(p.State())
	gotNodes := map[int64]string{}
	for _, row := range rdoc.Rows {
		gotNodes[row[1]] = sym.Name(sym.ID(row[2]))
	}
	want := map[int64]string{
		2: "Andrew Watt",
		3: "Danny Ayers",
		4: "Beginning RSS and Atom Programming",
		5: "Scripting & Programming",
		6: "Web Site Development",
	}
	for n, s := range want {
		if gotNodes[n] != s {
			t.Errorf("Rdoc node %d = %q, want %q", n, gotNodes[n], s)
		}
	}
	// Rbin: pairs (0,2), (0,3) for authors, (0,4) for title, (0,5), (0,6)
	// for categories — exactly Table 4(c).
	pairs := map[[2]int64]bool{}
	for _, row := range rbin.Rows {
		pairs[[2]int64{row[3], row[4]}] = true
	}
	for _, p2 := range [][2]int64{{0, 2}, {0, 3}, {0, 4}, {0, 5}, {0, 6}} {
		if !pairs[p2] {
			t.Errorf("Rbin missing pair %v (have %v)", p2, pairs)
		}
	}
}

func TestFollowedByWindowSemantics(t *testing.T) {
	p := NewProcessor(Config{})
	p.MustRegister(xscl.MustParse("S//a->x FOLLOWED BY{x=y, 50} S//b->y"))

	mk := func(id xmldoc.DocID, ts xmldoc.Timestamp, tag string) *xmldoc.Document {
		b := xmldoc.NewBuilder(id, ts, tag)
		_ = b.Element(0, "t", "")
		b.SetText(0, "v")
		return b.Build()
	}
	// a at ts=100.
	p.Process("S", mk(1, 100, "a"))
	// b at ts=100: delta 0, FOLLOWED BY requires strictly later.
	if ms := p.Process("S", mk(2, 100, "b")); len(ms) != 0 {
		t.Errorf("delta=0 fired: %v", ms)
	}
	// b at ts=150: inside the window.
	if ms := p.Process("S", mk(3, 150, "b")); len(ms) != 1 {
		t.Errorf("delta=50 matches = %d, want 1", len(ms))
	}
	// b at ts=151: outside.
	if ms := p.Process("S", mk(4, 151, "b")); len(ms) != 0 {
		t.Errorf("delta=51 fired")
	}
	// b before a never fires (need a fresh a later).
	if ms := p.Process("S", mk(5, 200, "a")); len(ms) != 0 {
		t.Errorf("a triggered: %v", ms)
	}
}

func TestFollowedByDirectionality(t *testing.T) {
	p := NewProcessor(Config{})
	p.MustRegister(xscl.MustParse("S//a->x FOLLOWED BY{x=y, 100} S//b->y"))
	mk := func(id xmldoc.DocID, ts xmldoc.Timestamp, tag string) *xmldoc.Document {
		b := xmldoc.NewBuilder(id, ts, tag)
		b.SetText(0, "v")
		return b.Build()
	}
	// b first, then a: must not fire.
	p.Process("S", mk(1, 100, "b"))
	if ms := p.Process("S", mk(2, 150, "a")); len(ms) != 0 {
		t.Errorf("reversed order fired: %v", ms)
	}
}

func TestJoinOperatorSymmetric(t *testing.T) {
	p := NewProcessor(Config{})
	qid := p.MustRegister(xscl.MustParse("S//a->x JOIN{x=y, 100} S//b->y"))
	mk := func(id xmldoc.DocID, ts xmldoc.Timestamp, tag string) *xmldoc.Document {
		b := xmldoc.NewBuilder(id, ts, tag)
		b.SetText(0, "v")
		return b.Build()
	}
	// b first, then a: JOIN fires (symmetric).
	p.Process("S", mk(1, 100, "b"))
	ms := p.Process("S", mk(2, 150, "a"))
	if len(ms) != 1 {
		t.Fatalf("reversed JOIN matches = %d, want 1", len(ms))
	}
	m := ms[0]
	if m.Query != qid {
		t.Errorf("query = %d", m.Query)
	}
	// The a document is the query's LEFT block even though it is newer.
	if m.LeftDoc != 2 || m.RightDoc != 1 {
		t.Errorf("join orientation: left=%d right=%d, want 2,1", m.LeftDoc, m.RightDoc)
	}
	// Same-timestamp JOIN also fires.
	ms = p.Process("S", mk(3, 150, "b"))
	if len(ms) != 1 {
		t.Errorf("same-ts JOIN matches = %d, want 1 (a@150 JOIN b@150)", len(ms))
	}
}

func TestSingleBlockQuery(t *testing.T) {
	p := NewProcessor(Config{})
	qid := p.MustRegister(xscl.MustParse("S//book->x"))
	ms := p.Process("S", xmldoc.PaperD1(1, 100))
	if len(ms) != 1 || ms[0].Query != qid {
		t.Fatalf("matches = %v", ms)
	}
	if ms[0].LeftDoc != 1 || ms[0].RightDoc != 1 {
		t.Errorf("single-block docs = %d, %d", ms[0].LeftDoc, ms[0].RightDoc)
	}
	if len(p.Process("S", xmldoc.PaperD2(2, 200))) != 0 {
		t.Errorf("blog doc matched //book")
	}
}

func TestSelfJoinQ3OnBlogPair(t *testing.T) {
	// Two blog postings by the same author with the same title: Q3 fires.
	p := NewProcessor(Config{})
	qid := p.MustRegister(xscl.PaperQ3(1000))
	d2 := xmldoc.PaperD2(1, 100)
	d2b := xmldoc.PaperD2(2, 200) // identical content, later timestamp
	p.Process("S", d2)
	ms := p.Process("S", d2b)
	if len(ms) != 1 {
		t.Fatalf("Q3 matches = %d, want 1", len(ms))
	}
	if ms[0].Query != qid || ms[0].LeftDoc != 1 || ms[0].RightDoc != 2 {
		t.Errorf("match = %+v", ms[0])
	}
}

func TestValueJoinMustMatchVariables(t *testing.T) {
	// A query joining author=author must NOT fire when only title=author
	// values collide: variable identity is enforced through RT.
	p := NewProcessor(Config{})
	p.MustRegister(xscl.MustParse(
		"S//a->r1[.//x->v1] FOLLOWED BY{v1=w1, 100} S//b->r2[.//y->w1]"))

	b1 := xmldoc.NewBuilder(1, 100, "a")
	b1.Element(0, "z", "shared") // wrong element: z, not x
	d1 := b1.Build()
	p.Process("S", d1)

	b2 := xmldoc.NewBuilder(2, 150, "b")
	b2.Element(0, "y", "shared")
	d2 := b2.Build()
	if ms := p.Process("S", d2); len(ms) != 0 {
		t.Errorf("wrong-variable value collision fired: %v", ms)
	}

	// Now a real x leaf with the same value: fires.
	b3 := xmldoc.NewBuilder(3, 160, "a")
	b3.Element(0, "x", "shared")
	p.Process("S", b3.Build())
	b4 := xmldoc.NewBuilder(4, 170, "b")
	b4.Element(0, "y", "shared")
	if ms := p.Process("S", b4.Build()); len(ms) != 1 {
		t.Errorf("correct-variable match count = %d, want 1", len(ms))
	}
}

func TestConjunctionAllPredicatesRequired(t *testing.T) {
	p := NewProcessor(Config{})
	p.MustRegister(xscl.MustParse(
		"S//a->r1[.//x->v1][.//y->v2] FOLLOWED BY{v1=w1 AND v2=w2, 100} S//b->r2[.//x->w1][.//y->w2]"))
	b1 := xmldoc.NewBuilder(1, 100, "a")
	b1.Element(0, "x", "p")
	b1.Element(0, "y", "q")
	p.Process("S", b1.Build())

	// Only x matches: no fire.
	b2 := xmldoc.NewBuilder(2, 110, "b")
	b2.Element(0, "x", "p")
	b2.Element(0, "y", "DIFFERENT")
	if ms := p.Process("S", b2.Build()); len(ms) != 0 {
		t.Errorf("partial predicate satisfaction fired")
	}
	// Both match: fire.
	b3 := xmldoc.NewBuilder(3, 120, "b")
	b3.Element(0, "x", "p")
	b3.Element(0, "y", "q")
	if ms := p.Process("S", b3.Build()); len(ms) != 1 {
		t.Errorf("full predicate satisfaction matches = %d, want 1", len(ms))
	}
}

func TestTemplateSharingAcrossQueries(t *testing.T) {
	// 1000 queries over the flat schema with the Figure-17 construction
	// share at most N templates.
	p := NewProcessor(Config{})
	p.MustRegister(xscl.PaperQ1(10))
	p.MustRegister(xscl.PaperQ2(10))
	p.MustRegister(xscl.PaperQ3(10))
	if p.NumTemplates() != 1 {
		t.Errorf("templates = %d, want 1 (Figure 5)", p.NumTemplates())
	}
	if p.NumQueries() != 3 {
		t.Errorf("queries = %d", p.NumQueries())
	}
}

func TestWindowGC(t *testing.T) {
	p := NewProcessor(Config{})
	p.MustRegister(xscl.MustParse("S//a->x FOLLOWED BY{x=y, 10} S//b->y"))
	mk := func(id xmldoc.DocID, ts xmldoc.Timestamp, tag string) *xmldoc.Document {
		b := xmldoc.NewBuilder(id, ts, tag)
		b.SetText(0, "v")
		return b.Build()
	}
	for i := 0; i < 100; i++ {
		p.Process("S", mk(xmldoc.DocID(i+1), xmldoc.Timestamp(i*20), "a"))
	}
	// Windows are 10, documents 20 apart: all but the newest are
	// expired; GC must have bounded the state.
	if n := p.State().NumDocs(); n > 40 {
		t.Errorf("state holds %d docs after GC, want bounded", n)
	}
	// Semantics preserved: an in-window b still matches the latest a.
	ms := p.Process("S", mk(200, xmldoc.Timestamp(99*20+5), "b"))
	if len(ms) != 1 {
		t.Errorf("post-GC match count = %d, want 1", len(ms))
	}
}

func TestStatsAccumulate(t *testing.T) {
	p, _, _ := feedPaperDocs(t, 1000)
	st := p.Stats()
	if st.Documents != 2 || st.Matches != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.XPath == 0 {
		t.Errorf("XPath time not recorded")
	}
	p.ResetStats()
	if p.Stats().Documents != 0 {
		t.Errorf("reset failed")
	}
}

func TestCrossStreamJoin(t *testing.T) {
	// The paper's techniques "can be extended to handle ... more than one
	// input stream": blocks on different streams join through the shared
	// witness relations.
	p := NewProcessor(Config{})
	qid := p.MustRegister(xscl.MustParse(
		"News//story->s[./topic->t] FOLLOWED BY{t=t2, 100} Blogs//post->b[./topic->t2]"))

	mk := func(id xmldoc.DocID, ts xmldoc.Timestamp, root, leaf, val string) *xmldoc.Document {
		b := xmldoc.NewBuilder(id, ts, root)
		b.Element(0, leaf, val)
		return b.Build()
	}
	if ms := p.Process("News", mk(1, 10, "story", "topic", "go")); len(ms) != 0 {
		t.Fatalf("story alone fired")
	}
	// A matching topic on the wrong stream must not fire.
	if ms := p.Process("News", mk(2, 20, "post", "topic", "go")); len(ms) != 0 {
		t.Fatalf("post document on News stream fired")
	}
	ms := p.Process("Blogs", mk(3, 30, "post", "topic", "go"))
	if len(ms) != 1 || ms[0].Query != qid || ms[0].LeftDoc != 1 || ms[0].RightDoc != 3 {
		t.Fatalf("cross-stream match = %v", ms)
	}
}

func TestRawEncodeDistinguishesShapes(t *testing.T) {
	mk := func(src string) string {
		g, err := BuildJoinGraph(xscl.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		var reg regScratch
		return string(reg.rawKey(g.Minor()))
	}
	a := mk("S//r->x[.//a->a1][.//b->b1] FOLLOWED BY{a1=c1 AND b1=d1, 10} S//s->y[.//c->c1][.//d->d1]")
	fan := mk("S//r->x[.//a->a1][.//b->b1] FOLLOWED BY{a1=c1 AND a1=d1, 10} S//s->y[.//c->c1][.//d->d1]")
	if a == fan {
		t.Errorf("raw keys collide for different wirings")
	}
	// Predicate order must not matter (edges sorted in the raw key).
	p1 := mk("S//r->x[.//a->a1][.//b->b1] FOLLOWED BY{a1=c1 AND b1=d1, 10} S//s->y[.//c->c1][.//d->d1]")
	p2 := mk("S//r->x[.//a->a1][.//b->b1] FOLLOWED BY{b1=d1 AND a1=c1, 10} S//s->y[.//c->c1][.//d->d1]")
	if p1 != p2 {
		t.Errorf("raw keys differ under predicate reordering")
	}
}

func TestSymtabInterning(t *testing.T) {
	s := newSymtab()
	a := s.intern("S//blog//author")
	b := s.intern("S//blog//title")
	a2 := s.intern("S//blog//author")
	if a != a2 || a == b {
		t.Errorf("interning broken: %d %d %d", a, a2, b)
	}
	if s.name(a) != "S//blog//author" {
		t.Errorf("name(%d) = %q", a, s.name(a))
	}
}

func TestJoinGraphString(t *testing.T) {
	g, _ := BuildJoinGraph(xscl.PaperQ1(10))
	s := g.String()
	for _, want := range []string{"LHS", "RHS", "value joins", "x1", "x5"} {
		if !strings.Contains(s, want) {
			t.Errorf("join graph rendering missing %q:\n%s", want, s)
		}
	}
}
