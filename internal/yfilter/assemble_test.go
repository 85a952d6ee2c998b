package yfilter

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/workload"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// randomTreeDoc builds an n-node document over the given tag names whose
// depth performs a random walk (so same-name elements nest and a sibling run
// is interrupted by deeper nodes of the same name), one node in eight an
// attribute. With levelOrder the Builder is fed breadth-first, so node ids
// are not pre-order: document order is then the child order alone.
func randomTreeDoc(rng *rand.Rand, n int, names []string, levelOrder bool) *xmldoc.Document {
	type node struct {
		name   string
		attr   bool
		parent int
		kids   []int
	}
	nodes := []node{{name: names[rng.Intn(len(names))], parent: -1}}
	open := []int{0}
	for i := 1; i < n; i++ {
		for len(open) > 1 && rng.Intn(2) == 0 {
			open = open[:len(open)-1]
		}
		p := open[len(open)-1]
		nodes = append(nodes, node{name: names[rng.Intn(len(names))], attr: rng.Intn(8) == 0, parent: p})
		nodes[p].kids = append(nodes[p].kids, i)
		if !nodes[i].attr {
			open = append(open, i)
		}
	}
	b := xmldoc.NewBuilder(1, 0, nodes[0].name)
	ids := make([]xmldoc.NodeID, n)
	add := func(i int) {
		if nodes[i].attr {
			ids[i] = b.Attribute(ids[nodes[i].parent], nodes[i].name, fmt.Sprint(i%3))
		} else {
			ids[i] = b.Element(ids[nodes[i].parent], nodes[i].name, strings.Repeat("x", i%2))
		}
	}
	if levelOrder {
		for queue := []int{0}; len(queue) > 0; queue = queue[1:] {
			for _, k := range nodes[queue[0]].kids {
				add(k)
				queue = append(queue, k)
			}
		}
	} else {
		for i := 1; i < n; i++ {
			add(i) // creation order is pre-order
		}
	}
	return b.Build()
}

// smallPattern draws random patterns until one has at most maxNodes nodes, so
// the exponential MatchNaive stays affordable on a document of hundreds of
// nodes.
func smallPattern(rng *rand.Rand, maxNodes int) *xpath.Pattern {
	for {
		if p := randomPattern(rng); len(p.Nodes) <= maxNodes {
			return p
		}
	}
}

func checkAgainstNaive(t *testing.T, label string, r *MatchResult, id PatternID, p *xpath.Pattern, doc *xmldoc.Document) {
	t.Helper()
	got := sortedWitnesses(r.Witnesses(id))
	want := sortedWitnesses(p.MatchNaive(doc))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: pattern %q doc %s:\nengine %v\nnaive  %v", label, p.String(), doc.XMLText(), got, want)
	}
}

// checkRootCounts compares RootCounts on a fully bound pattern with
// MatchNaive's witnesses grouped by their root binding, and checks that the
// roots come in document order.
func checkRootCounts(t *testing.T, label string, r *MatchResult, id PatternID, p *xpath.Pattern, doc *xmldoc.Document) {
	t.Helper()
	roots, counts := r.RootCounts(id)
	got := map[xmldoc.NodeID]int64{}
	for k, root := range roots {
		if k > 0 && r.span[roots[k-1]].pre >= r.span[root].pre {
			t.Fatalf("%s: pattern %q: roots %v not in document order", label, p.String(), roots)
		}
		got[root] = counts[k]
	}
	want := map[xmldoc.NodeID]int64{}
	for _, w := range p.MatchNaive(doc) {
		want[w.Bindings[0]]++
	}
	if !maps.Equal(got, want) {
		t.Fatalf("%s: pattern %q doc %s:\ncounted %v\nnaive   %v", label, p.String(), doc.XMLText(), got, want)
	}
}

// TestCountArithmetic pins the checked sums and products of witness counts:
// -1 stands for a count past int64 and absorbs every later operation.
func TestCountArithmetic(t *testing.T) {
	const top = math.MaxInt64
	for _, tc := range []struct{ a, b, sum, product int64 }{
		{2, 3, 5, 6},
		{0, top, top, 0},
		{top, 1, -1, top},
		{1 << 32, 1 << 31, 1<<32 + 1<<31, -1},
		{top / 2, 2, top/2 + 2, top - 1},
		{-1, 0, -1, -1},
		{3, -1, -1, -1},
	} {
		if got := addCount(tc.a, tc.b); got != tc.sum {
			t.Errorf("addCount(%d, %d) = %d, want %d", tc.a, tc.b, got, tc.sum)
		}
		if got := mulCount(tc.a, tc.b); got != tc.product {
			t.Errorf("mulCount(%d, %d) = %d, want %d", tc.a, tc.b, got, tc.product)
		}
	}
}

// TestDedupFlag pins which patterns deduplicate their witnesses: those with
// an enumerated node that the bindings do not fix, where a node is fixed
// when it is bound or sits by the child axis above a fixed node.
func TestDedupFlag(t *testing.T) {
	for _, tc := range []struct {
		pattern string
		dedup   bool
	}{
		{"S//a[.//b->x]", true},
		{"S//a[./b[.//c->y]]", true},
		{"S//a->x[.//b[.//c->y]]", true},
		{"S//a[./b->x]", false},
		{"S//a->x[.//b[./c->y]]", false},
		{"S//a[./b->x][.//c->y]", false},
		{"S//a->x[./b][.//c]", false},
		{"S//entry[./author[./name->y]]", false},
		{"S/feed[./entry[./id->y]]", false},
	} {
		e := NewEngine()
		id := e.Register(xpath.MustParseBlock(tc.pattern))
		if got := e.asm[id].prog.dedup(); got != tc.dedup {
			t.Errorf("%s: dedup %v, want %v", tc.pattern, got, tc.dedup)
		}
	}
}

// TestPropertyLargeDocuments checks assembly against the naive matcher where
// the interval join can go wrong: documents of 200-400 nodes over five names
// (same-name elements nested under //, sibling runs interleaved with deeper
// candidates of the same prefix, attributes, *), in pre-order and in
// level-order ids, against raw patterns (unbound interior nodes above bound
// ones: the deduplicating path) and their fully bound forms (the path
// internal/core uses; their counts per root too), several patterns sharing
// one engine.
func TestPropertyLargeDocuments(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	names := []string{"a", "b", "c", "d", "e"}
	dedup := 0
	for trial := 0; trial < 40; trial++ {
		doc := randomTreeDoc(rng, 200+rng.Intn(201), names, trial%2 == 1)
		e := NewEngine()
		var ids []PatternID
		for i := 0; i < 4; i++ {
			raw := smallPattern(rng, 4)
			bound, _ := raw.NormalizedFullyBound()
			ids = append(ids, e.Register(raw), e.Register(bound))
		}
		r := e.MatchDocument("S", doc)
		for k, id := range ids {
			if e.asm[id].prog.dedup() {
				dedup++
			}
			checkAgainstNaive(t, fmt.Sprintf("trial %d", trial), r, id, e.Pattern(id), doc)
			if k%2 == 1 {
				checkRootCounts(t, fmt.Sprintf("trial %d", trial), r, id, e.Pattern(id), doc)
			}
		}
		r.Release()
	}
	if dedup == 0 {
		t.Error("test premise: no pattern took the deduplicating path")
	}
}

// TestScratchReuseAcrossDocumentSizes matches a large document, a small one
// and the large one again through one engine, releasing in between, so the
// second and third runs reuse numbering, reduced lists and slab sized and
// filled by another document.
func TestScratchReuseAcrossDocumentSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	names := []string{"a", "b", "c"}
	e := NewEngine()
	var ids []PatternID
	for i := 0; i < 12; i++ {
		ids = append(ids, e.Register(smallPattern(rng, 4)))
	}
	large := randomTreeDoc(rng, 300, names, false)
	small := randomTreeDoc(rng, 9, names, true)
	for round, doc := range []*xmldoc.Document{large, small, large, small} {
		r := e.MatchDocument("S", doc)
		for _, id := range ids {
			checkAgainstNaive(t, fmt.Sprintf("round %d", round), r, id, e.Pattern(id), doc)
		}
		r.Release()
	}
}

// TestWitnessOrderIsEnumerationOrder pins the order Bindings returns the
// witnesses in (pattern nodes in pre-order, candidates in document order, a
// repeated binding kept at its first occurrence): internal/core's relation
// row order depends on it.
func TestWitnessOrderIsEnumerationOrder(t *testing.T) {
	doc, err := xmldoc.ParseString("<r><a><a><b/><b/></a><b/></a><a><b/></a></r>", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ pattern, want string }{
		{"S//a->x[.//b->y]", "[[1 3] [1 4] [1 5] [2 3] [2 4] [6 7]]"},
		{"S//a->x[./b->y]", "[[1 5] [2 3] [2 4] [6 7]]"},
		{"S//a[.//b->y]", "[[3] [4] [5] [7]]"},
		{"S//a[./a]//b->y", "[[3] [4] [5]]"},
	} {
		e := NewEngine()
		id := e.Register(xpath.MustParseBlock(tc.pattern))
		var got [][]xmldoc.NodeID
		for _, w := range e.MatchDocument("S", doc).Witnesses(id) {
			got = append(got, w.Bindings)
		}
		if fmt.Sprint(got) != tc.want {
			t.Errorf("%s: witnesses %v, want %s", tc.pattern, got, tc.want)
		}
	}
}

// TestUntriggeredPatternCostsNothing checks the trigger: a pattern with a
// prefix the document has no candidate for is not among Triggered and is
// answered by Bindings without assembly, probes or allocation, however many
// such patterns are registered; and once a result's scratch has grown to the
// document, Bindings of a triggered pattern allocates nothing either.
func TestUntriggeredPatternCostsNothing(t *testing.T) {
	e := NewEngine()
	hit := e.Register(xpath.MustParseBlock("S//book->x1[.//author->x2]"))
	also := e.Register(xpath.MustParseBlock("S//book->x1[.//title->x2][.//author->x3]"))
	var misses []PatternID
	for i := 0; i < 500; i++ {
		misses = append(misses, e.Register(xpath.MustParseBlock(fmt.Sprintf("S//book->x1[.//author->x2][./t%d]", i))))
	}
	d := xmldoc.PaperD1(1, 100)
	r := e.MatchDocument("S", d)
	if got := r.Triggered(); len(got) != 2 || !slices.Contains(got, hit) || !slices.Contains(got, also) {
		t.Fatalf("Triggered = %v, want %d and %d", got, hit, also)
	}
	if _, n := r.Bindings(hit); n == 0 {
		t.Fatal("test premise: the book/author pattern matches d1")
	}
	triggered, probes := r.Work()
	allocs := testing.AllocsPerRun(10, func() {
		for _, id := range misses {
			if _, n := r.Bindings(id); n != 0 {
				t.Fatal("untriggered pattern produced witnesses")
			}
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations drawing 500 untriggered patterns, want 0", allocs)
	}
	if tr, pr := r.Work(); tr != triggered || pr != probes || triggered != 1 {
		t.Errorf("work moved from %d/%d to %d/%d (want 1 triggered, unchanged)", triggered, probes, tr, pr)
	}
	allocs = testing.AllocsPerRun(10, func() {
		for _, id := range r.Triggered() {
			if _, n := r.Bindings(id); n == 0 {
				t.Fatal("triggered pattern lost its witnesses")
			}
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations drawing the triggered patterns on a warm result, want 0", allocs)
	}
	r.Release()
}

// TestAssemblyWorkBound bounds the counted assembly work on the deep_filter
// shape (workload.DeepFeed: 1 000 subscriptions, 265-node feeds): the
// candidates reduction and enumeration examine stay within c = 2 times the
// candidates of the triggered patterns plus the witnesses emitted (1.3 as
// measured), and only a few percent of the registered patterns are triggered.
// The constant is for patterns of this size (at most 7 nodes, fan-out 3) on
// documents where no prefix nests inside itself: reduction looks at a
// candidate once per pattern child, enumeration at one candidate per witness
// and pattern node.
func TestAssemblyWorkBound(t *testing.T) {
	c := workload.DefaultDeepFeed()
	e := NewEngine()
	var ids []PatternID
	for _, q := range c.Queries(rand.New(rand.NewSource(1)), 1000) {
		for _, block := range []*xpath.Pattern{q.Left, q.Right} {
			if block == nil {
				continue
			}
			bound, _ := block.NormalizedFullyBound()
			if id := e.Register(bound); int(id) == len(ids) {
				ids = append(ids, id)
			}
		}
	}
	var triggered, probes, candidates, witnesses int64
	docs := c.Stream(rand.New(rand.NewSource(2)), 20)
	for _, d := range docs {
		r := e.MatchDocument("S", d)
		for _, id := range ids {
			before, _ := r.Work()
			witnesses += int64(len(r.Witnesses(id)))
			if after, _ := r.Work(); after > before {
				prog := e.asm[id].prog
				for i := int32(0); i < int32(prog.numNodes()); i++ {
					candidates += int64(len(r.candList[prog.node(i)[nodePrefix]]))
				}
			}
		}
		tr, pr := r.Work()
		triggered, probes = triggered+tr, probes+pr
		r.Release()
	}
	n := int64(len(docs))
	t.Logf("%d patterns; per document %d triggered, %d probes, %d candidates of triggered patterns, %d witnesses",
		len(ids), triggered/n, probes/n, candidates/n, witnesses/n)
	if probes > 2*(candidates+witnesses) {
		t.Errorf("%d probes for %d candidates and %d witnesses: over 2x", probes, candidates, witnesses)
	}
	if 10*triggered > int64(len(ids))*n {
		t.Errorf("%d of %d pattern-document pairs triggered: the shape should trigger a few percent", triggered, int64(len(ids))*n)
	}
}

// TestAttributeWildcard pins the @* step, which the NFA used to compile into
// a transition on a literal "@*" symbol no attribute carries.
func TestAttributeWildcard(t *testing.T) {
	doc, err := xmldoc.ParseString(`<r i="1"><s i="2" j="3"><t/></s></r>`, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine()
	p := xpath.MustParseBlock("S//*->w[./@*->v]")
	id := e.Register(p)
	checkAgainstNaive(t, "@*", e.MatchDocument("S", doc), id, p, doc)
	if got := len(e.MatchDocument("S", doc).Witnesses(id)); got != 3 {
		t.Errorf("%d witnesses, want 3", got)
	}
}

// pathPattern is the linear pattern of one root-to-leaf path, its last step
// bound.
func pathPattern(stream string, steps []xpath.PathStep) *xpath.Pattern {
	var sb strings.Builder
	sb.WriteString(stream)
	for _, st := range steps {
		sb.WriteString(st.Axis.String())
		if st.IsAttr {
			sb.WriteByte('@')
		}
		sb.WriteString(st.Name)
	}
	sb.WriteString("->v")
	return xpath.MustParseBlock(sb.String())
}

// FuzzWitnessesMatchNaive lets the fuzzer supply a block pattern and an XML
// document. The pattern as written (possibly deduplicating), its fully bound
// form and the linear path to each of its leaves share prefixes in one
// engine; for each, on a fresh result, on a recycled one whose walk memo is
// warm from another document, and again on the recycled one warm from this
// document, the witnesses Bindings assembles must equal MatchNaive's as
// sets, and the pattern must be among Triggered exactly when every one of
// its root-to-leaf paths has a match — all without panicking. Then a
// Register that extends the first path by a //* step adds NFA states and
// prefixes that the memo's sets do not know: the document is matched once
// more on the recycled result, the new pattern too, so a stale memo cannot
// survive. The fully bound form's counts per root (RootCounts) must equal
// MatchNaive's witnesses grouped by root binding. Sizes are capped because
// MatchNaive is exponential in the pattern.
func FuzzWitnessesMatchNaive(f *testing.F) {
	for _, seed := range [][2]string{
		{"S//book->x1[.//author->x2][.//title->x3]", "<lib><book><author>a</author><title>t</title><author>b</author></book></lib>"},
		{"S//entry->e[./topics/t17]", "<feed><entry><topics><t17/></topics><entry><topics><t3/></topics></entry></entry></feed>"},
		{"S//a[.//a->x]//b->y", "<a><a><b/><a><b/></a></a><b/></a>"},
		{"S//a->x[./b->y]", "<r><a><c><a><b/></a></c><b/><b/></a></r>"},
		{"S//*->w[./@*->v]", `<r i="1"><s i="2" j="3"><t/></s></r>`},
		{"S/r/a[./b]//c->z", "<r><a><b/><d><c/><c/></d></a><a><c/></a></r>"},
		{"S//a[.//b][.//c]", "<a><b/><a><c/></a></a>"},
		{"S//a//a->y", "<a><a><c><a/><a><a/></a></c></a><b><a/></b></a>"},
		{"S//a->x[.//b->y]", "<a><a><b/><a><b/><b/></a></a><b/></a>"},
		{"S//e->x[./t9][.//s]", "<f><e><t9/><p><s/><s/></p><s/></e><e><p><s/><s/></p></e><e><t9/><s/></e></f>"},
		{"S//a[./@i][.//b/@j]", `<a i="1"><b j="2"/><a i="3"><b/><b j="4"/></a></a>`},
	} {
		f.Add(seed[0], seed[1])
	}
	warm, err := xmldoc.ParseString(`<a i="1"><b><a><c j="2"/></a><book><author/><title/></book></b><r><a><b/></a></r></a>`, 1, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, block, doc string) {
		raw, err := xpath.ParseBlock(block)
		if err != nil || len(raw.Nodes) > 5 {
			return
		}
		d, err := xmldoc.ParseString(doc, 1, 0)
		if err != nil || d.Len() > 48 {
			return
		}
		bound, _ := raw.NormalizedFullyBound()
		e := NewEngine()
		ids := []PatternID{e.Register(raw), e.Register(bound)}
		paths := raw.Decompose()
		for _, path := range paths {
			ids = append(ids, e.Register(pathPattern(raw.Stream, path.Steps)))
		}
		check := func(label string) {
			r := e.MatchDocument(raw.Stream, d)
			triggered := r.Triggered()
			checkRootCounts(t, label, r, ids[1], e.Pattern(ids[1]), d)
			for _, id := range ids {
				p := e.Pattern(id)
				checkAgainstNaive(t, label, r, id, p, d)
				want := true
				for _, path := range p.Decompose() {
					want = want && len(pathPattern(p.Stream, path.Steps).MatchNaive(d)) > 0
				}
				if got := slices.Contains(triggered, id); got != want {
					t.Fatalf("%s: pattern %q doc %s: triggered %v, want %v", label, p.String(), d.XMLText(), got, want)
				}
			}
			r.Release()
		}
		check("fresh result")
		e.MatchDocument(raw.Stream, warm).Release()
		check("memo warm from another document")
		check("memo warm from this document")
		steps := append(slices.Clip(paths[0].Steps), xpath.PathStep{Axis: xpath.Descendant, Name: "*"})
		ids = append(ids, e.Register(pathPattern(raw.Stream, steps)))
		check("after a Register")
	})
}
