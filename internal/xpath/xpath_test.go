package xpath

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/xmldoc"
)

// varNames returns the variable names bound in the pattern, in pre-order.
func varNames(p *Pattern) []string {
	out := make([]string, len(p.VarNodes))
	for i, idx := range p.VarNodes {
		out[i] = p.Nodes[idx].Var
	}
	return out
}

func TestParseBlockQ1LHS(t *testing.T) {
	p, err := ParseBlock("S//book->x1[.//author->x2][.//title->x3]")
	if err != nil {
		t.Fatal(err)
	}
	if p.Stream != "S" {
		t.Errorf("stream = %q", p.Stream)
	}
	if p.Root.Name != "book" || p.Root.Var != "x1" || p.Root.Axis != Descendant {
		t.Errorf("root = %+v", p.Root)
	}
	if len(p.Root.Children) != 2 {
		t.Fatalf("children = %d", len(p.Root.Children))
	}
	if p.Root.Children[0].Name != "author" || p.Root.Children[0].Var != "x2" {
		t.Errorf("child 0 = %+v", p.Root.Children[0])
	}
	if p.Root.Children[1].Name != "title" || p.Root.Children[1].Var != "x3" {
		t.Errorf("child 1 = %+v", p.Root.Children[1])
	}
	if got := varNames(p); !reflect.DeepEqual(got, []string{"x1", "x2", "x3"}) {
		t.Errorf("vars = %v", got)
	}
}

func TestParsePathContinuation(t *testing.T) {
	p, err := ParseBlock("S//a->v1[.//b->v2]//c->v3/d")
	if err != nil {
		t.Fatal(err)
	}
	// a has children [b] and c; c has child d.
	if len(p.Root.Children) != 2 {
		t.Fatalf("a children = %d", len(p.Root.Children))
	}
	c := p.Root.Children[1]
	if c.Name != "c" || c.Axis != Descendant || len(c.Children) != 1 {
		t.Fatalf("c = %+v", c)
	}
	if c.Children[0].Name != "d" || c.Children[0].Axis != Child {
		t.Errorf("d = %+v", c.Children[0])
	}
}

func TestParseNestedPredicates(t *testing.T) {
	p, err := ParseBlock("S/r->v0[./a->v1[.//b->v2]][.//@id->v3]")
	if err != nil {
		t.Fatal(err)
	}
	if p.Root.Axis != Child {
		t.Errorf("root axis = %v", p.Root.Axis)
	}
	a := p.Root.Children[0]
	if a.Name != "a" || a.Axis != Child || a.Children[0].Name != "b" {
		t.Errorf("a = %+v", a)
	}
	id := p.Root.Children[1]
	if !id.IsAttr || id.Name != "id" || id.Var != "v3" {
		t.Errorf("id = %+v", id)
	}
}

func TestParsePrimedVars(t *testing.T) {
	p, err := ParseBlock("S//blog->x4'[.//author->x5']")
	if err != nil {
		t.Fatal(err)
	}
	if p.Root.Var != "x4'" || p.Root.Children[0].Var != "x5'" {
		t.Errorf("vars = %q %q", p.Root.Var, p.Root.Children[0].Var)
	}
}

func TestParseWildcard(t *testing.T) {
	p, err := ParseBlock("S//*->w")
	if err != nil {
		t.Fatal(err)
	}
	if p.Root.Name != "*" {
		t.Errorf("name = %q", p.Root.Name)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"//book", // missing stream
		"S//",
		"S//book[author]",  // predicate without leading .
		"S//book[.//title", // unclosed predicate
		"S//book->",        // missing var
		"S//book]",         // trailing
		"S book",           // no axis
	}
	for _, src := range bad {
		if _, err := ParseBlock(src); err == nil {
			t.Errorf("ParseBlock(%q) succeeded, want error", src)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	srcs := []string{
		"S//book->x1[.//author->x2][.//title->x3]",
		"S//a->v1[.//b->v2][.//c->v3[./d]]",
		"Feeds//item[.//@id->i]",
	}
	for _, src := range srcs {
		p1, err := ParseBlock(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		p2, err := ParseBlock(p1.String())
		if err != nil {
			t.Fatalf("round trip %q -> %q: %v", src, p1.String(), err)
		}
		if p1.CanonicalKey() != p2.CanonicalKey() {
			t.Errorf("round trip changed pattern: %q vs %q", p1.CanonicalKey(), p2.CanonicalKey())
		}
	}
}

func TestCanonicalKeyPredicateOrderInvariance(t *testing.T) {
	a := MustParseBlock("S//blog->x[.//author->y][.//title->z]")
	b := MustParseBlock("S//blog->x[.//title->z][.//author->y]")
	if a.CanonicalKey() != b.CanonicalKey() {
		t.Errorf("keys differ:\n%q\n%q", a.CanonicalKey(), b.CanonicalKey())
	}
	c := MustParseBlock("S//blog->x[.//author->y]")
	if a.CanonicalKey() == c.CanonicalKey() {
		t.Errorf("different patterns share a key")
	}
}

func TestDecompose(t *testing.T) {
	p := MustParseBlock("S//a->v1[.//b->v2][./c[.//d->v3]]")
	paths := p.Decompose()
	if len(paths) != 2 {
		t.Fatalf("paths = %d", len(paths))
	}
	// First path: //a//b
	if len(paths[0].Steps) != 2 || paths[0].Steps[1].Name != "b" {
		t.Errorf("path 0 = %+v", paths[0])
	}
	// Second path: //a/c//d
	if len(paths[1].Steps) != 3 || paths[1].Steps[1].Name != "c" || paths[1].Steps[1].Axis != Child || paths[1].Steps[2].Name != "d" {
		t.Errorf("path 1 = %+v", paths[1])
	}
	if paths[1].NodeIndexes[2] != p.VarNode("v3").Index {
		t.Errorf("node indexes = %v", paths[1].NodeIndexes)
	}
}

func paperDoc1() *xmldoc.Document { return xmldoc.PaperD1(1, 100) }
func paperDoc2() *xmldoc.Document { return xmldoc.PaperD2(2, 200) }

func witnessSet(ws []Witness) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = fmt.Sprint(w.Bindings)
	}
	sort.Strings(out)
	return out
}

func TestMatchNaivePaperQ1LHS(t *testing.T) {
	p := MustParseBlock("S//book->x1[.//author->x2][.//title->x3]")
	ws := p.MatchNaive(paperDoc1())
	// book=0, authors={2,3}, title=4 → two witnesses.
	got := witnessSet(ws)
	want := []string{"[0 2 4]", "[0 3 4]"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("witnesses = %v, want %v", got, want)
	}
}

func TestMatchNaiveNoMatch(t *testing.T) {
	p := MustParseBlock("S//blog->x4[.//author->x5]")
	if ws := p.MatchNaive(paperDoc1()); len(ws) != 0 {
		t.Errorf("blog pattern matched book doc: %v", ws)
	}
}

func TestMatchNaiveChildVsDescendant(t *testing.T) {
	b := xmldoc.NewBuilder(1, 0, "r")
	a := b.Element(0, "a", "")
	b.Element(a, "b", "")
	deep := b.Element(a, "c", "")
	b.Element(deep, "b", "")
	d := b.Build()

	child := MustParseBlock("S//a->x[./b->y]")
	if got := len(child.MatchNaive(d)); got != 1 {
		t.Errorf("child axis matched %d, want 1", got)
	}
	desc := MustParseBlock("S//a->x[.//b->y]")
	if got := len(desc.MatchNaive(d)); got != 2 {
		t.Errorf("descendant axis matched %d, want 2", got)
	}
}

func TestMatchNaiveRootChildAxis(t *testing.T) {
	d := paperDoc2()
	// S/blog selects the root only.
	p := MustParseBlock("S/blog->x")
	if got := len(p.MatchNaive(d)); got != 1 {
		t.Errorf("S/blog matched %d, want 1", got)
	}
	// S/author must not match (author is not the root).
	p2 := MustParseBlock("S/author->x")
	if got := len(p2.MatchNaive(d)); got != 0 {
		t.Errorf("S/author matched %d, want 0", got)
	}
}

func TestMatchNaiveWildcardAndAttr(t *testing.T) {
	doc, err := xmldoc.ParseString(`<r><a id="1"><b>x</b></a><c id="2"/></r>`, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := MustParseBlock("S//*->x[./@id->i]")
	ws := p.MatchNaive(doc)
	if len(ws) != 2 {
		t.Errorf("wildcard+attr matched %d, want 2: %v", len(ws), witnessSet(ws))
	}
}

func TestMatchNaiveUnboundExistential(t *testing.T) {
	// Unbound intermediate nodes are existentially quantified: distinct
	// embeddings that agree on bound vars yield one witness.
	b := xmldoc.NewBuilder(1, 0, "r")
	a1 := b.Element(0, "a", "")
	b.Element(a1, "t", "v")
	a2 := b.Element(0, "a", "")
	b.Element(a2, "t", "v")
	d := b.Build()
	p := MustParseBlock("S//r->x[.//a[./t]]")
	ws := p.MatchNaive(d)
	if len(ws) != 1 {
		t.Errorf("witnesses = %d, want 1 (existential dedup)", len(ws))
	}
}

// randomPattern generates a small random pattern over names a..d.
func randomPattern(rng *rand.Rand) *Pattern {
	names := []string{"a", "b", "c", "d"}
	varCount := 0
	var gen func(depth int) *PatternNode
	gen = func(depth int) *PatternNode {
		n := &PatternNode{
			Axis: Axis(rng.Intn(2)),
			Name: names[rng.Intn(len(names))],
		}
		if rng.Intn(2) == 0 {
			varCount++
			n.Var = fmt.Sprintf("v%d", varCount)
		}
		if depth < 3 {
			for i := 0; i < rng.Intn(3); i++ {
				n.Children = append(n.Children, gen(depth+1))
			}
		}
		return n
	}
	root := gen(0)
	root.Axis = Descendant
	if root.Var == "" {
		root.Var = "v0"
	}
	p := &Pattern{Stream: "S", Root: root}
	p.finalize()
	return p
}

func TestRandomPatternStringRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		p := randomPattern(rng)
		q, err := ParseBlock(p.String())
		if err != nil {
			t.Fatalf("round trip %q: %v", p.String(), err)
		}
		if p.CanonicalKey() != q.CanonicalKey() {
			t.Fatalf("canonical key changed for %q", p.String())
		}
		if !reflect.DeepEqual(varNames(p), varNames(q)) {
			t.Fatalf("vars changed for %q: %v vs %v", p.String(), varNames(p), varNames(q))
		}
	}
}
