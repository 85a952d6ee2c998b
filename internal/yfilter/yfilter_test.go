package yfilter

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// Witnesses is Bindings copied out into one witness per assignment, which
// the tests compare with MatchNaive: what it returns survives the next call
// and Release.
func (r *MatchResult) Witnesses(id PatternID) []xpath.Witness {
	slab, n := r.Bindings(id)
	if n == 0 {
		return nil
	}
	nv := len(slab) / n
	bindings := slices.Clone(slab)
	ws := make([]xpath.Witness, n)
	for i := range ws {
		if nv > 0 {
			ws[i].Bindings = bindings[i*nv : (i+1)*nv : (i+1)*nv]
		}
	}
	return ws
}

func sortedWitnesses(ws []xpath.Witness) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = fmt.Sprint(w.Bindings)
	}
	sort.Strings(out)
	return out
}

func TestEnginePaperQ1(t *testing.T) {
	e := NewEngine()
	lhs := e.Register(xpath.MustParseBlock("S//book->x1[.//author->x2][.//title->x3]"))
	rhs := e.Register(xpath.MustParseBlock("S//blog->x4[.//author->x5][.//title->x6]"))

	d1 := xmldoc.PaperD1(1, 100)
	r := e.MatchDocument("S", d1)
	if got := sortedWitnesses(r.Witnesses(lhs)); !reflect.DeepEqual(got, []string{"[0 2 4]", "[0 3 4]"}) {
		t.Errorf("lhs witnesses on d1 = %v", got)
	}
	if got := r.Witnesses(rhs); len(got) != 0 {
		t.Errorf("rhs witnesses on d1 = %v", got)
	}

	d2 := xmldoc.PaperD2(2, 200)
	r2 := e.MatchDocument("S", d2)
	if got := sortedWitnesses(r2.Witnesses(rhs)); !reflect.DeepEqual(got, []string{"[0 2 3]"}) {
		t.Errorf("rhs witnesses on d2 = %v", got)
	}
}

func TestRegisterDeduplicates(t *testing.T) {
	e := NewEngine()
	a := e.Register(xpath.MustParseBlock("S//blog->x4[.//author->x5][.//title->x6]"))
	// Same pattern with different variable names and predicate order.
	b := e.Register(xpath.MustParseBlock("S//blog->y1[.//title->y3][.//author->y2]"))
	if a != b {
		t.Errorf("identical patterns got distinct ids %d, %d", a, b)
	}
	if e.NumPatterns() != 1 {
		t.Errorf("NumPatterns = %d", e.NumPatterns())
	}
}

func TestStreamSeparation(t *testing.T) {
	e := NewEngine()
	sa := e.Register(xpath.MustParseBlock("A//x->v"))
	e.Register(xpath.MustParseBlock("B//x->v"))

	b := xmldoc.NewBuilder(1, 0, "r")
	b.Element(0, "x", "t")
	d := b.Build()

	ra := e.MatchDocument("A", d)
	if len(ra.Witnesses(sa)) != 1 {
		t.Errorf("stream A did not match")
	}
	if r := e.MatchDocument("C", d); r != nil {
		t.Errorf("unknown stream returned non-nil result")
	}
}

func TestSharedPrefixStates(t *testing.T) {
	// Patterns sharing prefixes must share NFA states: registering many
	// patterns over the same prefix grows the state count sub-linearly.
	e := NewEngine()
	e.Register(xpath.MustParseBlock("S//a->v[.//b->w]"))
	n1 := len(e.streams["S"].states)
	e.Register(xpath.MustParseBlock("S//a->v[.//c->w]"))
	n2 := len(e.streams["S"].states)
	// Only the c branch is new: the //a prefix (2 states) is shared, so
	// the second registration adds at most 2 states (// state reuse + c).
	if n2-n1 > 2 {
		t.Errorf("second pattern added %d states, expected state sharing", n2-n1)
	}
}

func TestWildcardAndAttribute(t *testing.T) {
	e := NewEngine()
	p := e.Register(xpath.MustParseBlock("S//*->x[./@id->i]"))
	doc, err := xmldoc.ParseString(`<r><a id="1"><b>x</b></a><c id="2"/></r>`, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := e.MatchDocument("S", doc)
	if got := len(r.Witnesses(p)); got != 2 {
		t.Errorf("witnesses = %d, want 2", got)
	}
}

func TestChildAxisFromRoot(t *testing.T) {
	e := NewEngine()
	blog := e.Register(xpath.MustParseBlock("S/blog->x"))
	author := e.Register(xpath.MustParseBlock("S/author->x"))
	d := xmldoc.PaperD2(1, 0)
	r := e.MatchDocument("S", d)
	if len(r.Witnesses(blog)) != 1 {
		t.Errorf("S/blog should match the root")
	}
	if len(r.Witnesses(author)) != 0 {
		t.Errorf("S/author must not match a non-root element")
	}
}

func TestDescendantSelfNesting(t *testing.T) {
	// //a//a on nested a elements must produce all ancestor pairs.
	b := xmldoc.NewBuilder(1, 0, "a")
	a1 := b.Element(0, "a", "")
	b.Element(a1, "a", "")
	d := b.Build()
	e := NewEngine()
	p := e.Register(xpath.MustParseBlock("S//a->x[.//a->y]"))
	r := e.MatchDocument("S", d)
	got := sortedWitnesses(r.Witnesses(p))
	want := []string{"[0 1]", "[0 2]", "[1 2]"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("witnesses = %v, want %v", got, want)
	}
}

func TestExistentialSubtreeNotEnumerated(t *testing.T) {
	// A pattern with an unbound subtree yields one witness per bound
	// assignment regardless of how many embeddings the unbound part has.
	b := xmldoc.NewBuilder(1, 0, "r")
	for i := 0; i < 5; i++ {
		a := b.Element(0, "a", "")
		b.Element(a, "t", "v")
	}
	d := b.Build()
	e := NewEngine()
	p := e.Register(xpath.MustParseBlock("S//r->x[.//a[./t]]"))
	r := e.MatchDocument("S", d)
	if got := len(r.Witnesses(p)); got != 1 {
		t.Errorf("witnesses = %d, want 1", got)
	}
}

func TestNoMatchPrunesDescent(t *testing.T) {
	e := NewEngine()
	p := e.Register(xpath.MustParseBlock("S/nope->x"))
	d := xmldoc.PaperD1(1, 0)
	r := e.MatchDocument("S", d)
	if len(r.Witnesses(p)) != 0 {
		t.Errorf("unexpected match")
	}
}

// --- Property test: engine ≡ naive matcher on random patterns/documents ---

func randomDoc(rng *rand.Rand, n int) *xmldoc.Document {
	names := []string{"a", "b", "c", "d"}
	b := xmldoc.NewBuilder(1, 0, names[rng.Intn(len(names))])
	type frame struct{ id xmldoc.NodeID }
	open := []frame{{0}}
	for i := 1; i < n; i++ {
		// Random parent among currently "open" ancestors keeps the
		// construction in pre-order.
		for len(open) > 1 && rng.Intn(3) == 0 {
			open = open[:len(open)-1]
		}
		parent := open[len(open)-1].id
		var id xmldoc.NodeID
		if rng.Intn(8) == 0 {
			id = b.Attribute(parent, names[rng.Intn(len(names))], fmt.Sprint(rng.Intn(3)))
		} else {
			id = b.Element(parent, names[rng.Intn(len(names))], strings.Repeat("x", rng.Intn(2)))
			open = append(open, frame{id})
		}
		_ = id
	}
	return b.Build()
}

func randomPattern(rng *rand.Rand) *xpath.Pattern {
	names := []string{"a", "b", "c", "d", "*"}
	varCount := 0
	var gen func(depth int) *xpath.PatternNode
	gen = func(depth int) *xpath.PatternNode {
		n := &xpath.PatternNode{
			Axis: xpath.Axis(rng.Intn(2)),
			Name: names[rng.Intn(len(names))],
		}
		if n.Name != "*" && rng.Intn(6) == 0 {
			n.IsAttr = true
		}
		if rng.Intn(2) == 0 {
			varCount++
			n.Var = fmt.Sprintf("v%d", varCount)
		}
		if depth < 2 && !n.IsAttr {
			for i := 0; i < rng.Intn(3); i++ {
				n.Children = append(n.Children, gen(depth+1))
			}
		}
		return n
	}
	root := gen(0)
	root.IsAttr = false
	if root.Var == "" {
		root.Var = "v0"
	}
	p := &xpath.Pattern{Stream: "S", Root: root}
	q, err := xpath.ParseBlock(patternString(p))
	if err != nil {
		panic(err)
	}
	return q
}

// patternString renders without requiring finalize.
func patternString(p *xpath.Pattern) string {
	var sb strings.Builder
	sb.WriteString(p.Stream)
	var w func(n *xpath.PatternNode)
	w = func(n *xpath.PatternNode) {
		sb.WriteString(n.Axis.String())
		if n.IsAttr {
			sb.WriteByte('@')
		}
		sb.WriteString(n.Name)
		if n.Var != "" {
			sb.WriteString("->" + n.Var)
		}
		for _, c := range n.Children {
			sb.WriteString("[.")
			w(c)
			sb.WriteByte(']')
		}
	}
	w(p.Root)
	return sb.String()
}

func TestPropertyEngineMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		pat := randomPattern(rng)
		doc := randomDoc(rng, 2+rng.Intn(25))

		e := NewEngine()
		id := e.Register(pat)
		r := e.MatchDocument("S", doc)

		got := sortedWitnesses(r.Witnesses(id))
		want := sortedWitnesses(pat.MatchNaive(doc))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: pattern %q doc %s:\nengine %v\nnaive  %v",
				trial, pat.String(), doc.XMLText(), got, want)
		}
	}
}

func TestPropertyManyPatternsOneEngine(t *testing.T) {
	// Registering many patterns in one engine must not change any
	// pattern's witnesses (no cross-talk through shared states).
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		e := NewEngine()
		pats := make([]*xpath.Pattern, 12)
		ids := make([]PatternID, 12)
		for i := range pats {
			pats[i] = randomPattern(rng)
			ids[i] = e.Register(pats[i])
		}
		doc := randomDoc(rng, 2+rng.Intn(25))
		r := e.MatchDocument("S", doc)
		for i := range pats {
			got := sortedWitnesses(r.Witnesses(ids[i]))
			want := sortedWitnesses(e.Pattern(ids[i]).MatchNaive(doc))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d pattern %d %q:\nengine %v\nnaive  %v",
					trial, i, pats[i].String(), got, want)
			}
		}
	}
}

// TestDeepEpsSiblingRegression pins the fix for an aliasing bug in the old
// ε-closure: it extended its input slice in place (out := states; out =
// append(out, ...)), so when a parent's next-set had spare capacity, closing
// over one child's next-set could overwrite states a sibling subtree was
// still reading through the shared backing array. Deep chains of //-steps
// (each one an ε edge) over documents with wide sibling fan-out are exactly
// the shape that triggered it. The rewrite gives every document depth its
// own active-set slice, which this test locks in against the naive matcher.
func TestDeepEpsSiblingRegression(t *testing.T) {
	patterns := []string{
		"S//a->p[.//a->q[.//a->r]]",
		"S//a->x[.//b->y[.//c->z]]",
		"S//a->m[.//c->n]",
		"S//b->u[.//a->v]",
	}
	// A document whose root has many siblings, each a deep chain of a/b/c
	// elements, so every depth carries a large active set rich in
	// self-loop states and ε edges.
	b := xmldoc.NewBuilder(1, 0, "a")
	names := []string{"a", "b", "c"}
	for s := 0; s < 6; s++ {
		parent := b.Element(0, names[s%3], "")
		for d := 0; d < 8; d++ {
			parent = b.Element(parent, names[(s+d)%3], "")
		}
	}
	d := b.Build()

	e := NewEngine()
	ids := make([]PatternID, len(patterns))
	for i, ps := range patterns {
		ids[i] = e.Register(xpath.MustParseBlock(ps))
	}
	r := e.MatchDocument("S", d)
	for i, ps := range patterns {
		got := sortedWitnesses(r.Witnesses(ids[i]))
		want := sortedWitnesses(e.Pattern(ids[i]).MatchNaive(d))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("pattern %q:\nengine %v\nnaive  %v", ps, got, want)
		}
	}
}

// TestMatchResultReleaseReuse checks the MatchResult pool: a released
// result's scratch is recycled without leaking candidates or witnesses into
// the next document's result, and witnesses handed out before Release stay
// valid afterwards.
func TestMatchResultReleaseReuse(t *testing.T) {
	e := NewEngine()
	p := e.Register(xpath.MustParseBlock("S//book->x1[.//author->x2]"))
	d1 := xmldoc.PaperD1(1, 100)

	r1 := e.MatchDocument("S", d1)
	ws := r1.Witnesses(p)
	want := sortedWitnesses(ws)
	if len(want) == 0 {
		t.Fatal("test premise: pattern matches d1")
	}
	r1.Release()
	r1.Release() // double release is a no-op

	// The witnesses handed out before Release must be unaffected by a
	// subsequent match that reuses the pooled scratch.
	d2 := xmldoc.PaperD2(2, 200)
	r2 := e.MatchDocument("S", d2)
	if got := r2.Witnesses(p); len(got) != 0 {
		t.Errorf("reused result leaked candidates across documents: %v", got)
	}
	if got := sortedWitnesses(ws); !reflect.DeepEqual(got, want) {
		t.Errorf("witnesses mutated by pooled reuse: %v, want %v", got, want)
	}
	r2.Release()

	r3 := e.MatchDocument("S", d1)
	if got := sortedWitnesses(r3.Witnesses(p)); !reflect.DeepEqual(got, want) {
		t.Errorf("witnesses after reuse = %v, want %v", got, want)
	}
	r3.Release()
}

// TestSetLive checks the pattern-liveness control: a dead pattern stops
// collecting candidates (so it yields no witnesses), prefixes shared with a
// live pattern keep collecting for the live one, and a re-Register of a
// canonically equal pattern revives the dead one.
func TestSetLive(t *testing.T) {
	e := NewEngine()
	// The two patterns share the //book//author path prefix.
	a := e.Register(xpath.MustParseBlock("S//book->x1[.//author->x2]"))
	b := e.Register(xpath.MustParseBlock("S//book->y1[.//author->y2][.//title->y3]"))
	d1 := xmldoc.PaperD1(1, 100)

	wantA := sortedWitnesses(e.MatchDocument("S", d1).Witnesses(a))
	wantB := sortedWitnesses(e.MatchDocument("S", d1).Witnesses(b))
	if len(wantA) == 0 || len(wantB) == 0 {
		t.Fatalf("test premise: both patterns match d1 (%v, %v)", wantA, wantB)
	}

	e.SetLive(b, false)
	r := e.MatchDocument("S", d1)
	if got := r.Witnesses(b); len(got) != 0 {
		t.Errorf("dead pattern produced witnesses: %v", got)
	}
	if got := sortedWitnesses(r.Witnesses(a)); !reflect.DeepEqual(got, wantA) {
		t.Errorf("live pattern changed by sibling death: %v, want %v", got, wantA)
	}

	// Re-registering a canonically equal pattern revives it in place.
	if id := e.Register(xpath.MustParseBlock("S//book->z1[.//author->z2][.//title->z3]")); id != b {
		t.Fatalf("revived pattern got new id %d, want %d", id, b)
	}
	if got := sortedWitnesses(e.MatchDocument("S", d1).Witnesses(b)); !reflect.DeepEqual(got, wantB) {
		t.Errorf("revived pattern witnesses = %v, want %v", got, wantB)
	}
	// Idempotent toggles keep refcounts balanced.
	e.SetLive(b, true)
	e.SetLive(b, false)
	e.SetLive(b, false)
	e.SetLive(b, true)
	if got := sortedWitnesses(e.MatchDocument("S", d1).Witnesses(b)); !reflect.DeepEqual(got, wantB) {
		t.Errorf("witnesses after toggles = %v, want %v", got, wantB)
	}
}
