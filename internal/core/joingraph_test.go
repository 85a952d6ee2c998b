package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/xscl"
)

func TestBuildJoinGraphQ1(t *testing.T) {
	q := xscl.PaperQ1(100)
	g, err := BuildJoinGraph(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.LeftSide.Nodes) != 3 || len(g.RightSide.Nodes) != 3 {
		t.Errorf("sides = %d, %d nodes", len(g.LeftSide.Nodes), len(g.RightSide.Nodes))
	}
	if len(g.VJ) != 2 {
		t.Errorf("vj = %d", len(g.VJ))
	}
	// The roots have two children each.
	for _, s := range []SideGraph{g.LeftSide, g.RightSide} {
		kids := 0
		for _, n := range s.Nodes {
			if n.Parent == 0 {
				kids++
			}
		}
		if kids != 2 {
			t.Errorf("root children = %d", kids)
		}
	}
}

func TestBuildJoinGraphDeduplicatesPredicates(t *testing.T) {
	q := xscl.MustParse("S//a->x[.//b->y] FOLLOWED BY{y=z AND y=z, 10} S//c->w[.//d->z]")
	g, err := BuildJoinGraph(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.VJ) != 1 {
		t.Errorf("vj = %d, want 1 after dedup", len(g.VJ))
	}
}

func TestBuildJoinGraphRejectsSingleBlock(t *testing.T) {
	if _, err := BuildJoinGraph(xscl.MustParse("S//a->x")); err == nil {
		t.Error("single-block query accepted")
	}
}

func TestMinorQ1(t *testing.T) {
	q := xscl.PaperQ1(100)
	g, _ := BuildJoinGraph(q)
	red := g.Minor()
	// Q1's join graph is already fully reduced: root + 2 vj leaves per
	// side (Figure 5's template shape).
	if len(red.LeftSide.Nodes) != 3 || len(red.RightSide.Nodes) != 3 {
		t.Errorf("reduced sides = %d, %d", len(red.LeftSide.Nodes), len(red.RightSide.Nodes))
	}
	if len(red.VJ) != 2 {
		t.Errorf("vj = %d", len(red.VJ))
	}
}

func TestMinorRemovesNonJoinLeaves(t *testing.T) {
	// The title leaf participates in no value join and must be removed.
	q := xscl.MustParse("S//book->x1[.//author->x2][.//title->x3] FOLLOWED BY{x2=x5, 10} S//blog->x4[.//author->x5]")
	g, _ := BuildJoinGraph(q)
	red := g.Minor()
	// The title leaf is removed; the LCA of the single remaining vj leaf
	// is the leaf itself, so each side reduces to one node (handled by
	// the unary root-binding relation in the Join Processor).
	if len(red.LeftSide.Nodes) != 1 {
		t.Errorf("left reduced = %d nodes, want 1", len(red.LeftSide.Nodes))
	}
	if red.LeftSide.Nodes[0].PatternNode.Var != "x2" {
		t.Errorf("left reduced node = %q, want x2", red.LeftSide.Nodes[0].PatternNode.Var)
	}
	if len(red.RightSide.Nodes) != 1 {
		t.Errorf("right reduced = %d nodes, want 1", len(red.RightSide.Nodes))
	}
}

func TestMinorSplicesSingleChildChains(t *testing.T) {
	// a//b//c->x: b is a single-child intermediate; the LCA of the single
	// vj leaf set {c} is c itself, so the left side reduces to c alone.
	q := xscl.MustParse("S//a->x0[.//b->x1[.//c->x2]] FOLLOWED BY{x2=y, 10} S//d->y0[.//e->y]")
	g, _ := BuildJoinGraph(q)
	red := g.Minor()
	if len(red.LeftSide.Nodes) != 1 {
		t.Errorf("left reduced = %d nodes, want 1 (LCA descent to the leaf)", len(red.LeftSide.Nodes))
	}
	if red.LeftSide.Nodes[0].PatternNode.Var != "x2" {
		t.Errorf("left reduced root = %q", red.LeftSide.Nodes[0].PatternNode.Var)
	}
}

func TestMinorKeepsLCABranchNode(t *testing.T) {
	// Two vj leaves under the same intermediate node: the intermediate is
	// their LCA and becomes the reduced root; the original root is gone.
	q := xscl.MustParse("S//r->x0[.//m->x1[.//a->x2][.//b->x3]] FOLLOWED BY{x2=y1 AND x3=y2, 10} S//s->y0[.//c->y1][.//d->y2]")
	g, _ := BuildJoinGraph(q)
	red := g.Minor()
	if len(red.LeftSide.Nodes) != 3 {
		t.Fatalf("left reduced = %d nodes, want 3", len(red.LeftSide.Nodes))
	}
	if red.LeftSide.Nodes[0].PatternNode.Var != "x1" {
		t.Errorf("reduced root var = %q, want x1 (the LCA)", red.LeftSide.Nodes[0].PatternNode.Var)
	}
}

func TestMinorUnboundLCARetained(t *testing.T) {
	// The LCA m is unbound; reduction must still retain it (canonical
	// name is structural, not variable-based).
	q := xscl.MustParse("S//r->x0[.//m[.//a->x2][.//b->x3]] FOLLOWED BY{x2=y1 AND x3=y2, 10} S//s->y0[.//c->y1][.//d->y2]")
	g, _ := BuildJoinGraph(q)
	red := g.Minor()
	if len(red.LeftSide.Nodes) != 3 {
		t.Fatalf("left reduced = %d nodes, want 3", len(red.LeftSide.Nodes))
	}
	if lca := red.LeftSide.Nodes[0].PatternNode; lca.Name != "m" || red.LeftSide.Pattern.CanonicalVar(lca) != "S//r//m" {
		t.Errorf("reduced root is %q, canonical name %q", lca.Name, red.LeftSide.Pattern.CanonicalVar(lca))
	}
}

func TestTemplateQ1Q2Q3Shared(t *testing.T) {
	// The paper's central example: Q1, Q2 and Q3 share one template
	// (Figure 5) despite different tree patterns and variables.
	sigs := map[string]bool{}
	for _, q := range []*xscl.Query{xscl.PaperQ1(1), xscl.PaperQ2(2), xscl.PaperQ3(3)} {
		g, err := BuildJoinGraph(q)
		if err != nil {
			t.Fatal(err)
		}
		_, sig, _ := ExtractTemplate(g)
		sigs[sig] = true
	}
	if len(sigs) != 1 {
		t.Errorf("Q1,Q2,Q3 produced %d templates, want 1", len(sigs))
	}
}

func TestTemplateAxisIrrelevant(t *testing.T) {
	// Structural axes differ but the reduced graphs are isomorphic.
	a := xscl.MustParse("S//a->x[.//b->y] FOLLOWED BY{y=z, 10} S//c->w[.//d->z]")
	b := xscl.MustParse("S//e->x[./f->y] FOLLOWED BY{y=z, 10} S//g->w[./h->z]")
	ga, _ := BuildJoinGraph(a)
	gb, _ := BuildJoinGraph(b)
	_, sa, _ := ExtractTemplate(ga)
	_, sb, _ := ExtractTemplate(gb)
	if sa != sb {
		t.Errorf("axis choice changed the template")
	}
}

func TestTemplateDirectionMatters(t *testing.T) {
	// 1 left leaf joined to 2 right leaves vs 2 left to 1 right:
	// different templates (FOLLOWED BY is asymmetric).
	a := xscl.MustParse("S//a->x FOLLOWED BY{x=y1 AND x=y2, 10} S//b->r[.//c->y1][.//d->y2]")
	b := xscl.MustParse("S//b->r[.//c->y1][.//d->y2] FOLLOWED BY{y1=x AND y2=x, 10} S//a->x")
	ga, _ := BuildJoinGraph(a)
	gb, _ := BuildJoinGraph(b)
	_, sa, _ := ExtractTemplate(ga)
	_, sb, _ := ExtractTemplate(gb)
	if sa == sb {
		t.Errorf("mirrored queries share a template")
	}
}

func TestTemplateWiringMatters(t *testing.T) {
	// Parallel wiring {a-c, b-d} vs fan wiring {a-c, a-d}: distinct.
	par := xscl.MustParse("S//r->x[.//a->a1][.//b->b1] FOLLOWED BY{a1=c1 AND b1=d1, 10} S//s->y[.//c->c1][.//d->d1]")
	fan := xscl.MustParse("S//r->x[.//a->a1][.//b->b1] FOLLOWED BY{a1=c1 AND a1=d1, 10} S//s->y[.//c->c1][.//d->d1]")
	gp, _ := BuildJoinGraph(par)
	gf, _ := BuildJoinGraph(fan)
	_, sp, _ := ExtractTemplate(gp)
	_, sf, _ := ExtractTemplate(gf)
	if sp == sf {
		t.Errorf("parallel and fan wiring share a template")
	}
	// But crossing {a-d, b-c} is isomorphic to parallel {a-c, b-d}.
	cross := xscl.MustParse("S//r->x[.//a->a1][.//b->b1] FOLLOWED BY{a1=d1 AND b1=c1, 10} S//s->y[.//c->c1][.//d->d1]")
	gc, _ := BuildJoinGraph(cross)
	_, sc, _ := ExtractTemplate(gc)
	if sc != sp {
		t.Errorf("crossing wiring should be isomorphic to parallel wiring")
	}
}

// TestTable3FlatSchemaTemplateCounts reproduces the flat-schema column of
// Table 3 by exhaustive enumeration: the number of distinct templates over
// all queries with k value joins on a two-level schema is 1, 3, 6, 16 for
// k = 1..4.
func TestTable3FlatSchemaTemplateCounts(t *testing.T) {
	want := map[int]int{1: 1, 2: 3, 3: 6, 4: 16}
	for k := 1; k <= 4; k++ {
		sigs := map[string]bool{}
		// Enumerate all assignments of k value joins to (left leaf,
		// right leaf) pairs with up to k leaves per side. Leaf
		// identities beyond their wiring role do not matter, so
		// enumerating endpoint indexes in 1..k suffices.
		lidx := make([]int, k)
		ridx := make([]int, k)
		var rec func(i int)
		rec = func(i int) {
			if i == k {
				q, ok := buildFlatQuery(lidx, ridx, k)
				if !ok {
					return
				}
				g, err := BuildJoinGraph(q)
				if err != nil {
					return
				}
				_, sig, _ := ExtractTemplate(g)
				sigs[sig] = true
				return
			}
			for l := 0; l < k; l++ {
				for r := 0; r < k; r++ {
					lidx[i], ridx[i] = l, r
					rec(i + 1)
				}
			}
		}
		rec(0)
		if len(sigs) != want[k] {
			t.Errorf("flat schema, %d value joins: %d templates, want %d", k, len(sigs), want[k])
		}
	}
}

// buildFlatQuery builds a two-level-schema query with the given value-join
// wiring: lidx[i]/ridx[i] are the left/right leaf indexes of join i.
func buildFlatQuery(lidx, ridx []int, k int) (*xscl.Query, bool) {
	// Leaves that appear in no join would be removed by reduction;
	// including them changes nothing, so only materialize used leaves.
	lhs := "S//r->v0"
	rhs := "S//r->w0"
	used := map[int]bool{}
	for _, l := range lidx {
		used[l] = true
	}
	for i := 0; i < k; i++ {
		if used[i] {
			lhs += fmt.Sprintf("[.//l%d->v%d]", i, i+1)
		}
	}
	usedR := map[int]bool{}
	for _, r := range ridx {
		usedR[r] = true
	}
	for i := 0; i < k; i++ {
		if usedR[i] {
			rhs += fmt.Sprintf("[.//l%d->w%d]", i, i+1)
		}
	}
	pred := ""
	seen := map[[2]int]bool{}
	for i := range lidx {
		if seen[[2]int{lidx[i], ridx[i]}] {
			continue // duplicate predicate: a different k
		}
		seen[[2]int{lidx[i], ridx[i]}] = true
		if pred != "" {
			pred += " AND "
		}
		pred += fmt.Sprintf("v%d=w%d", lidx[i]+1, ridx[i]+1)
	}
	if len(seen) != len(lidx) {
		return nil, false // would be a (k-1)-join query
	}
	return xscl.MustParse(lhs + " FOLLOWED BY{" + pred + ", 10} " + rhs), true
}

// TestPropertyCanonicalInvariantUnderPredicateOrder shuffles predicate and
// sibling order and checks the template signature is unchanged.
func TestPropertyCanonicalInvariantUnderPredicateOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		k := 1 + rng.Intn(4)
		lidx := make([]int, k)
		ridx := make([]int, k)
		perm := rng.Perm(k)
		for i := 0; i < k; i++ {
			lidx[i], ridx[i] = rng.Intn(k), rng.Intn(k)
		}
		q1, ok := buildFlatQuery(lidx, ridx, k)
		if !ok {
			continue
		}
		// Same wiring, predicates in permuted order.
		l2 := make([]int, k)
		r2 := make([]int, k)
		for i, pi := range perm {
			l2[i], r2[i] = lidx[pi], ridx[pi]
		}
		q2, ok := buildFlatQuery(l2, r2, k)
		if !ok {
			continue
		}
		g1, err := BuildJoinGraph(q1)
		if err != nil {
			continue
		}
		g2, err := BuildJoinGraph(q2)
		if err != nil {
			continue
		}
		_, s1, _ := ExtractTemplate(g1)
		_, s2, _ := ExtractTemplate(g2)
		if s1 != s2 {
			t.Fatalf("trial %d: predicate order changed template:\n%v %v\n%v %v",
				trial, lidx, ridx, l2, r2)
		}
	}
}

func TestDatalogRendering(t *testing.T) {
	q := xscl.PaperQ1(100)
	g, _ := BuildJoinGraph(q)
	red, sig, order := ExtractTemplate(g)
	tmpl := NewTemplateFromCanonical(sig, red, order)
	dl := tmpl.Datalog()
	if dl == "" {
		t.Fatal("empty datalog")
	}
	// The Figure-5 template has 2 value joins, 2+2 structural edges.
	if len(tmpl.VJ) != 2 {
		t.Errorf("vj = %d", len(tmpl.VJ))
	}
	if got := len(tmpl.StructEdges(Left)) + len(tmpl.StructEdges(Right)); got != 4 {
		t.Errorf("structural edges = %d, want 4", got)
	}
	if tmpl.SingleLeft || tmpl.SingleRight {
		t.Errorf("Q1 template has single-node sides: %+v", tmpl)
	}
}
