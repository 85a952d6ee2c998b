package xscl

import (
	"strings"
	"testing"
)

// leftCanonical and rightCanonical are the canonical names of predicate i's
// variables, "" for a variable its block does not bind.
func leftCanonical(q *Query, i int) string {
	if n := q.Left.VarNode(q.Preds[i].LeftVar); n != nil {
		return q.Left.CanonicalVar(n)
	}
	return ""
}

func rightCanonical(q *Query, i int) string {
	if n := q.Right.VarNode(q.Preds[i].RightVar); n != nil {
		return q.Right.CanonicalVar(n)
	}
	return ""
}

func TestParseQ1(t *testing.T) {
	q, err := Parse("S//book->x1[.//author->x2][.//title->x3] FOLLOWED BY{x2=x5 AND x3=x6, 100} S//blog->x4[.//author->x5][.//title->x6]")
	if err != nil {
		t.Fatal(err)
	}
	if q.Op != OpFollowedBy {
		t.Errorf("op = %v", q.Op)
	}
	if q.Window != 100 {
		t.Errorf("window = %d", q.Window)
	}
	if len(q.Preds) != 2 {
		t.Fatalf("preds = %d", len(q.Preds))
	}
	if q.Preds[0].LeftVar != "x2" || q.Preds[0].RightVar != "x5" {
		t.Errorf("pred 0 = %+v", q.Preds[0])
	}
	if l, r := leftCanonical(q, 0), rightCanonical(q, 0); l != "S//book//author" || r != "S//blog//author" {
		t.Errorf("canonical names %q, %q for %+v", l, r, q.Preds[0])
	}
	if q.Left.Root.Name != "book" || q.Right.Root.Name != "blog" {
		t.Errorf("blocks = %q, %q", q.Left.Root.Name, q.Right.Root.Name)
	}
}

func TestParseSelectFromPublish(t *testing.T) {
	q, err := Parse("SELECT * FROM S//a->x JOIN{x=y, INF} S//b->y PUBLISH out")
	if err != nil {
		t.Fatal(err)
	}
	if q.Op != OpJoin || q.Window != WindowInf || q.Publish != "out" {
		t.Errorf("q = %+v", q)
	}
}

func TestParseSingleBlock(t *testing.T) {
	q, err := Parse("blog")
	if err != nil {
		t.Fatal(err)
	}
	if q.Op != OpNone || q.Right != nil {
		t.Errorf("q = %+v", q)
	}
	if q.Left.Stream != "blog" {
		// "blog" alone is a stream selection: SELECT * FROM blog.
		t.Errorf("stream = %q", q.Left.Stream)
	}
}

func TestParsePredicateSwapped(t *testing.T) {
	// Predicate written right=left must be normalized.
	q, err := Parse("S//a->x FOLLOWED BY{y=x, 10} S//b->y")
	if err != nil {
		t.Fatal(err)
	}
	if q.Preds[0].LeftVar != "x" || q.Preds[0].RightVar != "y" {
		t.Errorf("pred = %+v", q.Preds[0])
	}
}

func TestParseNotNormalForm(t *testing.T) {
	// Both variables in the same block: rejected.
	if _, err := Parse("S//a->x[.//b->z] FOLLOWED BY{x=z, 10} S//c->y"); err == nil {
		t.Error("same-block predicate accepted")
	}
	if err := func() error {
		_, err := Parse("S//a->x FOLLOWED BY{x=nosuch, 10} S//c->y")
		return err
	}(); err == nil {
		t.Error("unknown variable accepted")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT x FROM S//a->v",             // non-* select
		"S//a->x FOLLOWED BY S//b->y",       // missing {pred, T}
		"S//a->x FOLLOWED BY{, 10} S//b->y", // empty predicate
		"S//a->x JOIN{x=y} S//b->y",         // missing window
		"S//a->x JOIN{x=y, 0} S//b->y",      // zero window
		"S//a->x JOIN{x=y, -5} S//b->y",     // negative window
		"S//a->x JOIN{x=y, 10} S//b->y garbage",
		"S//a->x JOIN{x=y, 10}", // missing right block
		"S//a->x PUBLISH",       // missing publish name
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, src := range []string{
		"S//book->x1[.//author->x2][.//title->x3] FOLLOWED BY{x2=x5 AND x3=x6, 100} S//blog->x4[.//author->x5][.//title->x6]",
		"S//a->x JOIN{x=y, INF} S//b->y PUBLISH out",
		"S//a->x JOIN{x=y, 42} S//b->y",
	} {
		q1 := MustParse(src)
		q2, err := Parse(q1.String())
		if err != nil {
			t.Fatalf("round trip of %q -> %q: %v", src, q1.String(), err)
		}
		if q1.String() != q2.String() {
			t.Errorf("round trip unstable:\n%q\n%q", q1.String(), q2.String())
		}
	}
}

func TestParseProgram(t *testing.T) {
	qs, err := ParseProgram(`
		S//a->x JOIN{x=y, 10} S//b->y;
		S//c->u FOLLOWED BY{u=v, 20} S//d->v;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 2 {
		t.Fatalf("queries = %d", len(qs))
	}
	if qs[0].Op != OpJoin || qs[1].Op != OpFollowedBy {
		t.Errorf("ops = %v %v", qs[0].Op, qs[1].Op)
	}
}

func TestPaperQueries(t *testing.T) {
	q1, q2, q3 := PaperQ1(100), PaperQ2(200), PaperQ3(300)
	if len(q1.Preds) != 2 || len(q2.Preds) != 2 || len(q3.Preds) != 2 {
		t.Fatalf("pred counts: %d %d %d", len(q1.Preds), len(q2.Preds), len(q3.Preds))
	}
	// Q1 and Q3 share the blog author definition on the RHS.
	if rightCanonical(q1, 0) != rightCanonical(q3, 0) {
		t.Errorf("blog author canonical names differ: %q vs %q",
			rightCanonical(q1, 0), rightCanonical(q3, 0))
	}
	// Q3 is a self-join: its LHS author and RHS author share the
	// canonical definition too.
	if leftCanonical(q3, 0) != rightCanonical(q3, 0) {
		t.Errorf("Q3 self-join canonical names differ")
	}
	// Q1 joins book author to blog author: different canonical names.
	if leftCanonical(q1, 0) == rightCanonical(q1, 0) {
		t.Errorf("book and blog author share a canonical name")
	}
	if !strings.Contains(q3.Source, "FOLLOWED BY") {
		t.Errorf("source not retained")
	}
}

func TestKeywordBoundary(t *testing.T) {
	// An element named JOINT must not be confused with the JOIN keyword.
	q, err := Parse("S//a->x JOIN{x=y, 10} S//JOINT->y")
	if err != nil {
		t.Fatal(err)
	}
	if q.Right.Root.Name != "JOINT" {
		t.Errorf("right root = %q", q.Right.Root.Name)
	}
}

func TestParseRowsWindow(t *testing.T) {
	q, err := Parse("S//a->x FOLLOWED BY{x=y, ROWS 25} S//b->y")
	if err != nil {
		t.Fatal(err)
	}
	if q.WindowKind != WindowCount || q.Window != 25 {
		t.Errorf("window = %d kind %d", q.Window, q.WindowKind)
	}
	// Round trip.
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("round trip %q: %v", q.String(), err)
	}
	if q2.WindowKind != WindowCount || q2.Window != 25 {
		t.Errorf("round trip window = %d kind %d", q2.Window, q2.WindowKind)
	}
	// Time windows stay the default.
	q3 := MustParse("S//a->x FOLLOWED BY{x=y, 25} S//b->y")
	if q3.WindowKind != WindowTime {
		t.Errorf("default window kind = %d", q3.WindowKind)
	}
	// ROWS requires a count.
	if _, err := Parse("S//a->x FOLLOWED BY{x=y, ROWS} S//b->y"); err == nil {
		t.Error("ROWS without count accepted")
	}
}
