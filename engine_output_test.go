package mmqjp

import (
	"encoding/xml"
	"strings"
	"testing"

	"repro/internal/xmldoc"
)

// findAttrValue returns the value of the named attribute on the first
// element with the given name, or ok=false.
func findAttrValue(d *Document, elem, attr string) (string, bool) {
	for _, id := range d.ElementsByName(elem) {
		for _, c := range d.Node(id).Children {
			cn := d.Node(c)
			if cn.Kind == xmldoc.AttributeNode && cn.Name == attr {
				return d.StringValue(c), true
			}
		}
	}
	return "", false
}

// TestOutputXMLEscaping is the satellite bugfix check: OutputXML must emit
// well-formed XML for documents whose text and attribute values contain
// `&`, `<` and `"` (the paper's own test document carries the title
// "Scripting &amp; Programming") — previously those values were written raw
// (text) or Go-quoted (attributes) and the output did not parse.
func TestOutputXMLEscaping(t *testing.T) {
	const title = "Scripting & Programming"
	const author = `A<B "junior"`
	eng := New(Options{RetainDocuments: true})
	eng.MustSubscribe(
		"S//book->b[.//title->t][.//author->a] FOLLOWED BY{t=u AND a=c, 100} S//review->r[.//title->u][.//author->c]")

	book := `<book id="a&amp;b" note="say &#34;hi&#34; &lt;now&gt;">` +
		`<title>Scripting &amp; Programming</title>` +
		`<author>A&lt;B &#34;junior&#34;</author>` +
		`<blurb>1 &lt; 2 &amp;&amp; 3 &gt; 2</blurb></book>`
	review := `<review><title>Scripting &amp; Programming</title>` +
		`<author>A&lt;B &#34;junior&#34;</author></review>`

	if ms, err := publishXML(eng, "S", book, 1, 1); err != nil || len(ms) != 0 {
		t.Fatalf("book publish: %v matches, err %v", ms, err)
	}
	ms, err := publishXML(eng, "S", review, 2, 2)
	if err != nil || len(ms) != 1 {
		t.Fatalf("review publish: %d matches, err %v (want 1 match)", len(ms), err)
	}
	out, ok := eng.OutputXML(ms[0])
	if !ok {
		t.Fatal("OutputXML not available with RetainDocuments")
	}
	// The emitted output must parse with encoding/xml.
	if err := xml.Unmarshal([]byte(out), new(struct{})); err != nil {
		t.Fatalf("OutputXML emitted unparseable XML: %v\noutput: %s", err, out)
	}
	// And round-trip: every special value survives a parse of the output.
	rt, err := ParseDocument(out, 99, 99)
	if err != nil {
		t.Fatalf("round-trip parse: %v\noutput: %s", err, out)
	}
	for _, elem := range []string{"title", "author"} {
		want := title
		if elem == "author" {
			want = author
		}
		ids := rt.ElementsByName(elem)
		if len(ids) == 0 {
			t.Fatalf("round-trip lost element %q\noutput: %s", elem, out)
		}
		for _, id := range ids {
			if got := rt.StringValue(id); got != want {
				t.Errorf("round-trip %s = %q, want %q", elem, got, want)
			}
		}
	}
	if got, ok := findAttrValue(rt, "book", "id"); !ok || got != "a&b" {
		t.Errorf("round-trip book/@id = %q ok=%v, want %q", got, ok, "a&b")
	}
	if got, ok := findAttrValue(rt, "book", "note"); !ok || got != `say "hi" <now>` {
		t.Errorf("round-trip book/@note = %q ok=%v, want %q", got, ok, `say "hi" <now>`)
	}
	if ids := rt.ElementsByName("blurb"); len(ids) != 1 || rt.StringValue(ids[0]) != "1 < 2 && 3 > 2" {
		t.Errorf("round-trip blurb lost its text: %v", ids)
	}
}

// TestOutputXMLCompositionEscaping checks the same property through a
// composition cascade: a derived document built from subtrees with special
// characters must render to parseable XML for downstream matches.
func TestOutputXMLCompositionEscaping(t *testing.T) {
	eng := New(Options{EnableComposition: true})
	// Two predicates on different branches keep the block roots (and their
	// attributes) in the derived document.
	eng.MustSubscribe("S//a->x[.//k->v][.//m->u] JOIN{v=w AND u=z, 1000} S//b->y[.//k->w][.//m->z] PUBLISH D")
	eng.MustSubscribe("D//result->r")

	if _, err := publishXML(eng, "S",
		`<a lang="C&amp;C++"><k>x &amp; y</k><m>p &lt; q</m></a>`, 1, 1); err != nil {
		t.Fatal(err)
	}
	ms, err := publishXML(eng, "S", `<b><k>x &amp; y</k><m>p &lt; q</m></b>`, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	var derived []Match
	for _, m := range ms {
		if m.Query == 1 {
			derived = append(derived, m)
		}
	}
	if len(derived) != 1 {
		t.Fatalf("composition produced %d downstream matches, want 1 (all: %v)", len(derived), ms)
	}
	out, ok := eng.OutputXML(derived[0])
	if !ok {
		t.Fatal("OutputXML unavailable for the derived match")
	}
	if err := xml.Unmarshal([]byte(out), new(struct{})); err != nil {
		t.Fatalf("derived OutputXML unparseable: %v\noutput: %s", err, out)
	}
	rt, err := ParseDocument(out, 99, 99)
	if err != nil {
		t.Fatalf("round-trip parse: %v\noutput: %s", err, out)
	}
	if !strings.Contains(rt.StringValue(rt.Root()), "x & y") {
		t.Errorf("derived output lost the joined value: %s", out)
	}
	if got, ok := findAttrValue(rt, "a", "lang"); !ok || got != "C&C++" {
		t.Errorf("derived output a/@lang = %q ok=%v, want %q", got, ok, "C&C++")
	}
}
