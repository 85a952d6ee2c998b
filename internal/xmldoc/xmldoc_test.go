package xmldoc

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestBuilderPreorderIDs(t *testing.T) {
	b := NewBuilder(1, 10, "root")
	a := b.Element(0, "a", "")
	b.Element(a, "b", "x")
	c := b.Element(0, "c", "")
	b.Element(c, "d", "y")
	d := b.Build()

	if d.Len() != 5 {
		t.Fatalf("len = %d, want 5", d.Len())
	}
	wantNames := []string{"root", "a", "b", "c", "d"}
	for i, n := range wantNames {
		if d.Node(NodeID(i)).Name != n {
			t.Errorf("node %d name = %q, want %q", i, d.Node(NodeID(i)).Name, n)
		}
	}
	if d.Node(2).Parent != 1 || d.Node(4).Parent != 3 {
		t.Errorf("parent links wrong: %v %v", d.Node(2).Parent, d.Node(4).Parent)
	}
	if d.Node(2).Depth != 2 {
		t.Errorf("depth of node 2 = %d, want 2", d.Node(2).Depth)
	}
}

func TestStringValueConcatenation(t *testing.T) {
	b := NewBuilder(1, 0, "r")
	a := b.Element(0, "a", "hello ")
	b.Element(a, "b", "world")
	b.Element(0, "c", "!")
	d := b.Build()

	if got := d.StringValue(1); got != "hello world" {
		t.Errorf("StringValue(a) = %q, want %q", got, "hello world")
	}
	if got := d.StringValue(0); got != "hello world!" {
		t.Errorf("StringValue(root) = %q, want %q", got, "hello world!")
	}
	if got := d.StringValue(2); got != "world" {
		t.Errorf("StringValue(b) = %q", got)
	}
}

func TestAttributeStringValue(t *testing.T) {
	b := NewBuilder(1, 0, "r")
	at := b.Attribute(0, "id", "42")
	b.Element(0, "a", "text")
	d := b.Build()
	if got := d.StringValue(at); got != "42" {
		t.Errorf("attr string value = %q, want 42", got)
	}
	// Attributes do not contribute to the element string value.
	if got := d.StringValue(0); got != "text" {
		t.Errorf("root string value = %q, want %q", got, "text")
	}
}

func TestParseRoundTrip(t *testing.T) {
	src := `<book id="7"><author>Danny Ayers</author><title>RSS</title></book>`
	d, err := ParseString(src, 3, 99)
	if err != nil {
		t.Fatal(err)
	}
	if d.ID != 3 || d.Timestamp != 99 {
		t.Errorf("metadata = (%d,%d)", d.ID, d.Timestamp)
	}
	if d.Node(0).Name != "book" {
		t.Fatalf("root = %q", d.Node(0).Name)
	}
	// node 1 is the id attribute, nodes 2,3 are author/title.
	if d.Node(1).Kind != AttributeNode || d.Node(1).Name != "id" || d.StringValue(1) != "7" {
		t.Errorf("attribute node wrong: %+v", d.Node(1))
	}
	authors := d.ElementsByName("author")
	if len(authors) != 1 || d.StringValue(authors[0]) != "Danny Ayers" {
		t.Errorf("author = %v", authors)
	}
}

// TestXMLTextEscapesSpecialValues pins the serializer's escaping: text and
// attribute values containing &, <, > and " must survive an
// XMLText → Parse round trip (attributes were previously Go-quoted, which
// is not XML escaping).
func TestXMLTextEscapesSpecialValues(t *testing.T) {
	b := NewBuilder(1, 1, "book")
	b.Attribute(0, "id", `a&b "quoted" <tag>`)
	b.Element(0, "title", "Scripting & Programming")
	b.Element(0, "note", `1 < 2 && 3 > 2`)
	d := b.Build()

	rt, err := ParseString(d.XMLText(), 2, 2)
	if err != nil {
		t.Fatalf("XMLText did not round-trip: %v\noutput: %s", err, d.XMLText())
	}
	if got := rt.StringValue(1); rt.Node(1).Kind != AttributeNode || got != `a&b "quoted" <tag>` {
		t.Errorf("attribute round-trip = %q (%+v)", got, rt.Node(1))
	}
	if ids := rt.ElementsByName("title"); len(ids) != 1 || rt.StringValue(ids[0]) != "Scripting & Programming" {
		t.Errorf("title round-trip = %v", ids)
	}
	if ids := rt.ElementsByName("note"); len(ids) != 1 || rt.StringValue(ids[0]) != "1 < 2 && 3 > 2" {
		t.Errorf("note round-trip = %v", ids)
	}
}

func TestParseIgnoresIndentationWhitespace(t *testing.T) {
	src := "<r>\n  <a>x</a>\n  <b>y</b>\n</r>"
	d, err := ParseString(src, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.StringValue(0); got != "xy" {
		t.Errorf("root string value = %q, want xy", got)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{"", "<a><b></a></b>", "not xml at all <"} {
		if _, err := ParseString(src, 1, 0); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", src)
		}
	}
}

func TestIsLeaf(t *testing.T) {
	b := NewBuilder(1, 0, "r")
	a := b.Element(0, "a", "")
	b.Attribute(a, "k", "v")
	d := b.Build()
	if !d.IsLeaf(a) {
		t.Errorf("element with only attribute children should be a leaf")
	}
	if d.IsLeaf(0) {
		t.Errorf("root has element child, not a leaf")
	}
}

func TestSubtree(t *testing.T) {
	b := NewBuilder(1, 0, "r")
	a := b.Element(0, "a", "")
	b.Element(a, "b", "")
	b.Element(0, "c", "")
	d := b.Build()
	got := d.Subtree(a)
	if len(got) != 2 || got[0] != a || got[1] != a+1 {
		t.Errorf("Subtree(a) = %v", got)
	}
	if got := d.Subtree(0); len(got) != 4 {
		t.Errorf("Subtree(root) = %v", got)
	}
}

func TestPaperDocuments(t *testing.T) {
	d1 := PaperD1(1, 100)
	d2 := PaperD2(2, 200)

	// Node ids as printed in Figures 1 and 2.
	if got := d1.StringValue(2); got != "Andrew Watt" {
		t.Errorf("d1 node 2 = %q", got)
	}
	if got := d1.StringValue(3); got != "Danny Ayers" {
		t.Errorf("d1 node 3 = %q", got)
	}
	if got := d1.StringValue(4); got != "Beginning RSS and Atom Programming" {
		t.Errorf("d1 node 4 = %q", got)
	}
	if got := d2.StringValue(2); got != "Danny Ayers" {
		t.Errorf("d2 node 2 = %q", got)
	}
	if got := d2.StringValue(3); got != "Beginning RSS and Atom Programming" {
		t.Errorf("d2 node 3 = %q", got)
	}
	if d1.Node(0).Name != "book" || d2.Node(0).Name != "blog" {
		t.Errorf("roots: %q %q", d1.Node(0).Name, d2.Node(0).Name)
	}
}

func TestMarshalXMLRoundTrip(t *testing.T) {
	d1 := PaperD1(1, 100)
	text := d1.XMLText()
	d1b, err := ParseString(text, 1, 100)
	if err != nil {
		t.Fatalf("re-parse: %v (text %q)", err, text)
	}
	if d1b.Len() != d1.Len() {
		t.Fatalf("round trip node count %d != %d", d1b.Len(), d1.Len())
	}
	for i := 0; i < d1.Len(); i++ {
		if d1.Node(NodeID(i)).Name != d1b.Node(NodeID(i)).Name {
			t.Errorf("node %d name %q != %q", i, d1.Node(NodeID(i)).Name, d1b.Node(NodeID(i)).Name)
		}
		if d1.StringValue(NodeID(i)) != d1b.StringValue(NodeID(i)) {
			t.Errorf("node %d strval %q != %q", i, d1.StringValue(NodeID(i)), d1b.StringValue(NodeID(i)))
		}
	}
}

// randomDoc builds a random tree with n nodes for property tests.
func randomDoc(rng *rand.Rand, n int) *Document {
	b := NewBuilder(1, 0, "n0")
	for i := 1; i < n; i++ {
		parent := NodeID(rng.Intn(i))
		b.Element(parent, "n"+string(rune('a'+rng.Intn(4))), strings.Repeat("x", rng.Intn(3)))
	}
	return b.Build()
}

func TestPropertyPreorderParentSmaller(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomDoc(rng, 2+rng.Intn(40))
		for i := 1; i < d.Len(); i++ {
			n := d.Node(NodeID(i))
			if n.Parent >= NodeID(i) {
				return false
			}
			if d.Node(n.Parent).Depth+1 != n.Depth {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyStringValueIsDescendantConcat(t *testing.T) {
	// The string value of any node equals the concatenation of the
	// direct text of all subtree nodes in child (document) order.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomDoc(rng, 2+rng.Intn(30))
		var concat func(id NodeID, sb *strings.Builder)
		concat = func(id NodeID, sb *strings.Builder) {
			sb.WriteString(d.Node(id).text)
			for _, c := range d.Node(id).Children {
				concat(c, sb)
			}
		}
		for i := 0; i < d.Len(); i++ {
			var sb strings.Builder
			concat(NodeID(i), &sb)
			if d.StringValue(NodeID(i)) != sb.String() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
