package xmldoc

import "testing"

// FuzzParseDocument fuzzes the XML document parser. Properties:
//
//   - no panic on arbitrary input (the fuzzer's implicit check);
//   - every node's string value, computed on demand, equals the eager
//     oracle's (preorderValues);
//   - parse → print → parse stability: a successfully parsed document
//     serializes (XMLText) to well-formed XML that reparses to a document
//     of identical shape and identical serialization — printing is a
//     fixpoint after the parser's whitespace normalization, and escaping
//     (including the paper's "Scripting & Programming" ampersand case)
//     survives the round trip.
//
// The corpus seeds the paper's two figures (paperdocs.go) plus documents
// exercising attributes, escaping, mixed content and namespaces.
func FuzzParseDocument(f *testing.F) {
	f.Add(PaperD1(1, 100).XMLText())
	f.Add(PaperD2(2, 200).XMLText())
	for _, seed := range []string{
		"<r><l1>value-1</l1><l2>value-2</l2></r>",
		`<item id="7"><title>Scripting &amp; Programming</title></item>`,
		`<a x="1" y="&lt;&quot;&gt;"><b>t1<c>t2</c>t3</b></a>`,
		"<a>\n  <b>  spaced  </b>\n</a>",
		`<x:a xmlns:x="urn:demo"><x:b>v</x:b></x:a>`,
		"<a><b/><b></b></a>",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		d, err := ParseString(src, 1, 10)
		if err != nil {
			return
		}
		if diff := diffValues(d); diff != "" {
			t.Fatalf("%s (input %q)", diff, src)
		}
		p1 := d.XMLText()
		d2, err := ParseString(p1, 1, 10)
		if err != nil {
			t.Fatalf("serialized document does not reparse:\ninput: %q\nprint: %q\nerr: %v", src, p1, err)
		}
		if d2.Len() != d.Len() {
			t.Fatalf("round trip changed node count %d -> %d:\ninput: %q\nprint: %q", d.Len(), d2.Len(), src, p1)
		}
		for i := 0; i < d.Len(); i++ {
			a, b := d.Node(NodeID(i)), d2.Node(NodeID(i))
			if a.Kind != b.Kind || a.Name != b.Name || a.Parent != b.Parent {
				t.Fatalf("round trip changed node %d: %+v vs %+v (input %q)", i, a, b, src)
			}
			if d.StringValue(NodeID(i)) != d2.StringValue(NodeID(i)) {
				t.Fatalf("round trip changed string value of node %d: %q vs %q (input %q)",
					i, d.StringValue(NodeID(i)), d2.StringValue(NodeID(i)), src)
			}
		}
		if p2 := d2.XMLText(); p2 != p1 {
			t.Fatalf("print not a fixpoint:\ninput: %q\nprint1: %q\nprint2: %q", src, p1, p2)
		}
	})
}
