package xmldoc_test

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"repro/internal/xmldoc"
)

// parseStdlib is the encoding/xml tree builder ParseString replaced, kept as
// the reference it is held to: a strict decoder's tokens, attributes as
// AttributeNode children before element children (namespace declarations
// dropped), names reduced to their local part, character data appended to
// the innermost open element and trimmed of surrounding white space, and
// everything outside the root element ignored.
func parseStdlib(s string, id xmldoc.DocID, ts xmldoc.Timestamp) (*xmldoc.Document, error) {
	dec := xml.NewDecoder(strings.NewReader(s))
	var b *xmldoc.Builder
	var stack, elems []xmldoc.NodeID
	own := map[xmldoc.NodeID]string{}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmldoc: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			var nid xmldoc.NodeID
			if b == nil {
				b = xmldoc.NewBuilder(id, ts, t.Name.Local)
			} else {
				if len(stack) == 0 {
					return nil, fmt.Errorf("xmldoc: multiple root elements")
				}
				nid = b.Element(stack[len(stack)-1], t.Name.Local, "")
			}
			elems = append(elems, nid)
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				b.Attribute(nid, a.Name.Local, a.Value)
			}
			stack = append(stack, nid)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmldoc: unbalanced end element %q", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) > 0 {
				own[stack[len(stack)-1]] += string(t)
			}
		}
	}
	if b == nil {
		return nil, fmt.Errorf("xmldoc: empty document")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmldoc: unclosed elements")
	}
	for _, e := range elems {
		b.SetText(e, strings.TrimSpace(own[e]))
	}
	return b.Build(), nil
}

// diffDocuments describes the first difference between two node tables, or
// returns "" when every node's Kind, Name, Sym, Parent, Depth, Children,
// Text and StringValue agree.
func diffDocuments(got, want *xmldoc.Document) string {
	if got.ID != want.ID || got.Timestamp != want.Timestamp {
		return fmt.Sprintf("metadata (%d, %d), want (%d, %d)", got.ID, got.Timestamp, want.ID, want.Timestamp)
	}
	if got.Len() != want.Len() {
		return fmt.Sprintf("%d nodes, want %d", got.Len(), want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		id := xmldoc.NodeID(i)
		g, w := got.Node(id), want.Node(id)
		switch {
		case g.ID != w.ID || g.Kind != w.Kind || g.Name != w.Name || g.Sym != w.Sym || g.Parent != w.Parent || g.Depth != w.Depth:
			return fmt.Sprintf("node %d is %+v, want %+v", i, *g, *w)
		case fmt.Sprint(g.Children) != fmt.Sprint(w.Children):
			return fmt.Sprintf("node %d has children %v, want %v", i, g.Children, w.Children)
		case got.Text(id) != want.Text(id):
			return fmt.Sprintf("node %d has text %q, want %q", i, got.Text(id), want.Text(id))
		case got.StringValue(id) != want.StringValue(id):
			return fmt.Sprintf("node %d has string value %q, want %q", i, got.StringValue(id), want.StringValue(id))
		}
	}
	return ""
}
