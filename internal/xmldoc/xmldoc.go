// Package xmldoc provides the XML document model used throughout the MMQJP
// system: documents with pre-order node identifiers, XPath string values,
// stream timestamps, and parsing from XML text.
//
// The model follows the paper's conventions (Figures 1 and 2): each element
// node receives an id defined by pre-order traversal of the XML tree, and
// the string value of a node is the XPath string value, i.e. the
// concatenation of all descendant text in document order.
//
// ParseString is a scanner written for the XML the wire carries (scan.go);
// ParseInto is the same parse into an earlier document's storage.
// It accepts what encoding/xml's strict decoder accepts, with the same
// node table, within this subset: UTF-8 input; one root element; elements
// and attributes, whose names are ASCII XML names, reduced to the local part
// after a namespace prefix; namespace declarations (xmlns and xmlns:p
// attributes), which are dropped; character data and CDATA sections, both
// text of the enclosing element, with CR LF and lone CR read as LF; the five
// predefined entities and decimal or hexadecimal character references;
// comments, processing instructions, an XML declaration naming version 1.0
// and UTF-8 (or neither), and character data outside the root element, all
// skipped. Malformed input is rejected with an "xmldoc:" error at the byte
// offset where the scan stopped. So are these well-formed constructs, which
// encoding/xml accepts and the scanner does not:
//
//   - a document type declaration or any other "<!" markup declaration
//     besides comments and CDATA;
//   - a non-ASCII character in an element, attribute or processing-
//     instruction name;
//   - a character reference to a surrogate, U+D800 to U+DFFF (encoding/xml
//     reads it as U+FFFD);
//   - a namespace declaration binding a prefix to the name "xmlns"
//     (encoding/xml drops the attributes in that namespace);
//   - elements nested more than 10 000 deep.
//
// The test files hold encoding/xml's tree builder, which ParseString
// replaced, as the reference the differential tests and the fuzz target
// FuzzParseMatchesStdlib hold it to.
package xmldoc

import (
	"encoding/xml"
	"sort"
	"strings"

	"repro/internal/sym"
)

// NodeID identifies a node within a single document by its pre-order index.
type NodeID int32

// DocID identifies a document within a stream. Document ids are assigned by
// the stream source (or the engine) and are strictly increasing.
type DocID int64

// Timestamp is the event time of a document, in arbitrary integer units
// (the paper's T window parameters are expressed in the same units).
type Timestamp int64

// NodeKind distinguishes element nodes from attribute nodes. Text content is
// not modeled as separate nodes; it is folded into the string values of its
// ancestors, matching the paper's leaf-value treatment.
type NodeKind uint8

const (
	// ElementNode is a regular XML element.
	ElementNode NodeKind = iota
	// AttributeNode is an XML attribute; it is always a leaf and its
	// string value is the attribute value.
	AttributeNode
)

// Node is a single node of a parsed document.
type Node struct {
	ID   NodeID
	Kind NodeKind
	Name string // element tag or attribute name
	// Sym is the interned symbol of the node's NFA transition label: the
	// element name, or "@"+name for attributes (internal/sym). It is
	// assigned at build/parse time so Stage-1 matching never touches the
	// name string.
	Sym      sym.ID
	Parent   NodeID // -1 for the root
	Children []NodeID
	Depth    int32 // root is depth 0

	// text is the directly-contained character data of this node
	// (attribute value for attributes). The full XPath string value is
	// computed over the subtree; see Document.StringValue.
	text string
}

// Document is an immutable parsed XML document with stream metadata. Its
// methods only read it, so any number of goroutines may call them at once.
type Document struct {
	ID        DocID
	Timestamp Timestamp
	Nodes     []Node // indexed by NodeID

	// slab is the storage the Children lists of a parsed document are
	// carved from, kept for the next ParseInto.
	slab []NodeID
}

// Root returns the id of the document's root element (always 0).
func (d *Document) Root() NodeID { return 0 }

// Node returns the node with the given id. It panics on out-of-range ids,
// which indicate a cross-document confusion bug.
func (d *Document) Node(id NodeID) *Node { return &d.Nodes[id] }

// Len returns the number of nodes in the document.
func (d *Document) Len() int { return len(d.Nodes) }

// StringValue returns the XPath string value of the node: for attributes the
// attribute value, for elements their own text followed by their element
// children's string values in child order — the concatenation of the text of
// the element subtree in pre-order. An attribute's or a leaf element's value
// is its text, returned without allocating. An interior element's value is
// built on every call: nothing is memoized, so concurrent readers of one
// document write nothing shared.
func (d *Document) StringValue(id NodeID) string {
	n := &d.Nodes[id]
	if n.Kind == AttributeNode || d.IsLeaf(id) {
		return n.text
	}
	size := d.valueLen(id)
	if size == len(n.text) {
		return n.text // no descendant contributes text
	}
	var sb strings.Builder
	sb.Grow(size)
	d.writeValue(&sb, id)
	return sb.String()
}

// valueLen is the length of element id's string value.
func (d *Document) valueLen(id NodeID) int {
	n := &d.Nodes[id]
	size := len(n.text)
	for _, c := range n.Children {
		if d.Nodes[c].Kind == ElementNode {
			size += d.valueLen(c)
		}
	}
	return size
}

// writeValue writes element id's string value.
func (d *Document) writeValue(sb *strings.Builder, id NodeID) {
	n := &d.Nodes[id]
	sb.WriteString(n.text)
	for _, c := range n.Children {
		if d.Nodes[c].Kind == ElementNode {
			d.writeValue(sb, c)
		}
	}
}

// Text returns the directly-contained character data of the node (for
// attributes, the attribute value). Unlike StringValue it does not include
// descendant text.
func (d *Document) Text(id NodeID) string { return d.Nodes[id].text }

// IsLeaf reports whether the node has no element children.
func (d *Document) IsLeaf(id NodeID) bool {
	for _, c := range d.Nodes[id].Children {
		if d.Nodes[c].Kind == ElementNode {
			return false
		}
	}
	return true
}

// Builder constructs documents programmatically (used by workload generators
// and tests). Nodes must be added parent-first; the builder assigns pre-order
// ids in insertion order, which is the pre-order traversal order as long as
// children are added immediately after their subtree's preceding siblings.
type Builder struct {
	doc Document
}

// NewBuilder returns a builder for a document with the given stream metadata
// and a root element with the given name.
func NewBuilder(id DocID, ts Timestamp, rootName string) *Builder {
	b := &Builder{doc: Document{ID: id, Timestamp: ts}}
	b.doc.Nodes = append(b.doc.Nodes, Node{ID: 0, Kind: ElementNode, Name: rootName, Sym: sym.Intern(rootName), Parent: -1, Depth: 0})
	return b
}

// Element appends a child element under parent and returns its id.
// The optional text is the element's directly-contained character data.
func (b *Builder) Element(parent NodeID, name, text string) NodeID {
	id := NodeID(len(b.doc.Nodes))
	p := &b.doc.Nodes[parent]
	b.doc.Nodes = append(b.doc.Nodes, Node{
		ID: id, Kind: ElementNode, Name: name, Sym: sym.Intern(name), Parent: parent,
		Depth: p.Depth + 1, text: text,
	})
	b.doc.Nodes[parent].Children = append(b.doc.Nodes[parent].Children, id)
	return id
}

// Attribute appends an attribute node under parent and returns its id.
func (b *Builder) Attribute(parent NodeID, name, value string) NodeID {
	id := NodeID(len(b.doc.Nodes))
	p := &b.doc.Nodes[parent]
	b.doc.Nodes = append(b.doc.Nodes, Node{
		ID: id, Kind: AttributeNode, Name: name, Sym: sym.AttrIntern(name), Parent: parent,
		Depth: p.Depth + 1, text: value,
	})
	b.doc.Nodes[parent].Children = append(b.doc.Nodes[parent].Children, id)
	return id
}

// SetText replaces the directly-contained text of a node.
func (b *Builder) SetText(id NodeID, text string) { b.doc.Nodes[id].text = text }

// Build returns the document. The builder must not be reused.
func (b *Builder) Build() *Document { return &b.doc }

// XMLText serializes the document back to XML text (elements, attributes
// and direct text only). It is used for constructing query outputs.
func (d *Document) XMLText() string {
	var sb strings.Builder
	d.writeNode(&sb, d.Root())
	return sb.String()
}

func (d *Document) writeNode(sb *strings.Builder, id NodeID) {
	n := &d.Nodes[id]
	sb.WriteByte('<')
	sb.WriteString(n.Name)
	for _, c := range n.Children {
		cn := &d.Nodes[c]
		if cn.Kind == AttributeNode {
			// XML-escaped, not Go-quoted: xml.EscapeText escapes the
			// quote characters too, so the value is safe inside a
			// double-quoted attribute.
			sb.WriteByte(' ')
			sb.WriteString(cn.Name)
			sb.WriteString(`="`)
			xml.EscapeText(sb, []byte(cn.text))
			sb.WriteByte('"')
		}
	}
	sb.WriteByte('>')
	xml.EscapeText(sb, []byte(n.text))
	for _, c := range n.Children {
		if d.Nodes[c].Kind == ElementNode {
			d.writeNode(sb, c)
		}
	}
	sb.WriteString("</")
	sb.WriteString(n.Name)
	sb.WriteByte('>')
}

// Subtree returns the node ids of the subtree rooted at id, in pre-order.
func (d *Document) Subtree(id NodeID) []NodeID {
	out := []NodeID{id}
	for i := 0; i < len(out); i++ {
		out = append(out, d.Nodes[out[i]].Children...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ElementsByName returns the ids of all element nodes with the given name,
// in document order.
func (d *Document) ElementsByName(name string) []NodeID {
	var out []NodeID
	for i := range d.Nodes {
		if d.Nodes[i].Kind == ElementNode && d.Nodes[i].Name == name {
			out = append(out, NodeID(i))
		}
	}
	return out
}
