// Package xpath implements the XPath tree-pattern fragment used by XSCL
// query blocks: child (/) and descendant (//) axes, attribute access (@),
// wildcard (*), nested predicates ([]), and XSCL's ->var binding extension.
//
// A query block such as
//
//	S//book->x1[.//author->x2][.//title->x3]
//
// parses into a Pattern: a tree of PatternNodes rooted at the block's output
// node, annotated with variable bindings. The package also provides a naive
// (brute force) matcher used as the correctness oracle for the shared
// yfilter engine, canonical variable naming, and root-to-leaf path
// decomposition for NFA construction.
package xpath

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/xmldoc"
)

// Axis is the relationship of a pattern node to its pattern parent.
type Axis uint8

const (
	// Child is the XPath / axis.
	Child Axis = iota
	// Descendant is the XPath // axis.
	Descendant
)

func (a Axis) String() string {
	if a == Child {
		return "/"
	}
	return "//"
}

// PatternNode is one node of a tree pattern.
type PatternNode struct {
	Axis     Axis   // axis connecting this node to its parent (the root's axis is relative to the document root context)
	Name     string // element/attribute name test, or "*" for the wildcard
	IsAttr   bool   // true for @name attribute tests
	Var      string // original variable name bound with ->var, or "" if unbound
	Children []*PatternNode

	// Index of this node in Pattern.Nodes (pre-order); set by finalize.
	Index int
	// Parent index in Pattern.Nodes, or -1 for the root.
	ParentIndex int
}

// Pattern is a complete tree pattern for one XSCL query block.
type Pattern struct {
	Stream string // name of the input stream the block reads
	Root   *PatternNode

	// Nodes lists all pattern nodes in pre-order. Nodes[0] == Root.
	Nodes []*PatternNode
	// VarNodes lists the indexes (into Nodes) of nodes bound to variables,
	// in pre-order.
	VarNodes []int
}

// finalize populates Nodes, VarNodes, Index and ParentIndex.
func (p *Pattern) finalize() {
	p.Nodes, p.VarNodes = p.Nodes[:0], p.VarNodes[:0]
	p.walk(p.Root, -1)
}

func (p *Pattern) walk(n *PatternNode, parent int) {
	n.Index = len(p.Nodes)
	n.ParentIndex = parent
	p.Nodes = append(p.Nodes, n)
	if n.Var != "" {
		p.VarNodes = append(p.VarNodes, n.Index)
	}
	for _, c := range n.Children {
		p.walk(c, n.Index)
	}
}

// VarNode returns the pattern node bound to the given original variable
// name, or nil if the variable is not bound in this pattern.
func (p *Pattern) VarNode(name string) *PatternNode {
	for _, idx := range p.VarNodes {
		if p.Nodes[idx].Var == name {
			return p.Nodes[idx]
		}
	}
	return nil
}

// CanonicalVar returns the canonical system-wide name of the variable bound
// at pattern node n: the stream name followed by the structural definition
// path (axis and name test of every step from the block root to n). Two
// variables in any two queries receive equal canonical names exactly when
// their definitions are identical, implementing the paper's assumption that
// identically-defined variables share a name.
func (p *Pattern) CanonicalVar(n *PatternNode) string { return p.canonicalNames()[n.Index] }

// CanonicalVars returns canonical names for all bound variables, parallel to
// VarNodes.
func (p *Pattern) CanonicalVars() []string {
	names := p.canonicalNames()
	out := make([]string, len(p.VarNodes))
	for i, idx := range p.VarNodes {
		out[i] = names[idx]
	}
	return out
}

// canonicalNames returns every node's canonical name, built in one pre-order
// pass: a node's name is its parent's followed by its own step.
func (p *Pattern) canonicalNames() []string {
	names := make([]string, len(p.Nodes))
	for i, n := range p.Nodes {
		prefix := p.Stream
		if n.ParentIndex >= 0 {
			prefix = names[n.ParentIndex]
		}
		names[i] = string(appendStep([]byte(prefix), n, false))
	}
	return names
}

// String renders the pattern in XSCL block syntax. Children beyond the first
// path continuation are rendered as predicates.
func (p *Pattern) String() string {
	var sb strings.Builder
	sb.WriteString(p.Stream)
	writePatternNode(&sb, p.Root)
	return sb.String()
}

func writePatternNode(sb *strings.Builder, n *PatternNode) {
	sb.WriteString(n.Axis.String())
	if n.IsAttr {
		sb.WriteByte('@')
	}
	sb.WriteString(n.Name)
	if n.Var != "" {
		sb.WriteString("->")
		sb.WriteString(n.Var)
	}
	for _, c := range n.Children {
		sb.WriteByte('[')
		sb.WriteByte('.')
		writePatternNode(sb, c)
		sb.WriteByte(']')
	}
}

// CanonicalKey returns a canonical serialization of the pattern that is
// invariant under predicate (sibling) reordering and variable renaming
// (variables are replaced by their canonical definitions, which are
// position-derived). Patterns with equal keys match identical witnesses.
//
// A bound node's step starts with the marker "!", ahead of its axis, so fully
// bound encodings sort as they would unmarked: the key of a normalized
// pattern is the encoding NormalForm sorted its children on.
func (p *Pattern) CanonicalKey() string {
	var enc func(n *PatternNode) string
	enc = func(n *PatternNode) string {
		self := string(appendStep(nil, n, n.Var != ""))
		if len(n.Children) == 0 {
			return self
		}
		kids := make([]string, len(n.Children))
		for i, c := range n.Children {
			kids[i] = enc(c)
		}
		sort.Strings(kids)
		return self + "[" + strings.Join(kids, ",") + "]"
	}
	return p.Stream + "|" + enc(p.Root)
}

// Path is a root-to-leaf linear decomposition component of a pattern, used
// to build the shared NFA.
type Path struct {
	Steps []PathStep
	// NodeIndexes[i] is the index (into Pattern.Nodes) of the pattern node
	// matched by Steps[i].
	NodeIndexes []int
}

// PathStep is one location step of a linear path.
type PathStep struct {
	Axis   Axis
	Name   string
	IsAttr bool
}

// Decompose returns the root-to-leaf linear paths of the pattern, in
// pre-order of their leaves.
func (p *Pattern) Decompose() []Path {
	var out []Path
	var steps []PathStep
	var idxs []int
	var walk func(n *PatternNode)
	walk = func(n *PatternNode) {
		steps = append(steps, PathStep{Axis: n.Axis, Name: n.Name, IsAttr: n.IsAttr})
		idxs = append(idxs, n.Index)
		if len(n.Children) == 0 {
			out = append(out, Path{
				Steps:       append([]PathStep(nil), steps...),
				NodeIndexes: append([]int(nil), idxs...),
			})
		}
		for _, c := range n.Children {
			walk(c)
		}
		steps = steps[:len(steps)-1]
		idxs = idxs[:len(idxs)-1]
	}
	walk(p.Root)
	return out
}

// nodeTestMatches reports whether the pattern node's name test and kind
// accept the document node.
func nodeTestMatches(pn *PatternNode, dn *xmldoc.Node) bool {
	if pn.IsAttr != (dn.Kind == xmldoc.AttributeNode) {
		return false
	}
	return pn.Name == "*" || pn.Name == dn.Name
}

// Witness is one complete assignment of the pattern's bound variables to
// document nodes. Bindings is parallel to Pattern.VarNodes / Pattern.Vars.
type Witness struct {
	Bindings []xmldoc.NodeID
}

// key serializes a witness for deduplication.
func (w Witness) key() string {
	var sb strings.Builder
	for _, b := range w.Bindings {
		fmt.Fprintf(&sb, "%d.", b)
	}
	return sb.String()
}

// MatchNaive computes all witnesses of the pattern against the document by
// brute-force recursive embedding. It is exponential in pattern size and
// exists as a readable correctness oracle for the yfilter engine; production
// matching uses yfilter.Engine.
func (p *Pattern) MatchNaive(d *xmldoc.Document) []Witness {
	// assignment[i] is the document node assigned to pattern node i, or -1.
	assignment := make([]xmldoc.NodeID, len(p.Nodes))
	for i := range assignment {
		assignment[i] = -1
	}
	seen := map[string]bool{}
	var out []Witness

	var assign func(pi int) bool // returns false to prune nothing; collects at full assignment
	var emit func()
	emit = func() {
		w := Witness{Bindings: make([]xmldoc.NodeID, len(p.VarNodes))}
		for i, idx := range p.VarNodes {
			w.Bindings[i] = assignment[idx]
		}
		k := w.key()
		if !seen[k] {
			seen[k] = true
			out = append(out, w)
		}
	}
	assign = func(pi int) bool {
		if pi == len(p.Nodes) {
			emit()
			return true
		}
		pn := p.Nodes[pi]
		var candidates []xmldoc.NodeID
		if pn.ParentIndex < 0 {
			// Root pattern node: matched against any document node
			// (the stream context is the whole document; S//book
			// means any book element, S/book means the root only
			// if named book).
			for i := 0; i < d.Len(); i++ {
				dn := d.Node(xmldoc.NodeID(i))
				if !nodeTestMatches(pn, dn) {
					continue
				}
				if pn.Axis == Child && dn.Parent != -1 {
					continue // / from the stream context selects the root element
				}
				candidates = append(candidates, xmldoc.NodeID(i))
			}
		} else {
			parentDoc := assignment[pn.ParentIndex]
			if pn.Axis == Child {
				for _, c := range d.Node(parentDoc).Children {
					if nodeTestMatches(pn, d.Node(c)) {
						candidates = append(candidates, c)
					}
				}
			} else {
				for _, c := range d.Subtree(parentDoc) {
					if c == parentDoc {
						continue
					}
					if nodeTestMatches(pn, d.Node(c)) {
						candidates = append(candidates, c)
					}
				}
			}
		}
		for _, c := range candidates {
			assignment[pi] = c
			assign(pi + 1)
		}
		assignment[pi] = -1
		return true
	}
	assign(0)
	return out
}
