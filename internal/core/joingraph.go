// Package core implements the paper's primary contribution: Massively
// Multi-Query Join Processing (Sections 4 and 5).
//
// Queries are partitioned into equivalence classes by query template — the
// isomorphism class of the graph minor of the query's join graph — and one
// relational conjunctive query per template evaluates every member query at
// once against the witness relations produced by Stage 1 (the shared XPath
// evaluator). Section 5's view materialization (Rvj/RL/RR and the per-string
// view cache) is implemented as an optional processor mode.
package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/xpath"
	"repro/internal/xscl"
)

// Side distinguishes the two query blocks of a join query.
type Side uint8

const (
	// Left is the first (earlier, for FOLLOWED BY) block.
	Left Side = iota
	// Right is the second block.
	Right
)

// JGNode is one node of a join graph side tree. It references the pattern
// node it was derived from, so that reduced template nodes can be traced
// back to Stage-1 bindings.
type JGNode struct {
	PatternNode *xpath.PatternNode
	Parent      int // index within the side, -1 for the root
}

// SideGraph is the tree of one side of a join graph.
type SideGraph struct {
	// Pattern is the query block the side was derived from; its canonical
	// variable names label the nodes (String).
	Pattern *xpath.Pattern
	Nodes   []JGNode // Nodes[0] is the root
}

// VJEdge is a value-join edge between a left node and a right node
// (value-join normal form guarantees edges cross sides).
type VJEdge struct {
	L, R int // node indexes into the respective sides
}

// JoinGraph is the paper's join graph (Figure 4): two variable tree
// patterns plus value-join edges.
type JoinGraph struct {
	LeftSide, RightSide SideGraph
	VJ                  []VJEdge
}

// BuildJoinGraph constructs the join graph of a two-block query: each side
// tree mirrors the block's full tree pattern, and each equality predicate
// contributes one value-join edge. Duplicate predicates are dropped.
func BuildJoinGraph(q *xscl.Query) (*JoinGraph, error) {
	g := &JoinGraph{}
	if err := g.build(q); err != nil {
		return nil, err
	}
	return g, nil
}

// build is BuildJoinGraph into g's storage. A side's node i is its block's
// pattern node i: both are in pre-order.
func (g *JoinGraph) build(q *xscl.Query) error {
	if q.Op == xscl.OpNone {
		return fmt.Errorf("core: single-block query has no join graph")
	}
	g.LeftSide.mirror(q.Left)
	g.RightSide.mirror(q.Right)
	g.VJ = g.VJ[:0]
	for _, p := range q.Preds {
		ln := q.Left.VarNode(p.LeftVar)
		rn := q.Right.VarNode(p.RightVar)
		if ln == nil || rn == nil {
			return fmt.Errorf("core: predicate %s=%s references unbound variable", p.LeftVar, p.RightVar)
		}
		if e := (VJEdge{L: ln.Index, R: rn.Index}); !slices.Contains(g.VJ, e) {
			g.VJ = append(g.VJ, e)
		}
	}
	if len(g.VJ) == 0 {
		return fmt.Errorf("core: join query has no value joins")
	}
	return nil
}

// mirror copies the pattern tree into the side graph.
func (s *SideGraph) mirror(p *xpath.Pattern) {
	s.Pattern = p
	s.Nodes = s.Nodes[:0]
	for _, pn := range p.Nodes {
		s.Nodes = append(s.Nodes, JGNode{PatternNode: pn, Parent: pn.ParentIndex})
	}
}

// Minor applies the reduction rules of Section 4.2 to produce the join
// graph minor from which the query template is derived:
//
//  1. recursively remove leaf nodes that participate in no value join;
//  2. remove nodes outside the subtree rooted at the least common ancestor
//     of the remaining (value-join) leaves;
//  3. splice out intermediate nodes with a single child.
//
// When a side reduces to a single node (one value-join leaf, whose own LCA
// is itself), the reduced graph has no structural edge on that side from
// which the Join Processor could recover the leaf's variable identity; such
// sides are served by the unary root-binding relations Rroot/RrootW instead
// (see state.go and DESIGN.md).
//
// Each side's parents must precede their children, as BuildJoinGraph and
// Minor lay them out.
func (g *JoinGraph) Minor() *JoinGraph {
	out := &JoinGraph{}
	g.minorInto(out, &minorScratch{})
	return out
}

// minorScratch is Minor's working storage, indexed by node of the side being
// reduced; reused across registrations, a minor allocates nothing.
type minorScratch struct {
	vj   []bool   // the node has a value join
	keep []bool   // the node's subtree has a value join
	kept []int    // the node's children whose subtree has a value join
	m    [2][]int // per side: old node index -> reduced index, -1 if removed
}

// minorInto is Minor into out's storage.
func (g *JoinGraph) minorInto(out *JoinGraph, sc *minorScratch) {
	sc.reduceSide(&g.LeftSide, g.VJ, Left, &out.LeftSide)
	sc.reduceSide(&g.RightSide, g.VJ, Right, &out.RightSide)
	out.VJ = out.VJ[:0]
	for _, e := range g.VJ {
		out.VJ = append(out.VJ, VJEdge{L: sc.m[Left][e.L], R: sc.m[Right][e.R]})
	}
}

// reduceSide computes the reduced tree of one side into out and fills
// sc.m[side], the map from old node index to new node index.
func (sc *minorScratch) reduceSide(s *SideGraph, edges []VJEdge, side Side, out *SideGraph) {
	n := len(s.Nodes)
	sc.vj, sc.keep, sc.kept = resize(sc.vj, n), resize(sc.keep, n), resize(sc.kept, n)
	clear(sc.vj)
	clear(sc.kept)
	for _, e := range edges {
		if side == Left {
			sc.vj[e.L] = true
		} else {
			sc.vj[e.R] = true
		}
	}
	copy(sc.keep, sc.vj)
	for i := n - 1; i > 0; i-- {
		if sc.keep[i] {
			p := s.Nodes[i].Parent
			sc.keep[p] = true
			sc.kept[p]++
		}
	}
	// Rule 2: the new root is the LCA of all vj nodes: walk down from the
	// old root while exactly one child subtree contains vj nodes and the
	// current node is not itself a vj node.
	root := 0
	for !sc.vj[root] && sc.kept[root] == 1 {
		root = sc.nextKept(s, root, root)
	}
	sc.m[side] = resize(sc.m[side], n)
	for i := range sc.m[side] {
		sc.m[side][i] = -1
	}
	out.Pattern = s.Pattern
	out.Nodes = out.Nodes[:0]
	sc.build(s, side, out, root, root, -1)
}

// nextKept returns the first child of i after node from whose subtree has a
// value join, or -1.
func (sc *minorScratch) nextKept(s *SideGraph, i, from int) int {
	for c := from + 1; c < len(s.Nodes); c++ {
		if s.Nodes[c].Parent == i && sc.keep[c] {
			return c
		}
	}
	return -1
}

// build builds the reduced tree from old downward: children are the nearest
// retained descendants. A node is retained if it is the root, a vj node, or
// has ≥2 children subtrees containing vj nodes (it is an LCA).
func (sc *minorScratch) build(s *SideGraph, side Side, out *SideGraph, root, old, newParent int) {
	self := newParent // splice: children attach to the nearest retained ancestor
	if old == root || sc.vj[old] || sc.kept[old] >= 2 {
		self = len(out.Nodes)
		sc.m[side][old] = self
		out.Nodes = append(out.Nodes, JGNode{PatternNode: s.Nodes[old].PatternNode, Parent: newParent})
	}
	for c := sc.nextKept(s, old, old); c >= 0; c = sc.nextKept(s, old, c) {
		sc.build(s, side, out, root, c, self)
	}
}

// String renders the join graph for debugging and the xsclc inspector.
func (g *JoinGraph) String() string {
	var sb strings.Builder
	writeSide := func(label string, s *SideGraph) {
		fmt.Fprintf(&sb, "%s:\n", label)
		for i, n := range s.Nodes {
			indent := strings.Repeat("  ", depthOf(s, i))
			v := n.PatternNode.Var
			if v == "" {
				v = "(unbound)"
			}
			fmt.Fprintf(&sb, "  %s[%d] %s  canon=%s\n", indent, i, v, s.Pattern.CanonicalVar(n.PatternNode))
		}
	}
	writeSide("LHS", &g.LeftSide)
	writeSide("RHS", &g.RightSide)
	sb.WriteString("value joins:\n")
	for _, e := range g.VJ {
		fmt.Fprintf(&sb, "  L[%d] = R[%d]\n", e.L, e.R)
	}
	return sb.String()
}

func depthOf(s *SideGraph, i int) int {
	d := 0
	for p := s.Nodes[i].Parent; p >= 0; p = s.Nodes[p].Parent {
		d++
	}
	return d
}
