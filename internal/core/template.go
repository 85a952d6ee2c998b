package core

import (
	"fmt"
	"sort"
	"strings"
)

// TemplateID identifies a query template within a Processor.
type TemplateID int32

// Template is one equivalence class of queries: the canonical form of a
// reduced join graph. Node positions 0..N-1 are canonical; the structure
// below is expressed entirely in positions, so every member query maps onto
// it by construction.
type Template struct {
	ID  TemplateID
	Sig string // canonical signature (graph isomorphism invariant)

	N      int    // total number of nodes
	SideOf []Side // per position
	Parent []int  // per position; -1 for the two side roots
	VJ     [][2]int

	// LeftRoot and RightRoot are the positions of the side roots.
	LeftRoot, RightRoot int
	// SingleLeft/SingleRight report a side consisting of a single node
	// (the value join is on the side root itself); such sides use the
	// unary root-binding relation instead of a structural edge.
	SingleLeft, SingleRight bool

	// vecList holds the template's vector groups (cqplan.go) — the RT rows,
	// one per registered instance, grouped by distinct variable vector — in
	// no particular order; trie holds their vectors, its levels[l] the
	// position whose variable level l branches on.
	vecList []*vecGroup
	trie    vecTrie
	levels  []int

	// progs are the compiled conjunctive query in its two step orders,
	// witness-driven and RT-driven (cqplan.go), and runs counts the runs of
	// each; needRvj reports that some step reads the value-join pair
	// relation.
	progs   [2]*cqProgram
	runs    [2]int64
	needRvj bool

	// refs counts the live query instances registered on this template;
	// at zero the processor reclaims the template and everything it owns
	// (processor.go Unregister).
	refs int
}

// NewTemplateFromCanonical builds the template structure from a reduced join
// graph and its canonical order (as returned by Canonicalize).
func NewTemplateFromCanonical(sig string, red *JoinGraph, order []int) *Template {
	nl := len(red.LeftSide.Nodes)
	n := nl + len(red.RightSide.Nodes)
	pos := make([]int, n) // flattened node index -> canonical position
	for p, node := range order {
		pos[node] = p
	}
	t := &Template{Sig: sig, N: n, SideOf: make([]Side, n), Parent: make([]int, n)}
	for i, nd := range red.LeftSide.Nodes {
		p := pos[i]
		t.SideOf[p] = Left
		if nd.Parent >= 0 {
			t.Parent[p] = pos[nd.Parent]
		} else {
			t.Parent[p] = -1
			t.LeftRoot = p
		}
	}
	for i, nd := range red.RightSide.Nodes {
		p := pos[nl+i]
		t.SideOf[p] = Right
		if nd.Parent >= 0 {
			t.Parent[p] = pos[nl+nd.Parent]
		} else {
			t.Parent[p] = -1
			t.RightRoot = p
		}
	}
	for _, e := range red.VJ {
		t.VJ = append(t.VJ, [2]int{pos[e.L], pos[nl+e.R]})
	}
	sort.Slice(t.VJ, func(i, j int) bool {
		if t.VJ[i][0] != t.VJ[j][0] {
			return t.VJ[i][0] < t.VJ[j][0]
		}
		return t.VJ[i][1] < t.VJ[j][1]
	})
	t.SingleLeft = nl == 1
	t.SingleRight = n-nl == 1
	return t
}

// StructEdges returns the template's structural edges as (parent, child)
// position pairs, split by side.
func (t *Template) StructEdges(side Side) [][2]int {
	var out [][2]int
	for p := 0; p < t.N; p++ {
		if t.SideOf[p] == side && t.Parent[p] >= 0 {
			out = append(out, [2]int{t.Parent[p], p})
		}
	}
	return out
}

// Datalog renders the template's conjunctive query CQ_T (Section 4.4) in
// Datalog, for the xsclc inspector and documentation.
func (t *Template) Datalog() string {
	var body []string
	for k, e := range t.VJ {
		body = append(body,
			fmt.Sprintf("Rdoc(docid, n%d, s%d)", e[0], k),
			fmt.Sprintf("RdocW(n%d, s%d)", e[1], k))
	}
	for _, e := range t.StructEdges(Left) {
		body = append(body, fmt.Sprintf("Rbin(docid, v%d, v%d, n%d, n%d)", e[0], e[1], e[0], e[1]))
	}
	for _, e := range t.StructEdges(Right) {
		body = append(body, fmt.Sprintf("RbinW(v%d, v%d, n%d, n%d)", e[0], e[1], e[0], e[1]))
	}
	if t.SingleLeft {
		body = append(body, fmt.Sprintf("Rroot(docid, v%d, n%d)", t.LeftRoot, t.LeftRoot))
	}
	if t.SingleRight {
		body = append(body, fmt.Sprintf("RrootW(v%d, n%d)", t.RightRoot, t.RightRoot))
	}
	vars := make([]string, t.N)
	nodes := make([]string, t.N)
	for p := 0; p < t.N; p++ {
		vars[p] = fmt.Sprintf("v%d", p)
		nodes[p] = fmt.Sprintf("n%d", p)
	}
	body = append(body, fmt.Sprintf("RT(qid, %s, wl)", strings.Join(vars, ", ")))
	head := fmt.Sprintf("RoutT(qid, docid, %s, wl)", strings.Join(nodes, ", "))
	return head + " :- " + strings.Join(body, ", ") + "."
}

// ExtractTemplate runs the full pipeline join graph -> minor -> canonical
// form and returns the reduced graph, the signature and the canonical order.
// It is the template-identity function used at query registration.
func ExtractTemplate(g *JoinGraph) (red *JoinGraph, sig string, order []int) {
	red = g.Minor()
	sig, order = Canonicalize(red)
	return red, sig, order
}
