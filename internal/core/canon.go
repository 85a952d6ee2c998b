package core

import (
	"bytes"
	"slices"
	"strconv"
)

// Template identity is graph isomorphism of reduced join graphs. The graphs
// are small (two trees plus cross value-join edges, a dozen nodes at most),
// so we use textbook colour refinement with individualization backtracking:
// refine node colours to a fixed point; if classes remain non-singleton,
// individualize each member of the first tied class in turn and recurse;
// the canonical form is the lexicographically smallest serialization.
//
// The serialization orders nodes by final colour and lists, per node, its
// side, its parent's position and its value-join partners' positions; two
// reduced join graphs are isomorphic exactly when their canonical forms are
// equal.
//
// Everything runs on integers: a node's refinement signature is the tuple
// (colour, parent's colour, sorted children's and partners' colours), ranked
// as its decimal rendering "c|pP|[k k]|[v v]" sorts as a string (cmpSig), so
// signature and node order are frozen: templates are keyed by the signature
// (Processor.templates) and the order lays out every RT row.

// canonGraph is the flattened reduced join graph handed to the canonicalizer.
type canonGraph struct {
	n      int
	side   []uint8 // 0 = left, 1 = right
	parent []int   // -1 for side roots
	vj     [][]int // value-join adjacency (sorted)
	kids   [][]int
	// kc and vc hold, per node, the current colours of its children and of
	// its value-join partners, sorted (refine).
	kc, vc [][]int
}

// flatten merges the two sides of a reduced join graph into one node space:
// left nodes first, then right nodes.
func flatten(g *JoinGraph) *canonGraph {
	nl := len(g.LeftSide.Nodes)
	n := nl + len(g.RightSide.Nodes)
	cg := &canonGraph{
		n:      n,
		side:   make([]uint8, n),
		parent: make([]int, n),
		vj:     make([][]int, n),
		kids:   make([][]int, n),
		kc:     make([][]int, n),
		vc:     make([][]int, n),
	}
	for i, nd := range g.LeftSide.Nodes {
		cg.parent[i] = nd.Parent
	}
	for i, nd := range g.RightSide.Nodes {
		cg.side[nl+i] = 1
		cg.parent[nl+i] = -1
		if nd.Parent >= 0 {
			cg.parent[nl+i] = nl + nd.Parent
		}
	}
	for _, e := range g.VJ {
		cg.vj[e.L] = append(cg.vj[e.L], nl+e.R)
		cg.vj[nl+e.R] = append(cg.vj[nl+e.R], e.L)
	}
	for i := 0; i < n; i++ {
		slices.Sort(cg.vj[i])
		if p := cg.parent[i]; p >= 0 {
			cg.kids[p] = append(cg.kids[p], i)
		}
	}
	free := make([]int, n+2*len(g.VJ))
	for i := 0; i < n; i++ {
		k, v := len(cg.kids[i]), len(cg.vj[i])
		cg.kc[i], cg.vc[i], free = free[:k:k], free[k:k+v:k+v], free[k+v:]
	}
	return cg
}

// refine iterates colour refinement to a fixed point. The colour of a node
// combines its previous colour with the colour multisets of its parent,
// children and value-join partners. Colourings are dense (0..classes-1), so
// the same number of classes is the fixed point; refine takes ownership of
// colors and returns the refined colouring.
func (g *canonGraph) refine(colors []int) []int {
	next, idx := make([]int, g.n), make([]int, g.n)
	for {
		for i := 0; i < g.n; i++ {
			sortedColors(g.kc[i], g.kids[i], colors)
			sortedColors(g.vc[i], g.vj[i], colors)
			idx[i] = i
		}
		slices.SortFunc(idx, func(a, b int) int { return g.cmpSig(colors, a, b) })
		last := 0
		for k, i := range idx {
			if k > 0 && g.cmpSig(colors, idx[k-1], i) != 0 {
				last++
			}
			next[i] = last
		}
		if last == slices.Max(colors) {
			return next
		}
		colors, next = next, colors
	}
}

// sortedColors writes the colours of nodes into dst, ascending.
func sortedColors(dst, nodes, colors []int) {
	for j, v := range nodes {
		dst[j] = colors[v]
	}
	slices.Sort(dst)
}

// cmpSig orders nodes a and b by their refinement signatures under colors:
// as the strings "c|pP|[k k]|[v v]" compare, with c the node's colour, P its
// parent's ("-" for a side root), and the sorted colours of its children and
// of its value-join partners in brackets.
func (g *canonGraph) cmpSig(colors []int, a, b int) int {
	if c := cmpDecimal(colors[a], '|', colors[b], '|'); c != 0 {
		return c
	}
	switch pa, pb := g.parent[a], g.parent[b]; {
	case pa < 0 && pb < 0:
	case pa < 0:
		return -1 // '-' sorts before every digit
	case pb < 0:
		return 1
	default:
		if c := cmpDecimal(colors[pa], '|', colors[pb], '|'); c != 0 {
			return c
		}
	}
	if c := cmpList(g.kc[a], g.kc[b]); c != 0 {
		return c
	}
	return cmpList(g.vc[a], g.vc[b])
}

// cmpDecimal compares x and y written in decimal and each followed by its
// terminator byte, as strings. No terminator is a digit, so the comparison is
// decided inside these bytes unless they are equal.
func cmpDecimal(x int, tx byte, y int, ty byte) int {
	var bx, by [24]byte
	return bytes.Compare(
		append(strconv.AppendInt(bx[:0], int64(x), 10), tx),
		append(strconv.AppendInt(by[:0], int64(y), 10), ty))
}

// cmpList compares two lists as their renderings "[a b c]" compare: elements
// separated by ' ', which sorts before a digit, and closed by ']', which
// sorts after one.
func cmpList(a, b []int) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		ta, tb := byte(' '), byte(' ')
		if i == len(a)-1 {
			ta = ']'
		}
		if i == len(b)-1 {
			tb = ']'
		}
		if c := cmpDecimal(a[i], ta, b[i], tb); c != 0 || ta == ']' {
			return c
		}
	}
	// One list is empty: "[]" sorts after "[" and a digit.
	switch {
	case len(a) == len(b):
		return 0
	case len(a) == 0:
		return 1
	default:
		return -1
	}
}

// densify replaces each value by its rank among the distinct values, so
// colour ids are dense and isomorphism-invariant.
func densify(vals []int) {
	u := slices.Clone(vals)
	slices.Sort(u)
	u = slices.Compact(u)
	for i, v := range vals {
		vals[i], _ = slices.BinarySearch(u, v)
	}
}

// Canonicalize computes the canonical form of a reduced join graph: the
// canonical signature string (equal exactly for isomorphic graphs) and the
// canonical node order (position -> flattened node index, left nodes being
// 0..len(left)-1).
func Canonicalize(g *JoinGraph) (string, []int) {
	cg := flatten(g)
	init := make([]int, cg.n)
	for i := range init {
		// Initial colour: side and depth.
		init[i] = int(cg.side[i]) * 64
		for p := cg.parent[i]; p >= 0; p = cg.parent[p] {
			init[i]++
		}
	}
	densify(init)
	sig, order := cg.search(cg.refine(init))
	return string(sig), order
}

// search individualizes tied colour classes and returns the minimal
// serialization with its node order.
func (g *canonGraph) search(colors []int) ([]byte, []int) {
	// Find the first non-singleton class (smallest colour value).
	count := make([]int, g.n)
	for _, c := range colors {
		count[c]++
	}
	target := slices.IndexFunc(count, func(k int) bool { return k > 1 })
	if target == -1 {
		return g.serialize(colors)
	}
	var class []int
	for i, c := range colors {
		if c == target {
			class = append(class, i)
		}
	}
	var best []byte
	var bestOrder []int
	for _, node := range g.orbitRepresentatives(class, colors) {
		ind := make([]int, g.n)
		for i, c := range colors {
			// Individualize: give node a colour just below its
			// class, shifting everything else up.
			ind[i] = 2 * c
		}
		ind[node]--
		densify(ind)
		sig, order := g.search(g.refine(ind))
		if best == nil || bytes.Compare(sig, best) < 0 {
			best, bestOrder = sig, order
		}
	}
	return best, bestOrder
}

// orbitRepresentatives prunes a tied colour class to one representative per
// provable automorphism orbit. Without pruning, the k leaves of a fully
// symmetric parallel matching (k value joins wiring k identical left leaves
// to k identical right leaves — the most common generated query shape) force
// a k! search.
//
// The certificate is deliberately narrow and sound: nodes c and c' are
// merged only when both are childless, have exactly one value-join partner
// each, the partners are distinct childless nodes with exactly one partner,
// c and c' share a tree parent, and the partners share a tree parent. Under
// those conditions the transposition (c c')(p_c p_c') maps every edge of the
// graph to an edge, i.e. it is an automorphism, so the two individualization
// branches produce identical canonical forms and one can be skipped.
func (g *canonGraph) orbitRepresentatives(class []int, colors []int) []int {
	reps := []int{class[0]}
	for _, c := range class[1:] {
		merged := false
		for _, r := range reps {
			if g.swappable(r, c, colors) {
				merged = true
				break
			}
		}
		if !merged {
			reps = append(reps, c)
		}
	}
	return reps
}

func (g *canonGraph) swappable(a, b int, colors []int) bool {
	if len(g.kids[a])+len(g.kids[b]) != 0 || len(g.vj[a]) != 1 || len(g.vj[b]) != 1 {
		return false
	}
	pa, pb := g.vj[a][0], g.vj[b][0]
	if pa == pb {
		return false // a fan: the partner cannot be swapped with itself
	}
	if len(g.kids[pa])+len(g.kids[pb]) != 0 || len(g.vj[pa]) != 1 || len(g.vj[pb]) != 1 {
		return false
	}
	if g.parent[a] != g.parent[b] || g.parent[pa] != g.parent[pb] {
		return false
	}
	// The swap must also respect the current colouring of the partners
	// (a and b are same-colour by construction).
	return colors[pa] == colors[pb]
}

// serialize renders the graph under a discrete colouring (total order):
// "p:sS,pP,vj[v v];" per position p, with S the node's side, P its parent's
// position (-1 for a side root) and its value-join partners' positions
// ascending.
func (g *canonGraph) serialize(colors []int) ([]byte, []int) {
	order := make([]int, g.n) // position -> node
	pos := make([]int, g.n)   // node -> position
	for i, c := range colors {
		order[c] = i
		pos[i] = c
	}
	var b []byte
	var partners []int
	for p, node := range order {
		par := -1
		if g.parent[node] >= 0 {
			par = pos[g.parent[node]]
		}
		partners = partners[:0]
		for _, q := range g.vj[node] {
			partners = append(partners, pos[q])
		}
		slices.Sort(partners)
		b = strconv.AppendInt(b, int64(p), 10)
		b = strconv.AppendInt(append(b, ":s"...), int64(g.side[node]), 10)
		b = strconv.AppendInt(append(b, ",p"...), int64(par), 10)
		b = append(b, ",vj["...)
		for j, q := range partners {
			if j > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendInt(b, int64(q), 10)
		}
		b = append(b, "];"...)
	}
	return b, order
}
