package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/workload"
	"repro/internal/xpath"
	"repro/internal/xscl"
	"repro/internal/yfilter"
)

// This file keeps the direct derivation of a query's template and RT row as
// the reference registration is held to: the minor built over maps, colour
// refinement over fmt-built signature strings, every kept node named by a
// root-to-node string join of steps and dropped subtrees' keys
// (refClassNames), and the RT tuple interned name by name. xpath's tests hold
// NormalForm to the comparator-sort normalization the same way.

// refNode is a join-graph node of the reference derivation.
type refNode struct {
	pn       *xpath.PatternNode
	parent   int
	children []int
}

type refGraph struct {
	left, right []refNode
	vj          []VJEdge
}

func refBuildJoinGraph(q *xscl.Query) (*refGraph, error) {
	g := &refGraph{}
	lIndex := refBuildSide(&g.left, q.Left)
	rIndex := refBuildSide(&g.right, q.Right)
	seen := map[[2]int]bool{}
	for _, p := range q.Preds {
		ln, rn := q.Left.VarNode(p.LeftVar), q.Right.VarNode(p.RightVar)
		if ln == nil || rn == nil {
			return nil, fmt.Errorf("predicate %s=%s references unbound variable", p.LeftVar, p.RightVar)
		}
		e := VJEdge{L: lIndex[ln.Index], R: rIndex[rn.Index]}
		if seen[[2]int{e.L, e.R}] {
			continue
		}
		seen[[2]int{e.L, e.R}] = true
		g.vj = append(g.vj, e)
	}
	return g, nil
}

func refBuildSide(s *[]refNode, p *xpath.Pattern) []int {
	idx := make([]int, len(p.Nodes))
	for i, pn := range p.Nodes {
		parent := -1
		if pn.ParentIndex >= 0 {
			parent = idx[pn.ParentIndex]
		}
		idx[i] = len(*s)
		*s = append(*s, refNode{pn: pn, parent: parent})
		if parent >= 0 {
			(*s)[parent].children = append((*s)[parent].children, idx[i])
		}
	}
	return idx
}

func refMinor(g *refGraph) *refGraph {
	out := &refGraph{}
	vjNodes := func(side Side) map[int]bool {
		m := map[int]bool{}
		for _, e := range g.vj {
			if side == Left {
				m[e.L] = true
			} else {
				m[e.R] = true
			}
		}
		return m
	}
	lmap := refReduceSide(g.left, vjNodes(Left), &out.left)
	rmap := refReduceSide(g.right, vjNodes(Right), &out.right)
	for _, e := range g.vj {
		out.vj = append(out.vj, VJEdge{L: lmap[e.L], R: rmap[e.R]})
	}
	return out
}

func refReduceSide(s []refNode, vj map[int]bool, out *[]refNode) map[int]int {
	n := len(s)
	keep := make([]bool, n)
	for i := n - 1; i >= 0; i-- {
		keep[i] = vj[i]
		for _, c := range s[i].children {
			keep[i] = keep[i] || keep[c]
		}
	}
	root := 0
	for !vj[root] {
		next, cnt := -1, 0
		for _, c := range s[root].children {
			if keep[c] {
				next = c
				cnt++
			}
		}
		if cnt != 1 {
			break
		}
		root = next
	}
	retained := func(i int) bool {
		if i == root || vj[i] {
			return true
		}
		cnt := 0
		for _, c := range s[i].children {
			if keep[c] {
				cnt++
			}
		}
		return cnt >= 2
	}
	m := map[int]int{}
	var build func(old, newParent int)
	build = func(old, newParent int) {
		self := newParent
		if retained(old) {
			self = len(*out)
			m[old] = self
			*out = append(*out, refNode{pn: s[old].pn, parent: newParent})
			if newParent >= 0 {
				(*out)[newParent].children = append((*out)[newParent].children, self)
			}
		}
		for _, c := range s[old].children {
			if keep[c] {
				build(c, self)
			}
		}
	}
	build(root, -1)
	return m
}

// joinGraph is the reference graph's shape as a JoinGraph.
func (g *refGraph) joinGraph() *JoinGraph {
	out := &JoinGraph{VJ: g.vj}
	for _, n := range g.left {
		out.LeftSide.Nodes = append(out.LeftSide.Nodes, JGNode{PatternNode: n.pn, Parent: n.parent})
	}
	for _, n := range g.right {
		out.RightSide.Nodes = append(out.RightSide.Nodes, JGNode{PatternNode: n.pn, Parent: n.parent})
	}
	return out
}

// rawEncodeReference is the canonicalization memo key written with fmt.
func rawEncodeReference(g *JoinGraph) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "L%d:", len(g.LeftSide.Nodes))
	for _, n := range g.LeftSide.Nodes {
		fmt.Fprintf(&sb, "%d,", n.Parent)
	}
	fmt.Fprintf(&sb, "R%d:", len(g.RightSide.Nodes))
	for _, n := range g.RightSide.Nodes {
		fmt.Fprintf(&sb, "%d,", n.Parent)
	}
	sb.WriteString("VJ:")
	edges := append([]VJEdge(nil), g.VJ...)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].L != edges[j].L {
			return edges[i].L < edges[j].L
		}
		return edges[i].R < edges[j].R
	})
	for _, e := range edges {
		fmt.Fprintf(&sb, "%d-%d,", e.L, e.R)
	}
	return sb.String()
}

// refCanonGraph and referenceCanonicalize are colour refinement with each
// node's signature a string, ranked by string order.
type refCanonGraph struct {
	n      int
	side   []uint8
	parent []int
	vj     [][]int
	kids   [][]int
}

func refFlatten(g *JoinGraph) *refCanonGraph {
	nl := len(g.LeftSide.Nodes)
	n := nl + len(g.RightSide.Nodes)
	cg := &refCanonGraph{n: n, side: make([]uint8, n), parent: make([]int, n), vj: make([][]int, n), kids: make([][]int, n)}
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
		sort.Ints(cg.vj[i])
		if p := cg.parent[i]; p >= 0 {
			cg.kids[p] = append(cg.kids[p], i)
		}
	}
	return cg
}

func (g *refCanonGraph) refine(colors []int) []int {
	for {
		sigs := make([]string, g.n)
		for i := 0; i < g.n; i++ {
			var sb strings.Builder
			fmt.Fprintf(&sb, "%d|", colors[i])
			if p := g.parent[i]; p >= 0 {
				fmt.Fprintf(&sb, "p%d|", colors[p])
			} else {
				sb.WriteString("p-|")
			}
			sb.WriteString(refMultiset(colors, g.kids[i]))
			sb.WriteByte('|')
			sb.WriteString(refMultiset(colors, g.vj[i]))
			sigs[i] = sb.String()
		}
		uniq := sortedUniq(sigs)
		next := make([]int, g.n)
		for i, s := range sigs {
			next[i], _ = slices.BinarySearch(uniq, s)
		}
		distinct := map[int]bool{}
		for _, c := range colors {
			distinct[c] = true
		}
		if len(uniq) == len(distinct) {
			return next
		}
		colors = next
	}
}

func sortedUniq[T cmp.Ordered](s []T) []T {
	u := slices.Clone(s)
	slices.Sort(u)
	return slices.Compact(u)
}

func refMultiset(colors, idx []int) string {
	cs := make([]int, len(idx))
	for i, j := range idx {
		cs[i] = colors[j]
	}
	sort.Ints(cs)
	return fmt.Sprint(cs)
}

func refDensifyInts(colors []int) []int {
	uniq := sortedUniq(colors)
	out := make([]int, len(colors))
	for i, c := range colors {
		out[i], _ = slices.BinarySearch(uniq, c)
	}
	return out
}

func referenceCanonicalize(g *JoinGraph) (string, []int) {
	cg := refFlatten(g)
	init := make([]int, cg.n)
	for i := range init {
		d := 0
		for p := cg.parent[i]; p >= 0; p = cg.parent[p] {
			d++
		}
		init[i] = int(cg.side[i])*64 + d
	}
	return cg.search(cg.refine(refDensifyInts(init)))
}

func (g *refCanonGraph) search(colors []int) (string, []int) {
	classOf := map[int][]int{}
	for i, c := range colors {
		classOf[c] = append(classOf[c], i)
	}
	target := -1
	for c := 0; c < g.n; c++ {
		if len(classOf[c]) > 1 {
			target = c
			break
		}
	}
	if target == -1 {
		return g.serialize(colors)
	}
	bestSig := ""
	var bestOrder []int
	for _, node := range g.orbitRepresentatives(classOf[target], colors) {
		ind := make([]int, g.n)
		for i, c := range colors {
			ind[i] = 2 * c
		}
		ind[node]--
		sig, order := g.search(g.refine(refDensifyInts(ind)))
		if bestSig == "" || sig < bestSig {
			bestSig, bestOrder = sig, order
		}
	}
	return bestSig, bestOrder
}

func (g *refCanonGraph) orbitRepresentatives(class []int, colors []int) []int {
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

func (g *refCanonGraph) swappable(a, b int, colors []int) bool {
	if len(g.kids[a]) != 0 || len(g.kids[b]) != 0 || len(g.vj[a]) != 1 || len(g.vj[b]) != 1 {
		return false
	}
	pa, pb := g.vj[a][0], g.vj[b][0]
	if pa == pb || len(g.vj[pa]) != 1 || len(g.vj[pb]) != 1 || len(g.kids[pa]) != 0 || len(g.kids[pb]) != 0 {
		return false
	}
	if g.parent[a] != g.parent[b] || g.parent[pa] != g.parent[pb] {
		return false
	}
	return colors[pa] == colors[pb]
}

func (g *refCanonGraph) serialize(colors []int) (string, []int) {
	order := make([]int, g.n)
	pos := make([]int, g.n)
	for i, c := range colors {
		order[c] = i
		pos[i] = c
	}
	var sb strings.Builder
	for p := 0; p < g.n; p++ {
		node := order[p]
		par := -1
		if g.parent[node] >= 0 {
			par = pos[g.parent[node]]
		}
		partners := make([]int, len(g.vj[node]))
		for i, q := range g.vj[node] {
			partners[i] = pos[q]
		}
		sort.Ints(partners)
		fmt.Fprintf(&sb, "%d:s%d,p%d,vj%v;", p, g.side[node], par, partners)
	}
	return sb.String(), order
}

// refClassNames names the nodes of the normalized pattern norm with a node of
// marks in their subtree: each the string join of the steps from the root,
// every step followed by the CanonicalKey, as a pattern of its own, of each
// child subtree without a mark, sorted and bracketed.
func refClassNames(norm *xpath.Pattern, marks []int32) map[int]string {
	keep := map[int]bool{}
	for _, n := range marks {
		for i := int(n); i >= 0; i = norm.Nodes[i].ParentIndex {
			keep[i] = true
		}
	}
	names := map[int]string{}
	var walk func(n *xpath.PatternNode, prefix string)
	walk = func(n *xpath.PatternNode, prefix string) {
		name := prefix + n.Axis.String()
		if n.IsAttr {
			name += "@"
		}
		name += n.Name
		var dropped []string
		for _, c := range n.Children {
			if !keep[c.Index] {
				sub := &xpath.Pattern{Stream: norm.Stream, Root: c}
				dropped = append(dropped, strings.TrimPrefix(sub.CanonicalKey(), norm.Stream+"|"))
			}
		}
		sort.Strings(dropped)
		for _, k := range dropped {
			name += "[" + k + "]"
		}
		names[n.Index] = name
		for _, c := range n.Children {
			if keep[c.Index] {
				walk(c, name)
			}
		}
	}
	walk(norm.Root, norm.Stream)
	return names
}

type refTemplate struct {
	sig     string
	groups  [][]int32       // distinct variable vectors, in creation order
	classes [][]windowClass // per group, its window classes in creation order
}

// refRegistry replays registration the reference way and records what the
// processor must agree with.
type refRegistry struct {
	syms      *symtab
	patternID map[string]int // by canonical key, in first-registration order
	patterns  []*refPattern
	items     map[[2]int64]*refItem
	demands   map[string]*refDemand
	templates map[string]*refTemplate
	tmplList  []*refTemplate
	queries   int // the next query id
}

// refPattern is a Stage-1 pattern: its key, its id (the patterns are
// registered in order), its single-block queries and the row items it
// carries, in registration order.
type refPattern struct {
	key     string
	yfid    int
	singles int
	items   [][2]int64
}

// refDemand is one distinct demand: its block's normalized pattern, its
// edges and value-join nodes there, and the interned names of the nodes it
// keeps.
type refDemand struct {
	norm     *xpath.Pattern
	edges    [][2]int32
	strNodes []int32
	ids      map[int]int64
}

// refItem counts the distinct demands naming a row item, and those needing
// each end's string value.
type refItem struct {
	refs int
	vals [2]int
}

// refItemKey spells the canonical key of the class pattern of edge e's child
// in the normalized block norm, whose kept nodes names names: the path from
// the root to the child, bound at the edge's nodes, each node on it carrying,
// unbound, the child subtrees it drops.
func refItemKey(norm *xpath.Pattern, names map[int]string, e [2]int32) string {
	onPath := map[int]bool{}
	for n := int(e[1]); n >= 0; n = norm.Nodes[n].ParentIndex {
		onPath[n] = true
	}
	var enc func(n *xpath.PatternNode, path bool) string
	enc = func(n *xpath.PatternNode, path bool) string {
		self := ""
		if path && (n.Index == int(e[0]) || n.Index == int(e[1])) {
			self = "!"
		}
		self += n.Axis.String()
		if n.IsAttr {
			self += "@"
		}
		self += n.Name
		var kids []string
		for _, c := range n.Children {
			_, kept := names[c.Index]
			switch {
			case !path || !kept:
				kids = append(kids, enc(c, false))
			case onPath[c.Index]:
				kids = append(kids, enc(c, true))
			}
		}
		sort.Strings(kids)
		if len(kids) > 0 {
			self += "[" + strings.Join(kids, ",") + "]"
		}
		return self
	}
	return norm.Stream + "|" + enc(norm.Root, true)
}

func newRefRegistry() *refRegistry {
	return &refRegistry{syms: newSymtab(), patternID: map[string]int{}, items: map[[2]int64]*refItem{},
		demands: map[string]*refDemand{}, templates: map[string]*refTemplate{}}
}

// pattern returns the pattern of canonical key key, registered in order.
func (r *refRegistry) pattern(key string) *refPattern {
	if id, ok := r.patternID[key]; ok {
		return r.patterns[id]
	}
	pi := &refPattern{key: key, yfid: len(r.patterns)}
	r.patternID[key] = len(r.patterns)
	r.patterns = append(r.patterns, pi)
	return pi
}

func (r *refRegistry) register(q *xscl.Query) error {
	qid := QueryID(r.queries)
	r.queries++
	if q.Op == xscl.OpNone {
		norm, _ := q.Left.NormalizedFullyBound()
		r.pattern(norm.CanonicalKey()).singles++
		return nil
	}
	if err := r.instance(q, qid, false); err != nil {
		return err
	}
	if q.Op == xscl.OpJoin {
		swapped := &xscl.Query{Left: q.Right, Right: q.Left, Op: q.Op, Window: q.Window, WindowKind: q.WindowKind}
		for _, pr := range q.Preds {
			swapped.Preds = append(swapped.Preds, xscl.ValueJoin{LeftVar: pr.RightVar, RightVar: pr.LeftVar})
		}
		return r.instance(swapped, qid, true)
	}
	return nil
}

func (r *refRegistry) instance(q *xscl.Query, qid QueryID, swapped bool) error {
	g, err := refBuildJoinGraph(q)
	if err != nil {
		return err
	}
	red := refMinor(g)
	sig, order := referenceCanonicalize(red.joinGraph())
	tmpl := r.templates[sig]
	if tmpl == nil {
		tmpl = &refTemplate{sig: sig}
		r.templates[sig] = tmpl
		r.tmplList = append(r.tmplList, tmpl)
	}
	lnorm, lmap := q.Left.NormalizedFullyBound()
	rnorm, rmap := q.Right.NormalizedFullyBound()
	type demand struct {
		edges    [][2]int32
		strNodes []int32
	}
	var dem [2]demand
	addOnce := func(s []int32, v int32) []int32 {
		if slices.Contains(s, v) {
			return s
		}
		return append(s, v)
	}
	for side, nodes := range [2][]refNode{red.left, red.right} {
		imap := [2][]int{lmap, rmap}[side]
		d := &dem[side]
		for _, nd := range nodes {
			if nd.parent >= 0 {
				e := [2]int32{int32(imap[nodes[nd.parent].pn.Index]), int32(imap[nd.pn.Index])}
				if !slices.Contains(d.edges, e) {
					d.edges = append(d.edges, e)
				}
			}
		}
		// A single-node side's root is a parentless edge.
		if len(nodes) == 1 {
			d.edges = append(d.edges, [2]int32{noParent, int32(imap[nodes[0].pn.Index])})
		}
	}
	for _, e := range red.vj {
		dem[0].strNodes = addOnce(dem[0].strNodes, int32(lmap[red.left[e.L].pn.Index]))
		dem[1].strNodes = addOnce(dem[1].strNodes, int32(rmap[red.right[e.R].pn.Index]))
	}
	// Each side's kept nodes are named and interned in pre-order, the left
	// side's first. A demand new to the registry takes a reference on the
	// row item of each of its edges, qualified by the names; an item new to
	// the registry registers its class pattern.
	var ids [2]map[int]int64
	for side, norm := range [2]*xpath.Pattern{lnorm, rnorm} {
		d := dem[side]
		names := refClassNames(norm, d.strNodes)
		ids[side] = map[int]int64{}
		for i := range norm.Nodes {
			if name, ok := names[i]; ok {
				ids[side][i] = r.syms.intern(name)
			}
		}
		dk := fmt.Sprint(norm.CanonicalKey(), d.strNodes)
		if r.demands[dk] != nil {
			continue
		}
		r.demands[dk] = &refDemand{norm: norm, edges: d.edges, strNodes: d.strNodes, ids: ids[side]}
		for _, e := range d.edges {
			id := [2]int64{noParent, ids[side][int(e[1])]}
			if e[0] != noParent {
				id[0] = ids[side][int(e[0])]
			}
			it := r.items[id]
			if it == nil {
				it = &refItem{}
				r.items[id] = it
				pi := r.pattern(refItemKey(norm, names, e))
				pi.items = append(pi.items, id)
			}
			it.refs++
			for j, n := range e {
				if slices.Contains(d.strNodes, n) {
					it.vals[j]++
				}
			}
		}
	}
	nl := len(red.left)
	vars := make([]int32, len(order))
	for pos, flat := range order {
		if flat < nl {
			vars[pos] = int32(ids[0][lmap[red.left[flat].pn.Index]])
		} else {
			vars[pos] = int32(ids[1][rmap[red.right[flat-nl].pn.Index]])
		}
	}
	key := windowKey{window: q.Window, op: q.Op, kind: q.WindowKind, swapped: swapped}
	for i, gv := range tmpl.groups {
		if !slices.Equal(gv, vars) {
			continue
		}
		for j := range tmpl.classes[i] {
			if c := &tmpl.classes[i][j]; c.key == key {
				c.qids = append(c.qids, qid)
				return nil
			}
		}
		tmpl.classes[i] = append(tmpl.classes[i], windowClass{key: key, qids: []QueryID{qid}})
		return nil
	}
	tmpl.groups = append(tmpl.groups, vars)
	tmpl.classes = append(tmpl.classes, []windowClass{{key: key, qids: []QueryID{qid}}})
	return nil
}

// itemsMismatch compares the processor's Stage-1 registry with the
// reference's: its demands, its row items with their counts, its live
// patterns — keys, single-block queries and items — and the Stage-1
// engine's live set. ordered compares the patterns in registration order
// and their Stage-1 ids too, which only a processor that never unregistered
// shares with the reference.
func itemsMismatch(p *Processor, ref *refRegistry, ordered bool) string {
	if len(p.demands) != len(ref.demands) || len(p.items) != len(ref.items) || len(p.patterns) != len(ref.patterns) {
		return fmt.Sprintf("%d demands, %d items, %d patterns; reference %d, %d, %d",
			len(p.demands), len(p.items), len(p.patterns), len(ref.demands), len(ref.items), len(ref.patterns))
	}
	// Items are compared by their class names: a processor keeps the names
	// of queries that left, so after churn its ids are not the reference's.
	names := func(s *symtab, id [2]int64) (n [2]string) {
		for i, v := range id {
			if v != noParent {
				n[i] = s.name(v)
			}
		}
		return n
	}
	refItems := map[[2]string]*refItem{}
	for id, ri := range ref.items {
		refItems[names(ref.syms, id)] = ri
	}
	for i, pi := range livePatterns(p) {
		rp := ref.patterns[i]
		if !ordered {
			rp = ref.patterns[ref.patternID[pi.key]]
		}
		var items, want [][2]string
		for _, it := range pi.items {
			items = append(items, names(p.syms, it.id))
			if ri := refItems[names(p.syms, it.id)]; ri == nil || it.refs != ri.refs || it.vals != ri.vals || it.pi != pi || p.items[it.id] != it {
				return fmt.Sprintf("item %q: %d refs, values %v; reference %+v", names(p.syms, it.id), it.refs, it.vals, ri)
			}
		}
		for _, id := range rp.items {
			want = append(want, names(ref.syms, id))
		}
		if pi.key != rp.key || p.xp.Pattern(pi.yid).CanonicalKey() != rp.key || len(pi.singles) != rp.singles ||
			!slices.Equal(items, want) || ordered && int(pi.yid) != rp.yfid {
			return fmt.Sprintf("pattern %d: id %d key %q, %d singles, items %q\nreference: id %d key %q, %d singles, items %q",
				i, pi.yid, pi.key, len(pi.singles), items, rp.yfid, rp.key, rp.singles, want)
		}
	}
	for yid := range p.xp.NumPatterns() {
		pi := p.byYID[yid]
		if p.xp.Live(yfilter.PatternID(yid)) != (pi != nil) || pi != nil && p.patterns[pi.key] != pi {
			return fmt.Sprintf("Stage-1 pattern %d: live %v, registry holds %v", yid, p.xp.Live(yfilter.PatternID(yid)), pi)
		}
	}
	return ""
}

// derivationMismatch compares one join query's template derivation — the
// reduced graph, the memo key, the signature and the node order — and
// returns "" when the fast and reference derivations agree.
func derivationMismatch(q *xscl.Query) string {
	if q.Op == xscl.OpNone {
		return ""
	}
	g, err := BuildJoinGraph(q)
	rg, rerr := refBuildJoinGraph(q)
	if (err == nil) != (rerr == nil) {
		return fmt.Sprintf("join graph error %v, reference %v", err, rerr)
	}
	if err != nil {
		return ""
	}
	red, rred := g.Minor(), refMinor(rg).joinGraph()
	if !reflect.DeepEqual(red.LeftSide.Nodes, rred.LeftSide.Nodes) || !reflect.DeepEqual(red.RightSide.Nodes, rred.RightSide.Nodes) ||
		!reflect.DeepEqual(red.VJ, rred.VJ) {
		return fmt.Sprintf("minor\n%s\nreference\n%+v", red, rred)
	}
	var reg regScratch
	if raw, want := string(reg.rawKey(red)), rawEncodeReference(red); raw != want {
		return fmt.Sprintf("raw key %q, reference %q", raw, want)
	}
	sig, order := Canonicalize(red)
	wantSig, wantOrder := referenceCanonicalize(red)
	if sig != wantSig || !slices.Equal(order, wantOrder) {
		return fmt.Sprintf("canonical form %q %v, reference %q %v", sig, order, wantSig, wantOrder)
	}
	return ""
}

// TestRegistrationMatchesReference registers the RSS, paper-scale,
// deep-feed and random query lists into a processor and replays them through
// the reference derivation: every template signature and node order, every
// Stage-1 pattern id and key with its single-block queries and row items, every
// item's counts, the symbol table's names in id order and every vector
// group's variables and instances must be equal. State rows and snapshots carry the symbol ids, and templates
// are found by signature, so none of these may move.
func TestRegistrationMatchesReference(t *testing.T) {
	lists := map[string][]*xscl.Query{
		"rss":         workload.DefaultRSS().Queries(rand.New(rand.NewSource(1)), 600),
		"paper scale": workload.DefaultPaperScale().Queries(rand.New(rand.NewSource(2)), 1000),
		"deep feed":   workload.DefaultDeepFeed().Queries(rand.New(rand.NewSource(3)), 600),
		"paper":       {xscl.PaperQ1(1), xscl.PaperQ2(2), xscl.PaperQ3(3)},
	}
	for _, c := range []workload.RandomWorkload{workload.DefaultRandomFlat(), workload.DefaultRandomDeep()} {
		rng := rand.New(rand.NewSource(4))
		name := "random flat"
		if c.Deep {
			name = "random deep"
		}
		for i := 0; i < 400; i++ {
			lists[name] = append(lists[name], c.Query(rng))
		}
	}
	for name, qs := range lists {
		t.Run(name, func(t *testing.T) {
			p := NewProcessor(Config{})
			ref := newRefRegistry()
			for i, q := range qs {
				if msg := derivationMismatch(q); msg != "" {
					t.Fatalf("query %d %q: %s", i, q.Source, msg)
				}
				if _, err := p.Register(q); err != nil {
					t.Fatal(err)
				}
				if err := ref.register(q); err != nil {
					t.Fatal(err)
				}
			}
			if !slices.Equal(p.syms.names, ref.syms.names) {
				t.Fatalf("symbol table\n%q\nreference\n%q", p.syms.names, ref.syms.names)
			}
			if msg := itemsMismatch(p, ref, true); msg != "" {
				t.Fatal(msg)
			}
			if len(p.templateList) != len(ref.tmplList) {
				t.Fatalf("%d templates, reference %d", len(p.templateList), len(ref.tmplList))
			}
			for i, tmpl := range p.templateList {
				rt := ref.tmplList[i]
				if tmpl.Sig != rt.sig || len(tmpl.vecList) != len(rt.groups) {
					t.Fatalf("template %d: %q with %d groups, reference %q with %d", i, tmpl.Sig, len(tmpl.vecList), rt.sig, len(rt.groups))
				}
				for j, g := range tmpl.vecList {
					if !slices.Equal(g.vars, rt.groups[j]) || !reflect.DeepEqual(classesOf(g), rt.classes[j]) {
						t.Fatalf("template %d group %d: vars %v classes %v, reference %v %v", i, j, g.vars, classesOf(g), rt.groups[j], rt.classes[j])
					}
				}
			}
			// The memo answers as the canonicalization it stands for.
			for _, q := range qs {
				if q.Op == xscl.OpNone {
					continue
				}
				g, _ := BuildJoinGraph(q)
				red := g.Minor()
				var reg regScratch
				cr := p.canonMemo[string(reg.rawKey(red))]
				if sig, order := referenceCanonicalize(red); cr.sig != sig || !slices.Equal(cr.order, order) {
					t.Fatalf("%q: memo holds %q %v, reference %q %v", q.Source, cr.sig, cr.order, sig, order)
				}
			}
		})
	}
}
