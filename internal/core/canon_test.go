package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/xpath"
)

// randomReduced builds a random reduced-join-graph shape directly: two random
// trees of at most maxSide nodes whose leaves are joined by random cross
// edges.
func randomReduced(rng *rand.Rand, maxSide int) *JoinGraph {
	g := &JoinGraph{}
	buildSideTree := func(s *SideGraph) []int {
		n := 1 + rng.Intn(maxSide)
		var leaves []int
		hasChild := make([]bool, n)
		s.Nodes = append(s.Nodes, JGNode{Parent: -1, PatternNode: &xpath.PatternNode{}})
		for i := 1; i < n; i++ {
			parent := rng.Intn(len(s.Nodes))
			s.Nodes = append(s.Nodes, JGNode{Parent: parent, PatternNode: &xpath.PatternNode{}})
			hasChild[parent] = true
		}
		for i := range s.Nodes {
			if !hasChild[i] {
				leaves = append(leaves, i)
			}
		}
		return leaves
	}
	ll := buildSideTree(&g.LeftSide)
	rl := buildSideTree(&g.RightSide)
	ne := 1 + rng.Intn(maxSide-1)
	for i := 0; i < ne; i++ {
		e := VJEdge{L: ll[rng.Intn(len(ll))], R: rl[rng.Intn(len(rl))]}
		if !slices.Contains(g.VJ, e) {
			g.VJ = append(g.VJ, e)
		}
	}
	return g
}

// permuteGraph relabels the nodes of each side with a random permutation
// that maps the root to the root (parent structure is rebuilt accordingly),
// producing an isomorphic graph.
func permuteGraph(rng *rand.Rand, g *JoinGraph) *JoinGraph {
	out := &JoinGraph{}
	permSide := func(in *SideGraph, os *SideGraph) []int {
		n := len(in.Nodes)
		// Canonicalize does not need parents before children (Parent is
		// an index): build an arbitrary permutation fixing nothing.
		perm := rng.Perm(n)
		os.Nodes = make([]JGNode, n)
		for old, nw := range perm {
			p := in.Nodes[old].Parent
			np := -1
			if p >= 0 {
				np = perm[p]
			}
			os.Nodes[nw] = JGNode{Parent: np, PatternNode: in.Nodes[old].PatternNode}
		}
		return perm
	}
	lp := permSide(&g.LeftSide, &out.LeftSide)
	rp := permSide(&g.RightSide, &out.RightSide)
	for _, e := range g.VJ {
		out.VJ = append(out.VJ, VJEdge{L: lp[e.L], R: rp[e.R]})
	}
	// Shuffle the edge list too.
	rng.Shuffle(len(out.VJ), func(i, j int) { out.VJ[i], out.VJ[j] = out.VJ[j], out.VJ[i] })
	return out
}

func TestPropertyCanonicalInvariantUnderRelabeling(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 400; trial++ {
		g := randomReduced(rng, 5)
		sig1, _ := Canonicalize(g)
		for i := 0; i < 3; i++ {
			h := permuteGraph(rng, g)
			sig2, _ := Canonicalize(h)
			if sig1 != sig2 {
				t.Fatalf("trial %d: relabeling changed the signature:\n%s\nvs\n%s", trial, sig1, sig2)
			}
		}
	}
}

func TestCanonicalDistinguishesSides(t *testing.T) {
	// A 2-left/1-right graph vs its mirror must differ.
	g := &JoinGraph{}
	g.LeftSide.Nodes = []JGNode{
		{Parent: -1, PatternNode: &xpath.PatternNode{}},
		{Parent: 0, PatternNode: &xpath.PatternNode{}},
		{Parent: 0, PatternNode: &xpath.PatternNode{}},
	}
	g.RightSide.Nodes = []JGNode{{Parent: -1, PatternNode: &xpath.PatternNode{}}}
	g.VJ = []VJEdge{{L: 1, R: 0}, {L: 2, R: 0}}

	m := &JoinGraph{LeftSide: g.RightSide, RightSide: g.LeftSide}
	m.VJ = []VJEdge{{L: 0, R: 1}, {L: 0, R: 2}}

	s1, _ := Canonicalize(g)
	s2, _ := Canonicalize(m)
	if s1 == s2 {
		t.Errorf("mirrored graphs share a signature")
	}
}

func TestCanonicalOrderIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	for trial := 0; trial < 100; trial++ {
		g := randomReduced(rng, 5)
		_, order := Canonicalize(g)
		n := len(g.LeftSide.Nodes) + len(g.RightSide.Nodes)
		if len(order) != n {
			t.Fatalf("order length %d, want %d", len(order), n)
		}
		seen := make([]bool, n)
		for _, v := range order {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("order not a permutation: %v", order)
			}
			seen[v] = true
		}
	}
}

func TestCanonicalSymmetricGraphStable(t *testing.T) {
	// A fully symmetric graph (k parallel value joins between k leaves
	// under each root) exercises the individualization search.
	for k := 1; k <= 5; k++ {
		g := &JoinGraph{}
		g.LeftSide.Nodes = append(g.LeftSide.Nodes, JGNode{Parent: -1, PatternNode: &xpath.PatternNode{}})
		g.RightSide.Nodes = append(g.RightSide.Nodes, JGNode{Parent: -1, PatternNode: &xpath.PatternNode{}})
		for i := 1; i <= k; i++ {
			g.LeftSide.Nodes = append(g.LeftSide.Nodes, JGNode{Parent: 0, PatternNode: &xpath.PatternNode{}})
			g.RightSide.Nodes = append(g.RightSide.Nodes, JGNode{Parent: 0, PatternNode: &xpath.PatternNode{}})
			g.VJ = append(g.VJ, VJEdge{L: i, R: i})
		}
		sig1, _ := Canonicalize(g)
		rng := rand.New(rand.NewSource(int64(k)))
		sig2, _ := Canonicalize(permuteGraph(rng, g))
		if sig1 != sig2 {
			t.Errorf("k=%d: symmetric graph signature unstable", k)
		}
	}
}

// FuzzCanonicalize holds the integer canonicalizer to the reference, which
// ranks refinement signatures as fmt-built strings (referenceCanonicalize):
// on a random reduced graph of up to 2×15 nodes — enough for colours of two
// digits, where decimal-string order and integer order part — and on a
// relabeling of it, Canonicalize must return the reference's signature and
// node order byte for byte, and the two signatures must be equal.
func FuzzCanonicalize(f *testing.F) {
	for i := 0; i < 40; i++ {
		f.Add(int64(i), int64(7*i+1), uint8(i))
	}
	f.Fuzz(func(t *testing.T, seed, perm int64, size uint8) {
		g := randomReduced(rand.New(rand.NewSource(seed)), 2+int(size%14))
		h := permuteGraph(rand.New(rand.NewSource(perm)), g)
		var sigs [2]string
		for i, x := range []*JoinGraph{g, h} {
			sig, order := Canonicalize(x)
			wantSig, wantOrder := referenceCanonicalize(x)
			if sig != wantSig || !slices.Equal(order, wantOrder) {
				t.Fatalf("graph %d: %q %v, reference %q %v", i, sig, order, wantSig, wantOrder)
			}
			sigs[i] = sig
		}
		if sigs[0] != sigs[1] {
			t.Fatalf("relabeling changed the signature:\n%s\n%s", sigs[0], sigs[1])
		}
	})
}
