package xpath

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/xmldoc"
)

// referenceNormalizedFullyBound is the direct derivation NormalForm must
// agree with: clone the tree binding every unbound node, then sort every
// node's children by their structural encoding, rebuilt from the subtree's
// strings inside each comparison.
func referenceNormalizedFullyBound(p *Pattern) (*Pattern, []int) {
	type cloned struct {
		node *PatternNode
		old  int
	}
	var synth int
	var clone func(n *PatternNode) *cloned
	clonedByOld := make(map[int]*cloned, len(p.Nodes))
	clone = func(n *PatternNode) *cloned {
		c := &cloned{node: &PatternNode{
			Axis:   n.Axis,
			Name:   n.Name,
			IsAttr: n.IsAttr,
			Var:    n.Var,
		}, old: n.Index}
		if c.node.Var == "" {
			c.node.Var = fmt.Sprintf("$%d", synth)
			synth++
		}
		for _, ch := range n.Children {
			cc := clone(ch)
			c.node.Children = append(c.node.Children, cc.node)
		}
		clonedByOld[n.Index] = c
		return c
	}
	root := clone(p.Root)

	// Sort children canonically by their structural encoding (names,
	// axes, attribute flags — not variable names, which are synthetic).
	var enc func(n *PatternNode) string
	enc = func(n *PatternNode) string {
		name := n.Name
		if n.IsAttr {
			name = "@" + name
		}
		self := n.Axis.String() + name
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
	var sortKids func(n *PatternNode)
	sortKids = func(n *PatternNode) {
		sort.SliceStable(n.Children, func(i, j int) bool {
			return enc(n.Children[i]) < enc(n.Children[j])
		})
		for _, c := range n.Children {
			sortKids(c)
		}
	}
	sortKids(root.node)

	np := &Pattern{Stream: p.Stream, Root: root.node}
	np.finalize()

	indexMap := make([]int, len(p.Nodes))
	for old, c := range clonedByOld {
		indexMap[old] = c.node.Index
	}
	return np, indexMap
}

// normalFormMismatch compares NormalForm and NormalizedFullyBound against
// the reference derivation: the normalized pattern node by node, the index
// map, and the key against the reference pattern's CanonicalKey. It returns
// "" when they agree.
func normalFormMismatch(p *Pattern) string {
	want, wantMap := referenceNormalizedFullyBound(p)
	var f NormalForm
	f.Compute(p)
	if !reflect.DeepEqual(f.Map, wantMap) {
		return fmt.Sprintf("index map %v, want %v", f.Map, wantMap)
	}
	if key := want.CanonicalKey(); string(f.Key) != key {
		return fmt.Sprintf("key %q, want %q", f.Key, key)
	}
	if key := p.Root.AppendKey([]byte(p.Stream + "|")); string(key) != string(f.Key) {
		return fmt.Sprintf("AppendKey %q, NormalForm key %q", key, f.Key)
	}
	got, gotMap := p.NormalizedFullyBound()
	if !reflect.DeepEqual(gotMap, wantMap) {
		return fmt.Sprintf("NormalizedFullyBound index map %v, want %v", gotMap, wantMap)
	}
	if got.Stream != want.Stream || got.Root != got.Nodes[0] || len(got.Nodes) != len(want.Nodes) ||
		!reflect.DeepEqual(got.VarNodes, want.VarNodes) {
		return fmt.Sprintf("normalized pattern %q (%d nodes), want %q (%d nodes)", got, len(got.Nodes), want, len(want.Nodes))
	}
	for i, g := range got.Nodes {
		w := want.Nodes[i]
		if g.Axis != w.Axis || g.Name != w.Name || g.IsAttr != w.IsAttr || g.Var != w.Var ||
			g.Index != w.Index || g.ParentIndex != w.ParentIndex || len(g.Children) != len(w.Children) {
			return fmt.Sprintf("normalized node %d = %+v, want %+v", i, *g, *w)
		}
		for j, c := range g.Children {
			if c.Index != w.Children[j].Index {
				return fmt.Sprintf("normalized node %d child %d is node %d, want %d", i, j, c.Index, w.Children[j].Index)
			}
		}
	}
	return ""
}

func TestNormalFormMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 2000; trial++ {
		p := randomPattern(rng)
		if msg := normalFormMismatch(p); msg != "" {
			t.Fatalf("trial %d, %q: %s", trial, p, msg)
		}
	}
	// Sibling names one of which extends the other, around every character
	// the encoding puts after a name: the order must not move.
	for _, src := range []string{
		"S//r[./a[./b]][./aZ][./a_][./a-b][./a][.//a][./@a][./*]",
		"S//r[./a-][./a[./x]][./a0][.//a[./y->v]][./a->w]",
	} {
		p := MustParseBlock(src)
		if msg := normalFormMismatch(p); msg != "" {
			t.Fatalf("%q: %s", src, msg)
		}
	}
}

func TestNormalizedFullyBoundBindsEverything(t *testing.T) {
	p := MustParseBlock("S//a[./b][.//c->x]")
	n, imap := p.NormalizedFullyBound()
	for i, node := range n.Nodes {
		if node.Var == "" {
			t.Errorf("node %d unbound after normalization", i)
		}
	}
	if len(imap) != len(p.Nodes) {
		t.Fatalf("index map length %d", len(imap))
	}
	// The mapped node corresponds structurally (same name).
	for old, nw := range imap {
		if p.Nodes[old].Name != n.Nodes[nw].Name {
			t.Errorf("node %d (%s) mapped to %d (%s)", old, p.Nodes[old].Name, nw, n.Nodes[nw].Name)
		}
	}
	// All nodes are their own witness slot: VarNodes == all nodes.
	if len(n.VarNodes) != len(n.Nodes) {
		t.Errorf("VarNodes = %d, want %d", len(n.VarNodes), len(n.Nodes))
	}
}

func TestNormalizedChildOrderCanonical(t *testing.T) {
	a := MustParseBlock("S//r->q[.//b->y][.//a->x]")
	b := MustParseBlock("S//r->q[.//a->x][.//b->y]")
	na, _ := a.NormalizedFullyBound()
	nb, _ := b.NormalizedFullyBound()
	// Same canonical order of children regardless of source order.
	if na.Nodes[1].Name != nb.Nodes[1].Name || na.Nodes[2].Name != nb.Nodes[2].Name {
		t.Errorf("normalized orders differ: %q/%q vs %q/%q",
			na.Nodes[1].Name, na.Nodes[2].Name, nb.Nodes[1].Name, nb.Nodes[2].Name)
	}
	if na.CanonicalKey() != nb.CanonicalKey() {
		t.Errorf("canonical keys differ after normalization")
	}
}

func TestNormalizedPreservesWitnesses(t *testing.T) {
	// Normalization must not change which documents match, and the
	// original node's binding must be recoverable through the index map.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 120; trial++ {
		p := randomPattern(rng)
		n, imap := p.NormalizedFullyBound()

		doc := randomNormDoc(rng)
		origWitnesses := p.MatchNaive(doc)
		normWitnesses := n.MatchNaive(doc)

		// Project the normalized witnesses (all nodes bound) onto the
		// original pattern's bound nodes via the index map.
		proj := map[string]bool{}
		for _, w := range normWitnesses {
			key := ""
			for _, idx := range p.VarNodes {
				slot := imap[idx]
				// slot is the node index == witness slot.
				key += string(rune(w.Bindings[slot])) + "|"
			}
			proj[key] = true
		}
		orig := map[string]bool{}
		for _, w := range origWitnesses {
			key := ""
			for i := range p.VarNodes {
				key += string(rune(w.Bindings[i])) + "|"
			}
			orig[key] = true
		}
		if !reflect.DeepEqual(orig, proj) {
			t.Fatalf("trial %d: witnesses diverge for %q:\norig %v\nproj %v",
				trial, p.String(), setKeys(orig), setKeys(proj))
		}
	}
}

func setKeys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func randomNormDoc(rng *rand.Rand) *xmldoc.Document {
	names := []string{"a", "b", "c", "d"}
	b := xmldoc.NewBuilder(1, 0, names[rng.Intn(len(names))])
	open := []xmldoc.NodeID{0}
	for i := 1; i < 2+rng.Intn(20); i++ {
		for len(open) > 1 && rng.Intn(3) == 0 {
			open = open[:len(open)-1]
		}
		id := b.Element(open[len(open)-1], names[rng.Intn(len(names))], "")
		open = append(open, id)
	}
	return b.Build()
}

func TestDocumentText(t *testing.T) {
	d, err := xmldoc.ParseString("<r>top<a>inner</a></r>", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Text(0); got != "top" {
		t.Errorf("Text(root) = %q, want %q", got, "top")
	}
	if got := d.StringValue(0); got != "topinner" {
		t.Errorf("StringValue(root) = %q", got)
	}
}
