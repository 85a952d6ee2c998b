package xmldoc

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sym"
)

// preorderValues is the eager computation of every node's string value that
// ParseString once made, kept as the oracle Document.StringValue is held to:
// the string values of a document whose node ids are in pre-order. An
// element's value is its own text followed by its element children's
// values, which is the concatenation of the texts of its subtree in pre-order
// — one range of a buffer holding every element's text in pre-order. A value
// is that range for an element with element children and the text itself for
// every other node.
func preorderValues(nodes []Node) []string {
	vals := make([]string, len(nodes))
	total := 0
	for i := range nodes {
		if nodes[i].Kind == ElementNode {
			total += len(nodes[i].text)
		}
	}
	var buf strings.Builder
	buf.Grow(total)
	type open struct {
		id       NodeID
		start    int
		interior bool
	}
	stack := make([]open, 0, 32)
	finish := func(o open) {
		if o.interior {
			// Grown once to its final size, buf never moves: the string
			// so far is a prefix of the final one.
			vals[o.id] = buf.String()[o.start:]
		} else {
			vals[o.id] = nodes[o.id].text
		}
	}
	for i := range nodes {
		n := &nodes[i]
		if n.Kind == AttributeNode {
			vals[i] = n.text
			continue
		}
		for len(stack) > 0 && nodes[stack[len(stack)-1].id].Depth >= n.Depth {
			finish(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			stack[len(stack)-1].interior = true
		}
		stack = append(stack, open{id: NodeID(i), start: buf.Len()})
		buf.WriteString(n.text)
	}
	for i := len(stack) - 1; i >= 0; i-- {
		finish(stack[i])
	}
	return vals
}

// diffValues names the first node of a parsed document whose StringValue
// differs from the preorderValues oracle, or returns "".
func diffValues(d *Document) string {
	want := preorderValues(d.Nodes)
	for i := range d.Nodes {
		if got := d.StringValue(NodeID(i)); got != want[i] {
			return fmt.Sprintf("node %d has string value %q, want %q", i, got, want[i])
		}
	}
	return ""
}

// TestStringValueBuilderOutOfPreorder holds StringValue on Builder documents
// whose ids are not in pre-order — random parents, attributes among the
// children, a distinct text per node — to the oracle on the same document
// serialised and parsed again, where ids are in pre-order: the two trees are
// walked side by side, element children in order.
func TestStringValueBuilderOutOfPreorder(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder(1, 1, "r")
		elems := []NodeID{0}
		outOfOrder := false
		for i := 1; i < 2+rng.Intn(40); i++ {
			parent := elems[rng.Intn(len(elems))]
			outOfOrder = outOfOrder || parent != elems[len(elems)-1]
			text := fmt.Sprintf("t%d.", i)
			if rng.Intn(4) == 0 {
				b.Attribute(parent, fmt.Sprintf("a%d", i), text)
				continue
			}
			if rng.Intn(3) == 0 {
				text = ""
			}
			elems = append(elems, b.Element(parent, "e", text))
		}
		d := b.Build()
		rt, err := ParseString(d.XMLText(), 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := preorderValues(rt.Nodes)
		var walk func(x, y NodeID)
		walk = func(x, y NodeID) {
			if got := d.StringValue(x); got != want[y] {
				t.Fatalf("seed %d: node %d has string value %q, want %q", seed, x, got, want[y])
			}
			var xs, ys []NodeID
			for _, c := range d.Node(x).Children {
				if d.Node(c).Kind == ElementNode {
					xs = append(xs, c)
				} else if d.StringValue(c) != d.Text(c) {
					t.Fatalf("seed %d: attribute %d has string value %q, want its text %q", seed, c, d.StringValue(c), d.Text(c))
				}
			}
			for _, c := range rt.Node(y).Children {
				if rt.Node(c).Kind == ElementNode {
					ys = append(ys, c)
				}
			}
			if len(xs) != len(ys) {
				t.Fatalf("seed %d: node %d has %d element children, its reparse %d", seed, x, len(xs), len(ys))
			}
			for i := range xs {
				walk(xs[i], ys[i])
			}
		}
		walk(0, 0)
		if seed == 1 && !outOfOrder {
			t.Fatal("test premise: the first document's ids are out of pre-order")
		}
	}
}

// TestStringValueAllocations pins what lazy string values cost: an
// attribute's or a leaf element's value is its text, with no allocation, and
// an interior element's is one allocation of exactly its length, none when
// its subtree holds no text but its own.
func TestStringValueAllocations(t *testing.T) {
	d, err := ParseString(`<r k="v"><a>one</a><b><c>two</c><d/></b><e><f/></e></r>`, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		id     NodeID
		want   string
		allocs float64
	}{
		{1, "v", 0}, {2, "one", 0}, {4, "two", 0}, {5, "", 0}, // attribute, leaves
		{6, "", 0}, // no text below e
		{3, "two", 1}, {0, "onetwo", 1},
	} {
		if got := d.StringValue(tc.id); got != tc.want {
			t.Errorf("node %d: string value %q, want %q", tc.id, got, tc.want)
		}
		if n := testing.AllocsPerRun(10, func() { d.StringValue(tc.id) }); n != tc.allocs {
			t.Errorf("node %d: %.0f allocations, want %.0f", tc.id, n, tc.allocs)
		}
	}
	if diff := diffValues(d); diff != "" {
		t.Error(diff)
	}
}

// TestNameCacheManyNames parses documents with more distinct element and
// attribute names than a name cache holds, three times over, so the caches
// grow, empty at their bound and fill again: every node keeps the symbol
// and the interner's name that resolving it directly gives, and no idle
// cache outgrows the bound.
func TestNameCacheManyNames(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < nameCacheSlots; i++ {
		fmt.Fprintf(&sb, `<e%d a%d="v"/>`, i, i/2)
	}
	sb.WriteString("</r>")
	for round := 0; round < 3; round++ {
		d, err := ParseString(sb.String(), 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range d.Nodes {
			n := &d.Nodes[i]
			var id sym.ID
			var name string
			if n.Kind == AttributeNode {
				id = sym.AttrIntern(n.Name)
				name = sym.Name(id)[1:]
			} else {
				id, name = sym.InternName(n.Name)
			}
			if n.Sym != id || n.Name != name {
				t.Fatalf("round %d, node %d: symbol %d, name %q; resolved directly %d, %q", round, i, n.Sym, n.Name, id, name)
			}
		}
	}
	for len(idleScratch) > 0 {
		if c := &takeScratch().names; len(c.slots) > nameCacheSlots || 2*c.n > len(c.slots) {
			t.Errorf("an idle name cache has %d names in %d slots, bound %d", c.n, len(c.slots), nameCacheSlots)
		}
	}
}
