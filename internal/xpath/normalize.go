package xpath

import (
	"bytes"
	"strconv"
)

// NormalForm is a pattern's normalized, fully bound form as registration
// needs it: the canonical key and the index map, computed into storage the
// next Compute reuses. The normalized pattern itself — every node bound (an
// unbound node gets a synthetic name derived from its position) and the
// children of every node sorted into a canonical order — is built only on
// request (Pattern), so deciding that a block equals an already registered
// pattern allocates nothing.
//
// The MMQJP processor registers normalized patterns with the shared XPath
// evaluator: full binding makes Stage-1 witnesses enumerate a document node
// for every pattern node, and canonical child order aligns node indexes
// across structurally identical blocks, so their witness relations are shared
// tuple-for-tuple.
type NormalForm struct {
	// Key is the normalized pattern's CanonicalKey.
	Key []byte
	// Map maps each node index of the pattern to the index of the
	// corresponding node in the normalized pattern.
	Map []int

	// enc holds every node's structural encoding back to back; span[i] is
	// node i's. kids lists each node's children sorted by encoding, node i's
	// from kidAt[i] to kidAt[i+1].
	enc   []byte
	span  [][2]int32
	kids  []int32
	kidAt []int32
}

// Compute fills f with the normal form of p. Each node's encoding — its
// CanonicalKey step followed by its sorted children's encodings — is built
// once, bottom-up (children come after their parent in pre-order), and the
// children are sorted on it; the root's is the key.
func (f *NormalForm) Compute(p *Pattern) {
	n := len(p.Nodes)
	f.span = resize(f.span, n)
	f.kidAt = resize(f.kidAt, n+1)
	f.kids = f.kids[:0]
	for i, nd := range p.Nodes {
		f.kidAt[i] = int32(len(f.kids))
		for _, c := range nd.Children {
			f.kids = append(f.kids, int32(c.Index))
		}
	}
	f.kidAt[n] = int32(len(f.kids))

	f.enc = f.enc[:0]
	for i := n - 1; i >= 0; i-- {
		kids := f.kids[f.kidAt[i]:f.kidAt[i+1]]
		// Insertion sort: stable, and a node has a handful of children.
		for j := 1; j < len(kids); j++ {
			for k := j; k > 0 && bytes.Compare(f.encOf(kids[k]), f.encOf(kids[k-1])) < 0; k-- {
				kids[k], kids[k-1] = kids[k-1], kids[k]
			}
		}
		start := len(f.enc)
		f.enc = appendStep(f.enc, p.Nodes[i], true)
		if len(kids) > 0 {
			f.enc = append(f.enc, '[')
			for j, c := range kids {
				if j > 0 {
					f.enc = append(f.enc, ',')
				}
				f.enc = append(f.enc, f.encOf(c)...)
			}
			f.enc = append(f.enc, ']')
		}
		f.span[i] = [2]int32{int32(start), int32(len(f.enc))}
	}
	f.Key = append(append(append(f.Key[:0], p.Stream...), '|'), f.encOf(0)...)

	f.Map = resize(f.Map, n)
	f.number(0, 0)
}

func (f *NormalForm) encOf(i int32) []byte { return f.enc[f.span[i][0]:f.span[i][1]] }

// number gives node i and its subtree their normalized indexes, in pre-order
// of the sorted children, starting at next; it returns the next free index.
func (f *NormalForm) number(i int32, next int) int {
	f.Map[i] = next
	next++
	for _, c := range f.kids[f.kidAt[i]:f.kidAt[i+1]] {
		next = f.number(c, next)
	}
	return next
}

// Pattern builds the normalized pattern of p, which f must hold the normal
// form of. An unbound node is named "$k", k counting the unbound nodes before
// it in p's pre-order.
func (f *NormalForm) Pattern(p *Pattern) *Pattern {
	vars := make([]string, len(p.Nodes))
	synth := 0
	for i, n := range p.Nodes {
		if vars[i] = n.Var; n.Var == "" {
			vars[i] = "$" + strconv.Itoa(synth)
			synth++
		}
	}
	np := &Pattern{Stream: p.Stream, Root: f.clone(p, vars, 0)}
	np.finalize()
	return np
}

// clone copies node i of p and its subtree with the children sorted.
func (f *NormalForm) clone(p *Pattern, vars []string, i int32) *PatternNode {
	n := p.Nodes[i]
	c := &PatternNode{Axis: n.Axis, Name: n.Name, IsAttr: n.IsAttr, Var: vars[i]}
	for _, k := range f.kids[f.kidAt[i]:f.kidAt[i+1]] {
		c.Children = append(c.Children, f.clone(p, vars, k))
	}
	return c
}

// NormalizedFullyBound returns the normalized, fully bound clone of the
// pattern (NormalForm) and the map from each node index of p to the index of
// the corresponding node in the clone.
func (p *Pattern) NormalizedFullyBound() (*Pattern, []int) {
	var f NormalForm
	f.Compute(p)
	return f.Pattern(p), f.Map
}

// appendStep appends n's step of a canonical key: the bound marker when bound,
// the axis, and the name test.
func appendStep(b []byte, n *PatternNode, bound bool) []byte {
	if bound {
		b = append(b, '!')
	}
	b = append(b, n.Axis.String()...)
	if n.IsAttr {
		b = append(b, '@')
	}
	return append(b, n.Name...)
}

// resize returns s with length n, reusing its storage when it is large
// enough; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
