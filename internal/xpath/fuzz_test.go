package xpath

import "testing"

// FuzzParseQuery fuzzes the XSCL query-block parser. Properties:
//
//   - no panic on arbitrary input (the fuzzer's implicit check);
//   - parse → print → parse stability: a successfully parsed block
//     renders (Pattern.String) to a form that reparses to the same
//     rendering and the same canonical key, i.e. printing is a fixpoint
//     after one normalization;
//   - NormalForm and NormalizedFullyBound equal the reference derivation
//     (referenceNormalizedFullyBound): pattern, index map and key.
//
// The corpus seeds the grammar's features: axes, attributes, wildcards,
// nested predicates, bindings with primes, and hyphenated names.
func FuzzParseQuery(f *testing.F) {
	for _, seed := range []string{
		"S//book->x1[.//author->x2][.//title->x3]",
		"S//item->v0[./channel_url->v1][./title->v2]",
		"S/r->v0[./l1->v1][./l2->v2][./l3->v3]",
		"S//a->x[.//b[./c->y][.//@id->z]]",
		"S//*->w[./@*->a]",
		"Feed//item->x5'[./item-url->y']",
		"S//m0[.//l2->v]",
		"S/a/b/c->x",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		pat, err := ParseBlock(src)
		if err != nil {
			return
		}
		s1 := pat.String()
		pat2, err := ParseBlock(s1)
		if err != nil {
			t.Fatalf("printed form does not reparse:\ninput: %q\nprint: %q\nerr: %v", src, s1, err)
		}
		if s2 := pat2.String(); s2 != s1 {
			t.Fatalf("print not a fixpoint:\ninput: %q\nprint1: %q\nprint2: %q", src, s1, s2)
		}
		if k1, k2 := pat.CanonicalKey(), pat2.CanonicalKey(); k1 != k2 {
			t.Fatalf("canonical key changed across round trip:\ninput: %q\nkey1: %q\nkey2: %q", src, k1, k2)
		}
		if len(pat2.Nodes) != len(pat.Nodes) || len(pat2.VarNodes) != len(pat.VarNodes) {
			t.Fatalf("round trip changed pattern shape: %d/%d nodes, %d/%d vars",
				len(pat.Nodes), len(pat2.Nodes), len(pat.VarNodes), len(pat2.VarNodes))
		}
		// Every node's step and subtree key — what the join processor
		// names witness rows with — must survive the round trip position
		// by position.
		for i, n := range pat.Nodes {
			n2 := pat2.Nodes[i]
			if s1, s2 := n.AppendStep(nil), n2.AppendStep(nil); string(s1) != string(s2) {
				t.Fatalf("step %d changed: %q vs %q (input %q)", i, s1, s2, src)
			}
			if k1, k2 := n.AppendKey(nil), n2.AppendKey(nil); string(k1) != string(k2) {
				t.Fatalf("subtree key %d changed: %q vs %q (input %q)", i, k1, k2, src)
			}
		}
		// Normalization — the pattern, the index map and the key — equals
		// the reference derivation's.
		if msg := normalFormMismatch(pat); msg != "" {
			t.Fatalf("normal form of %q: %s", src, msg)
		}
	})
}
