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
		// The canonical variable names — the system-wide identity of
		// bound variables — must survive the round trip position by
		// position.
		cv1, cv2 := pat.CanonicalVars(), pat2.CanonicalVars()
		for i := range cv1 {
			if cv1[i] != cv2[i] {
				t.Fatalf("canonical var %d changed: %q vs %q (input %q)", i, cv1[i], cv2[i], src)
			}
		}
		// Normalization — the pattern, the index map and the key — equals
		// the reference derivation's.
		if msg := normalFormMismatch(pat); msg != "" {
			t.Fatalf("normal form of %q: %s", src, msg)
		}
	})
}
