package relation

import (
	"fmt"
	"testing"

	"repro/internal/sym"
)

func TestInsertAndSchema(t *testing.T) {
	r := New(Int("docid"), Int("node"), Sym("strVal"))
	r.Insert(1, 2, int64(sym.Intern("Danny Ayers")))
	if r.Len() != 1 {
		t.Fatalf("len = %d", r.Len())
	}
	if r.Schema.Col("node") != 1 {
		t.Errorf("col(node) = %d", r.Schema.Col("node"))
	}
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch did not panic")
		}
	}()
	r.Insert(1)
}

// TestSymValueKind: whether a value is a symbol is its column's to say. String
// renders a symbol column as the interned text and an integer column as the
// number, even where the two hold the same int64; SymCol gives the position of
// a symbol column and refuses an integer one (and, like Col, an unknown name).
func TestSymValueKind(t *testing.T) {
	id := sym.Intern("relation-test-val")
	r := New(Int("n"), Sym("s"))
	r.Insert(int64(id), int64(id))
	if want := fmt.Sprintf("n | s\n%d | relation-test-val", id); r.String() != want {
		t.Errorf("String = %q, want %q", r.String(), want)
	}
	if c := r.Schema.SymCol("s"); c != 1 {
		t.Errorf("SymCol(s) = %d, want 1", c)
	}
	for _, name := range []string{"n", "absent"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SymCol(%q) did not panic", name)
				}
			}()
			r.Schema.SymCol(name)
		}()
	}
}
