package relation

import (
	"testing"

	"repro/internal/sym"
)

func TestArenaTupleIsolation(t *testing.T) {
	var a Arena
	t1 := a.Tuple(3)
	t2 := a.Tuple(2)
	t1[0], t1[1], t1[2] = Int(1), Int(2), Int(3)
	t2[0], t2[1] = Int(9), Int(8)
	if t1[0].I != 1 || t1[2].I != 3 || t2[0].I != 9 {
		t.Fatalf("arena tuples overlap: %v %v", t1, t2)
	}
	// Capacity is clamped: appending to t1 must not clobber t2.
	t3 := append(t1, Int(7))
	if t2[0].I != 9 {
		t.Fatalf("append to arena tuple bled into neighbour: %v", t2)
	}
	_ = t3
}

func TestArenaLargeTupleAndChunkRollover(t *testing.T) {
	var a Arena
	big := a.Tuple(arenaChunkMax + 5)
	if len(big) != arenaChunkMax+5 {
		t.Fatalf("large tuple len = %d", len(big))
	}
	for i := 0; i < 3*arenaChunkMax; i++ {
		tu := a.Tuple(3)
		if len(tu) != 3 {
			t.Fatalf("tuple len = %d", len(tu))
		}
	}
}

func TestArenaInsert(t *testing.T) {
	var a Arena
	r := New("doc", "node", "val")
	a.Insert(r, Int(1), Int(2), Str("x"))
	a.Insert(r, Int(3), Int(4), Str("y"))
	if r.Len() != 2 || r.Rows[1][2].S != "y" {
		t.Fatalf("arena insert rows = %v", r.Rows)
	}
}

// TestArenaReset pins what reuse relies on: after Reset the arena hands out
// the same storage again, zeroed, without allocating; an arena that had to
// grow keeps its largest chunk, so the next user of the same size does not
// grow again; and resetting an arena nobody used is harmless.
func TestArenaReset(t *testing.T) {
	var a Arena
	a.Reset()
	fill := func(rows int) []Tuple {
		var out []Tuple
		for i := 0; i < rows; i++ {
			tu := a.Tuple(4)
			for k := range tu {
				if tu[k] != (Value{}) {
					t.Fatalf("row %d: tuple not zeroed: %v", i, tu)
				}
				tu[k] = Str("x")
			}
			out = append(out, tu)
		}
		return out
	}
	first := fill(10)
	a.Reset()
	second := fill(10)
	if &first[0][0] != &second[0][0] || &first[9][3] != &second[9][3] {
		t.Error("Reset did not hand the same storage out again")
	}
	// Grow past the first chunk, reset, and refill to the same size: the
	// second fill must fit the chunk the first one ended on.
	a.Reset()
	fill(arenaChunkStart) // 4 * arenaChunkStart values: two more chunks
	a.Reset()
	if allocs := testing.AllocsPerRun(1, func() {
		a.Reset()
		for i := 0; i < arenaChunkStart/2; i++ {
			a.Tuple(4)
		}
	}); allocs != 0 {
		t.Errorf("refilling a reset arena allocated %.0f times, want 0", allocs)
	}
}

func TestSymValueKind(t *testing.T) {
	id := sym.Intern("arena-test-val")
	v := Sym(id)
	if !v.Equal(Sym(id)) {
		t.Fatal("equal symbols compare unequal")
	}
	if v.Equal(Int(int64(id))) {
		t.Fatal("symbol compares equal to int of same id")
	}
	if v.Equal(Str("arena-test-val")) {
		t.Fatal("symbol compares equal to string of same text")
	}
	if v.String() != "arena-test-val" {
		t.Fatalf("Sym String = %q", v.String())
	}
	if v.SymID() != id {
		t.Fatalf("SymID = %d, want %d", v.SymID(), id)
	}
	// Key encoding is distinct per kind.
	ks := Tuple{Sym(id)}.Key([]int{0})
	ki := Tuple{Int(int64(id))}.Key([]int{0})
	kt := Tuple{Str("arena-test-val")}.Key([]int{0})
	if ks == ki || ks == kt {
		t.Fatalf("symbol key collides with other kinds: %q %q %q", ks, ki, kt)
	}
}
