package relation

import (
	"testing"

	"repro/internal/sym"
)

func TestArenaTupleIsolation(t *testing.T) {
	var a Arena
	t1 := a.Row(3)
	t2 := a.Row(2)
	t1[0], t1[1], t1[2] = 1, 2, 3
	t2[0], t2[1] = 9, 8
	if t1[0] != 1 || t1[2] != 3 || t2[0] != 9 {
		t.Fatalf("arena rows overlap: %v %v", t1, t2)
	}
	// Capacity is clamped: appending to t1 must not clobber t2.
	t3 := append(t1, 7)
	if t2[0] != 9 {
		t.Fatalf("append to arena row bled into neighbour: %v", t2)
	}
	_ = t3
}

func TestArenaLargeTupleAndChunkRollover(t *testing.T) {
	var a Arena
	big := a.Row(arenaChunkMax + 5)
	if len(big) != arenaChunkMax+5 {
		t.Fatalf("large row len = %d", len(big))
	}
	for i := 0; i < 3*arenaChunkMax; i++ {
		row := a.Row(3)
		if len(row) != 3 {
			t.Fatalf("row len = %d", len(row))
		}
	}
}

func TestArenaInsert(t *testing.T) {
	var a Arena
	r := New(Int("doc"), Int("node"), Sym("val"))
	a.Insert(r, 1, 2, int64(sym.Intern("x")))
	a.Insert(r, 3, 4, int64(sym.Intern("y")))
	if r.Len() != 2 || sym.Name(sym.ID(r.Rows[1][2])) != "y" {
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
	fill := func(rows int) [][]int64 {
		var out [][]int64
		for i := 0; i < rows; i++ {
			row := a.Row(4)
			for k := range row {
				if row[k] != 0 {
					t.Fatalf("row %d: not zeroed: %v", i, row)
				}
				row[k] = 7
			}
			out = append(out, row)
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
			a.Row(4)
		}
	}); allocs != 0 {
		t.Errorf("refilling a reset arena allocated %.0f times, want 0", allocs)
	}
}
