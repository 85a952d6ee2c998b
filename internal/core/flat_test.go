package core

import (
	"math/rand"
	"slices"
	"testing"
)

// TestFlatTablesEqualMaps drives the trie's open-addressing table through
// random inserts and deletes of three-level paths over small variable
// ranges — so probe runs collide, wrap around the table's end and are cut by
// backward-shift deletion — and requires after every step that every vector
// walks to the index a Go map holds for it, and that the table holds exactly
// one edge per distinct live prefix.
func TestFlatTablesEqualMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	levels := []int{2, 0, 1}
	var tr vecTrie
	index := map[[3]int32]int32{} // live vector -> its index
	var live [][3]int32           // by index, as Template.vecList
	for step := 0; step < 20000; step++ {
		v := [3]int32{int32(rng.Intn(6)), int32(rng.Intn(6)), int32(rng.Intn(3))}
		if gi, ok := index[v]; ok {
			if got := tr.remove(levels, v[:]); got != gi {
				t.Fatalf("step %d: remove(%v) = %d, want %d", step, v, got, gi)
			}
			last := int32(len(live) - 1)
			if gi != last {
				live[gi] = live[last]
				index[live[gi]] = gi
				tr.relink(levels, live[gi][:], gi)
			}
			live = live[:last]
			delete(index, v)
		} else {
			index[v] = int32(len(live))
			tr.insert(levels, v[:], int32(len(live)))
			live = append(live, v)
		}
		prefixes := map[[3]int32]bool{}
		for _, v := range live {
			prefixes[[3]int32{v[2], -1, -1}] = true
			prefixes[[3]int32{v[2], v[0], -1}] = true
			prefixes[v] = true
		}
		if tr.n != len(prefixes) {
			t.Fatalf("step %d: %d edges, want %d", step, tr.n, len(prefixes))
		}
		for a := int32(0); a < 6; a++ {
			for b := int32(0); b < 6; b++ {
				for c := int32(0); c < 3; c++ {
					v := [3]int32{a, b, c}
					want, ok := index[v]
					if !ok {
						want = -1
					}
					if got := tr.walk(levels, v[:]); got != want {
						t.Fatalf("step %d: walk(%v) = %d, want %d", step, v, got, want)
					}
				}
			}
		}
	}

	// Three edges whose home is the last slot run across the table's end;
	// deleting the first must pull the wrapped ones back.
	var s vecTrie
	s.slots = make([]trieEdge, 8)
	s.shift = tableShift(len(s.slots))
	var wrap []int32
	for k := int32(0); len(wrap) < 3; k++ {
		if s.home(packPair(0, int64(k))) == len(s.slots)-1 {
			wrap = append(wrap, k)
		}
	}
	one := []int{0}
	for i, k := range wrap {
		s.insert(one, []int32{k}, int32(i))
	}
	s.remove(one, wrap[:1])
	if s.walk(one, wrap[:1]) != -1 || s.walk(one, wrap[1:2]) != 1 || s.walk(one, wrap[2:]) != 2 {
		t.Fatalf("after deleting %d of %v across the table's end: walk = %d %d %d", wrap[0], wrap,
			s.walk(one, wrap[:1]), s.walk(one, wrap[1:2]), s.walk(one, wrap[2:]))
	}
}

// TestRowIndexLayouts checks both layouts of a row index against a scan:
// keys spanning about the row count (dense), keys far apart (sparse),
// negative and extreme keys, and a rebuild that reuses the storage of a
// larger index.
func TestRowIndexLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var x rowIndex
	for _, keys := range []func() int64{
		func() int64 { return int64(rng.Intn(40)) },
		func() int64 { return int64(rng.Intn(40)) - 20 },
		func() int64 { return int64(rng.Intn(5)) * 1_000_003 },
		func() int64 { return []int64{-1 << 63, 1<<63 - 1, 0}[rng.Intn(3)] },
		func() int64 { return 7 },
	} {
		for _, n := range []int{0, 1, 30, 3} {
			rows := make([][]int64, n)
			for i := range rows {
				rows[i] = []int64{int64(i), keys()}
			}
			x.build(rows, 1)
			probe := []int64{-1 << 63, 1<<63 - 1, -21, 41, 1_000_003}
			for _, r := range rows {
				probe = append(probe, r[1], r[1]+1, r[1]-1)
			}
			for _, k := range probe {
				var want []int32
				for i, r := range rows {
					if r[1] == k {
						want = append(want, int32(i))
					}
				}
				if got := x.get(k); !slices.Equal(got, want) {
					t.Fatalf("%d rows, sparse %v: get(%d) = %v, want %v", n, x.sparse, k, got, want)
				}
			}
		}
	}
}
