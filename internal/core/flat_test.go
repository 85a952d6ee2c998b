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
// walks to the index a Go map holds for it, that an insert returns the node
// a walk reaches at the depth asked for, and that the table holds exactly
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
			depth := step % (len(levels) + 1)
			node := tr.insert(levels, v[:], int32(len(live)), depth)
			live = append(live, v)
			if want := tr.walk(levels[:depth], v[:]); node != want {
				t.Fatalf("step %d: insert(%v) reached node %d at depth %d, a walk %d", step, v, node, depth, want)
			}
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
		s.insert(one, []int32{k}, int32(i), 1)
	}
	s.remove(one, wrap[:1])
	if s.walk(one, wrap[:1]) != -1 || s.walk(one, wrap[1:2]) != 1 || s.walk(one, wrap[2:]) != 2 {
		t.Fatalf("after deleting %d of %v across the table's end: walk = %d %d %d", wrap[0], wrap,
			s.walk(one, wrap[:1]), s.walk(one, wrap[1:2]), s.walk(one, wrap[2:]))
	}
}

// TestRowIndexLayouts checks both layouts of a row index against a scan:
// keys spanning about the row count (dense), keys spanning just past the
// dense rule (sparse, grouped by counting sort at 30 rows and sorted at 3),
// keys far apart (sparse, sorted), negative and extreme keys, and a rebuild
// that reuses the storage of a larger index; the key column lies inside a
// row of three values.
func TestRowIndexLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var x rowIndex
	for _, keys := range []func() int64{
		func() int64 { return int64(rng.Intn(40)) },
		func() int64 { return int64(rng.Intn(40)) - 20 },
		func() int64 { return int64(rng.Intn(200)) - 100 },
		func() int64 { return int64(rng.Intn(5)) * 1_000_003 },
		func() int64 { return []int64{-1 << 63, 1<<63 - 1, 0}[rng.Intn(3)] },
		func() int64 { return 7 },
	} {
		for _, n := range []int{0, 1, 30, 3} {
			var vals []int64
			for i := range n {
				vals = append(vals, int64(i), keys(), -int64(i))
			}
			rows := rowViews(vals, 3)
			x.build(vals, 3, 1)
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

// TestRetention drives one buffer's tracker through a stream of needs and
// asks, after the last, whether a capacity stays: a steady large need keeps
// up to retainFactor times its storage, a lone burst's storage goes within
// 2·retainDocs calm documents but not within retainDocs, and nothing under
// the floor is ever dropped.
func TestRetention(t *testing.T) {
	const big = 3 * retainFloor
	run := func(need, docs int) []int {
		out := make([]int, docs)
		for i := range out {
			out[i] = need
		}
		return out
	}
	for _, tc := range []struct {
		name  string
		needs []int
		c     int
		want  bool
	}{
		{"no document", nil, retainFloor, true},
		{"small needs, floor", run(1, 3*retainDocs), retainFloor, true},
		{"small needs, past the floor", run(1, 3*retainDocs), retainFloor + 1, false},
		{"after an aged burst, floor", append([]int{100 * big}, run(0, 3*retainDocs)...), retainFloor, true},
		{"steady large need", run(big, 3*retainDocs), retainFactor * big, true},
		{"steady large need, past the factor", run(big, 3*retainDocs), retainFactor*big + 1, false},
		{"burst, then fewer than retainDocs calm", append([]int{big}, run(1, retainDocs-1)...), big, true},
		{"burst last in an epoch, then fewer than retainDocs calm", append(run(1, retainDocs-1), append([]int{big}, run(1, retainDocs-1)...)...), big, true},
		{"burst, then 2·retainDocs calm", append([]int{big}, run(1, 2*retainDocs)...), big, false},
		{"burst last in an epoch, then 2·retainDocs calm", append(run(1, retainDocs-1), append([]int{big}, run(1, 2*retainDocs)...)...), big, false},
	} {
		var r retention
		for _, n := range tc.needs {
			r.note(n)
		}
		got := kept(&r, make([]int32, 1, tc.c))
		if (got != nil) != tc.want || len(got) != 0 {
			t.Errorf("%s: a capacity of %d kept as %v (length %d), want kept %v", tc.name, tc.c, got != nil, len(got), tc.want)
		}
	}
}
