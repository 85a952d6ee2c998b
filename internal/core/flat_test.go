package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestFlatTablesEqualMaps drives the open-addressing tables through random
// inserts and deletes over small key spaces — so probe runs collide, wrap
// around the table's end and are cut by backward-shift deletion — and
// requires after every step that each answers every key as a Go map does.
func TestFlatTablesEqualMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var live pairSet
	counts := map[int64]int32{}
	var vectors vecTable
	groups := map[string]*vecGroup{}
	key := func(v []int64) string { return fmt.Sprint(v) }
	for step := 0; step < 20000; step++ {
		k := packPair(int64(rng.Intn(12)), int64(rng.Intn(12)))
		if counts[k] > 0 && rng.Intn(2) == 0 {
			live.add(k, -1)
			if counts[k]--; counts[k] == 0 {
				delete(counts, k)
			}
		} else {
			live.add(k, 1)
			counts[k]++
		}
		v := []int64{int64(rng.Intn(6)), int64(rng.Intn(6)), int64(rng.Intn(3))}
		if g := groups[key(v)]; g != nil {
			vectors.remove(g)
			delete(groups, key(v))
		} else {
			g := &vecGroup{vars: v, hash: hashVec(v)}
			vectors.insert(g)
			groups[key(v)] = g
		}
		if live.n != len(counts) || vectors.n != len(groups) {
			t.Fatalf("step %d: %d pairs and %d vectors, want %d and %d", step, live.n, vectors.n, len(counts), len(groups))
		}
		for a := int64(0); a < 12; a++ {
			for b := int64(0); b < 12; b++ {
				if k := packPair(a, b); live.has(k) != (counts[k] > 0) {
					t.Fatalf("step %d: has(%d, %d) = %v", step, a, b, live.has(k))
				}
			}
		}
		for a := int64(0); a < 6; a++ {
			for b := int64(0); b < 6; b++ {
				for c := int64(0); c < 3; c++ {
					v := []int64{a, b, c}
					if got := vectors.get(v); got != groups[key(v)] {
						t.Fatalf("step %d: get(%v) = %v, want %v", step, v, got, groups[key(v)])
					}
				}
			}
		}
	}

	// Three keys whose home is the last slot run across the table's end;
	// deleting the first must pull the wrapped ones back.
	var s pairSet
	s.grow()
	var wrap []int64
	for k := int64(0); len(wrap) < 3; k++ {
		if s.home(k) == len(s.slots)-1 {
			wrap = append(wrap, k)
		}
	}
	for _, k := range wrap {
		s.add(k, 1)
	}
	s.add(wrap[0], -1)
	if s.has(wrap[0]) || !s.has(wrap[1]) || !s.has(wrap[2]) {
		t.Fatalf("after deleting %d of %v across the table's end: has = %v %v %v", wrap[0], wrap, s.has(wrap[0]), s.has(wrap[1]), s.has(wrap[2]))
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
