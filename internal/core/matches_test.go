package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/xmldoc"
)

// TestKeyedOrderEqualsSortMatches holds the collector's order — keys of
// (query, left document, position) sorted, the matches read only on a tie —
// to the canonical order it replaced, the matches themselves sorted under
// matchCmp (sortMatches). The random multisets are built to tie on the key:
// a handful of queries and documents, JOIN self-matches (left and right the
// same document), several witnesses per document pair differing only in
// roots or in the binding vector, one query reached through two templates,
// single-block matches (no template) mixed with Stage-2 ones, exact
// duplicates — spread at random over a singles buffer and one to four shard
// buffers. The same matches, dealt to two or three partitions by query under
// local ids, must merge (Matches.Merge) to the same sequence.
func TestKeyedOrderEqualsSortMatches(t *testing.T) {
	tmpls := []*Template{nil, {Sig: "A", N: 3}, {Sig: "B", N: 3}}
	rng := rand.New(rand.NewSource(22))
	randomMatch := func() Match {
		m := Match{
			Query:    QueryID(rng.Intn(4)),
			LeftDoc:  xmldoc.DocID(1 + rng.Intn(3)),
			RightDoc: xmldoc.DocID(1 + rng.Intn(3)),
			LeftRoot: xmldoc.NodeID(rng.Intn(2)), RightRoot: xmldoc.NodeID(rng.Intn(2)),
			Template: tmpls[rng.Intn(len(tmpls))],
		}
		if rng.Intn(3) == 0 {
			m.RightDoc = m.LeftDoc
		}
		m.LeftTS, m.RightTS = xmldoc.Timestamp(10*m.LeftDoc), xmldoc.Timestamp(10*m.RightDoc)
		if m.Template != nil {
			m.Bindings = []xmldoc.NodeID{m.LeftRoot, m.RightRoot, xmldoc.NodeID(rng.Intn(2))}
		}
		return m
	}
	ties := 0
	for round := 0; round < 300; round++ {
		n := rng.Intn(60)
		bufs := make([][]Match, 2+rng.Intn(4))
		var want []Match
		for i := 0; i < n; i++ {
			m := randomMatch()
			if len(want) > 0 && rng.Intn(5) == 0 {
				m = want[rng.Intn(len(want))]
			}
			b := 1 + rng.Intn(len(bufs)-1)
			if m.Template == nil {
				b = 0
			}
			bufs[b] = append(bufs[b], m)
			want = append(want, m)
		}
		sortMatches(want)
		for i := 1; i < len(want); i++ {
			if want[i].Query == want[i-1].Query && want[i].LeftDoc == want[i-1].LeftDoc {
				ties++
			}
		}
		if len(want) == 0 {
			want = nil
		}

		var ms Matches
		for _, b := range bufs {
			ms.add(b)
		}
		ms.sort()
		if got := ms.Slice(); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: keyed order differs from the sorted matches\ngot:  %v\nwant: %v", round, got, want)
		}

		// Deal the queries to partitions: global id g lives on partition
		// g mod parts under the local id its rank there gives it.
		parts := 2 + rng.Intn(2)
		runs := make([]*Matches, parts)
		global := make([][]QueryID, parts)
		local := map[QueryID]QueryID{}
		for g := QueryID(0); g < 4; g++ {
			p := int(g) % parts
			local[g] = QueryID(len(global[p]))
			global[p] = append(global[p], g)
		}
		for p := range runs {
			runs[p] = &Matches{}
			for _, b := range bufs {
				var mine []Match
				for _, m := range b {
					if int(m.Query)%parts == p {
						m.Query = local[m.Query]
						mine = append(mine, m)
					}
				}
				runs[p].add(mine)
			}
			runs[p].sort()
		}
		var merged Matches
		merged.Merge(runs, global)
		if got := merged.Slice(); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: merge of %d partition runs differs from the sorted matches\ngot:  %v\nwant: %v", round, parts, got, want)
		}
	}
	if ties < 1000 {
		t.Errorf("only %d adjacent matches tied on (query, left document): the multisets do not exercise the tie-break", ties)
	}
}
