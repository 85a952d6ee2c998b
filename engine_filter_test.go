package mmqjp

import (
	"fmt"
	"slices"
	"testing"
)

// Blocks that bind one path but filter it differently must not share the
// path's witness rows: each query's template reads only rows written under
// its own filter class. These cases are checked against ProcessorSequential,
// which evaluates every query on its own witnesses.

// matchedQueries subscribes queries on a fresh engine of the given kind,
// publishes docs with ids and timestamps 1, 2, … and returns, per document,
// the ids of the queries it matched, ascending and without repeats.
func matchedQueries(t *testing.T, kind ProcessorKind, queries, docs []string) [][]QueryID {
	t.Helper()
	e := New(Options{Processor: kind})
	for _, q := range queries {
		e.MustSubscribe(q)
	}
	out := make([][]QueryID, len(docs))
	for i, x := range docs {
		ms, err := e.AppendPublishXML(nil, "S", x, int64(i+1), int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			out[i] = append(out[i], m.Query)
		}
		slices.Sort(out[i])
		out[i] = slices.Compact(out[i])
	}
	return out
}

// checkFilterCase holds MMQJP and the sequential baseline to want.
func checkFilterCase(t *testing.T, queries, docs []string, want [][]QueryID) {
	t.Helper()
	seq := matchedQueries(t, ProcessorSequential, queries, docs)
	got := matchedQueries(t, ProcessorMMQJP, queries, docs)
	if fmt.Sprint(got) != fmt.Sprint(seq) {
		t.Errorf("per document MMQJP matched %v, sequential %v", got, seq)
	}
	if fmt.Sprint(seq) != fmt.Sprint(want) {
		t.Errorf("per document sequential matched %v, want %v", seq, want)
	}
}

// TestFilterAtBlockRootMatchesSequential: two queries differ only in the
// topic their left block's root must have. The entry has t3, so only the
// second query matches.
func TestFilterAtBlockRootMatchesSequential(t *testing.T) {
	checkFilterCase(t,
		[]string{
			"S//entry->e[./id->x][./topics/t17] FOLLOWED BY{x=y,200} S//entry->f[./ref->y]",
			"S//entry->e[./id->x][./topics/t3] FOLLOWED BY{x=y,200} S//entry->f[./ref->y]",
		},
		[]string{
			"<feed><entry><id>a</id><topics><t3/></topics></entry></feed>",
			"<feed><entry><ref>a</ref></entry></feed>",
		},
		[][]QueryID{nil, {1}})
}

// TestFilterBelowBlockRootMatchesSequential: the first query wants an id
// with an <en/> child, the second any id. Only the id without one joins the
// later reference, so only the second query matches.
func TestFilterBelowBlockRootMatchesSequential(t *testing.T) {
	checkFilterCase(t,
		[]string{
			"S//entry->e[./id->x[./en]] FOLLOWED BY{x=y,200} S//entry->f[./ref->y]",
			"S//entry->e[./id->x] FOLLOWED BY{x=y,200} S//entry->f[./ref->y]",
		},
		[]string{
			"<feed><entry><id>a<en/></id><id>b</id></entry></feed>",
			"<feed><entry><ref>b</ref></entry></feed>",
		},
		[][]QueryID{nil, {1}})
}

// TestSharedBlockDifferentJoinsMatchSequential: queries 0 and 1 share one
// left block and join on different variables of it, so each drops the branch
// the other joins on; query 2 has the same block without its topic filter.
// Only the second entry of the first document has the topic: the reference
// to the first entry's id matches query 2 alone, and the reference to the
// second entry's ref matches query 1 alone.
func TestSharedBlockDifferentJoinsMatchSequential(t *testing.T) {
	checkFilterCase(t,
		[]string{
			"S//entry->e[./id->x][./ref->z][./topics/t1] FOLLOWED BY{x=y,200} S//entry->f[./ref->y]",
			"S//entry->e[./id->x][./ref->z][./topics/t1] FOLLOWED BY{z=y,200} S//entry->f[./ref->y]",
			"S//entry->e[./id->x][./ref->z] FOLLOWED BY{x=y,200} S//entry->f[./ref->y]",
		},
		[]string{
			"<feed><entry><id>a</id><ref>b</ref></entry><entry><id>c</id><ref>d</ref><topics><t1/></topics></entry></feed>",
			"<feed><entry><ref>a</ref></entry><entry><ref>b</ref></entry></feed>",
			"<feed><entry><ref>d</ref></entry></feed>",
		},
		[][]QueryID{nil, {2}, {1}})
}
