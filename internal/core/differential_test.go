package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/sequential"
	"repro/internal/workload"
	"repro/internal/xmldoc"
	"repro/internal/xscl"
)

// The differential test: on random workloads, the match sets of MMQJP
// (Algorithm 4) and of the Sequential baseline (per-query nested loops over
// Stage-1 witnesses) must coincide. Matches are compared as sets of (query, leftDoc, rightDoc):
// MMQJP emits one match per RoutT row (template-node binding combination)
// while Sequential emits one per witness pair, so multiplicities may differ
// on patterns with non-template bound nodes; the (query, doc-pair) set is
// the invariant.

type matchKey struct {
	q          int64
	ldoc, rdoc int64
}

func matchSet(ms []Match) map[matchKey]bool {
	out := map[matchKey]bool{}
	for _, m := range ms {
		out[matchKey{int64(m.Query), int64(m.LeftDoc), int64(m.RightDoc)}] = true
	}
	return out
}

func seqMatchSet(ms []sequential.Match) map[matchKey]bool {
	out := map[matchKey]bool{}
	for _, m := range ms {
		out[matchKey{int64(m.Query), int64(m.LeftDoc), int64(m.RightDoc)}] = true
	}
	return out
}

// randomFlatDoc builds a two-level document with nLeaves leaves drawn from
// leafNames and values from a small domain (forcing value collisions).
func randomFlatDoc(rng *rand.Rand, id xmldoc.DocID, ts xmldoc.Timestamp, leafNames []string, domain int) *xmldoc.Document {
	b := xmldoc.NewBuilder(id, ts, "item")
	n := 1 + rng.Intn(len(leafNames))
	perm := rng.Perm(len(leafNames))
	for i := 0; i < n; i++ {
		b.Element(0, leafNames[perm[i]], fmt.Sprintf("val%d", rng.Intn(domain)))
	}
	return b.Build()
}

// randomDeepDoc builds a three-level document: intermediates m0..m2, each
// with leaves.
func randomDeepDoc(rng *rand.Rand, id xmldoc.DocID, ts xmldoc.Timestamp, domain int) *xmldoc.Document {
	b := xmldoc.NewBuilder(id, ts, "item")
	for m := 0; m < 2+rng.Intn(2); m++ {
		mid := b.Element(0, fmt.Sprintf("m%d", rng.Intn(3)), "")
		for l := 0; l < 1+rng.Intn(3); l++ {
			b.Element(mid, fmt.Sprintf("l%d", rng.Intn(4)), fmt.Sprintf("val%d", rng.Intn(domain)))
		}
	}
	return b.Build()
}

// randomFlatQuery builds a query joining k random leaves of the flat schema.
func randomFlatQuery(rng *rand.Rand, leafNames []string, maxK int, window int64, op string) *xscl.Query {
	k := 1 + rng.Intn(maxK)
	if k > len(leafNames) {
		k = len(leafNames)
	}
	lperm := rng.Perm(len(leafNames))[:k]
	rperm := rng.Perm(len(leafNames))[:k]
	lhs, rhs, pred := "S//item->v0", "S//item->w0", ""
	for i := 0; i < k; i++ {
		lhs += fmt.Sprintf("[.//%s->v%d]", leafNames[lperm[i]], i+1)
		rhs += fmt.Sprintf("[.//%s->w%d]", leafNames[rperm[i]], i+1)
		if pred != "" {
			pred += " AND "
		}
		pred += fmt.Sprintf("v%d=w%d", i+1, i+1)
	}
	return xscl.MustParse(fmt.Sprintf("%s %s{%s, %d} %s", lhs, op, pred, window, rhs))
}

// randomDeepQuery builds a query over the three-level schema, joining leaves
// under intermediates.
func randomDeepQuery(rng *rand.Rand, maxK int, window int64, op string) *xscl.Query {
	k := 1 + rng.Intn(maxK)
	side := func(pfx string) (string, []string) {
		s := fmt.Sprintf("S//item->%s0", pfx)
		var vars []string
		for i := 0; i < k; i++ {
			m := rng.Intn(3)
			l := rng.Intn(4)
			v := fmt.Sprintf("%s%d", pfx, i+1)
			s += fmt.Sprintf("[.//m%d[.//l%d->%s]]", m, l, v)
			vars = append(vars, v)
		}
		return s, vars
	}
	lhs, lv := side("v")
	rhs, rv := side("w")
	pred := ""
	for i := 0; i < k; i++ {
		if pred != "" {
			pred += " AND "
		}
		pred += fmt.Sprintf("%s=%s", lv[i], rv[i])
	}
	return xscl.MustParse(fmt.Sprintf("%s %s{%s, %d} %s", lhs, op, pred, window, rhs))
}

// randomTrial draws one trial's input: up to eight queries, each FOLLOWED BY
// or JOIN, and up to eleven documents over a domain of one to three values.
func randomTrial(rng *rand.Rand, deep bool) ([]*xscl.Query, []*xmldoc.Document) {
	leafNames := []string{"a", "b", "c", "d", "e"}
	nQueries := 1 + rng.Intn(8)
	nDocs := 2 + rng.Intn(10)
	domain := 1 + rng.Intn(3)
	ops := []string{"FOLLOWED BY", "JOIN"}

	var queries []*xscl.Query
	for i := 0; i < nQueries; i++ {
		window := int64(1 + rng.Intn(50))
		op := ops[rng.Intn(2)]
		if deep {
			queries = append(queries, randomDeepQuery(rng, 3, window, op))
		} else {
			queries = append(queries, randomFlatQuery(rng, leafNames, 3, window, op))
		}
	}
	var docs []*xmldoc.Document
	ts := xmldoc.Timestamp(0)
	for i := 0; i < nDocs; i++ {
		ts += xmldoc.Timestamp(rng.Intn(20))
		if deep {
			docs = append(docs, randomDeepDoc(rng, xmldoc.DocID(i+1), ts, domain))
		} else {
			docs = append(docs, randomFlatDoc(rng, xmldoc.DocID(i+1), ts, leafNames, domain))
		}
	}
	return queries, docs
}

// runDifferentialTrial checks one trial: the processor and the sequential
// baseline must produce the same match set.
func runDifferentialTrial(t *testing.T, trial int, deep bool, queries []*xscl.Query, docs []*xmldoc.Document) {
	t.Helper()
	p := NewProcessor(Config{})
	for _, q := range queries {
		p.MustRegister(q)
	}
	all := map[matchKey]bool{}
	for _, d := range docs {
		for k := range matchSet(p.Process("S", d)) {
			all[k] = true
		}
	}

	sp := sequential.NewProcessor()
	for _, q := range queries {
		sp.MustRegister(q)
	}
	seqAll := map[matchKey]bool{}
	for _, d := range docs {
		for k := range seqMatchSet(sp.Process("S", d)) {
			seqAll[k] = true
		}
	}

	if !reflect.DeepEqual(all, seqAll) {
		t.Fatalf("trial %d (deep=%v): MMQJP vs Sequential:\nmmqjp: %v\nseq:   %v\nqueries: %s\ndocs: %s",
			trial, deep, keys(all), keys(seqAll), querySources(queries), docDump(docs))
	}
}

func keys(m map[matchKey]bool) []string {
	var out []string
	for k := range m {
		out = append(out, fmt.Sprintf("q%d:%d->%d", k.q, k.ldoc, k.rdoc))
	}
	sort.Strings(out)
	return out
}

func querySources(qs []*xscl.Query) string {
	s := ""
	for i, q := range qs {
		s += fmt.Sprintf("\n  q%d: %s", i, q)
	}
	return s
}

func docDump(ds []*xmldoc.Document) string {
	s := ""
	for _, d := range ds {
		s += fmt.Sprintf("\n  doc %d ts %d: %s", d.ID, d.Timestamp, d.XMLText())
	}
	return s
}

func TestDifferentialFlatSchema(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 120; trial++ {
		queries, docs := randomTrial(rng, false)
		runDifferentialTrial(t, trial, false, queries, docs)
	}
}

func TestDifferentialDeepSchema(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 80; trial++ {
		queries, docs := randomTrial(rng, true)
		runDifferentialTrial(t, trial, true, queries, docs)
	}
}

func TestDifferentialLongStreamWithGC(t *testing.T) {
	// Longer stream with small windows so GC kicks in for both systems.
	rng := rand.New(rand.NewSource(303))
	leafNames := []string{"a", "b", "c"}
	var queries []*xscl.Query
	for i := 0; i < 5; i++ {
		queries = append(queries, randomFlatQuery(rng, leafNames, 2, int64(5+rng.Intn(20)), "FOLLOWED BY"))
	}
	p := NewProcessor(Config{})
	sp := sequential.NewProcessor()
	for _, q := range queries {
		p.MustRegister(q)
		sp.MustRegister(q)
	}
	ts := xmldoc.Timestamp(0)
	for i := 0; i < 300; i++ {
		ts += xmldoc.Timestamp(rng.Intn(4))
		d := randomFlatDoc(rng, xmldoc.DocID(i+1), ts, leafNames, 2)
		a := matchSet(p.Process("S", d))
		c := seqMatchSet(sp.Process("S", d))
		if !reflect.DeepEqual(a, c) {
			t.Fatalf("doc %d: divergence:\ncore: %v\nseq:  %v", i+1, keys(a), keys(c))
		}
	}
	// GC must have bounded the state.
	if n := p.State().NumDocs(); n > 150 {
		t.Errorf("state holds %d docs, GC ineffective", n)
	}
}

// TestDifferentialOneOperatorPerSchema runs trials whose flat queries are
// all JOIN and whose deep queries are all FOLLOWED BY, alternating, over a
// two-value domain, so every document collides on values.
func TestDifferentialOneOperatorPerSchema(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	leafNames := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 60; trial++ {
		deep := trial%2 == 1
		var queries []*xscl.Query
		for i := 0; i < 1+rng.Intn(6); i++ {
			window := int64(1 + rng.Intn(40))
			if deep {
				queries = append(queries, randomDeepQuery(rng, 3, window, "FOLLOWED BY"))
			} else {
				queries = append(queries, randomFlatQuery(rng, leafNames, 3, window, "JOIN"))
			}
		}
		var docs []*xmldoc.Document
		ts := xmldoc.Timestamp(0)
		for i := 0; i < 2+rng.Intn(8); i++ {
			ts += xmldoc.Timestamp(rng.Intn(15))
			if deep {
				docs = append(docs, randomDeepDoc(rng, xmldoc.DocID(i+1), ts, 2))
			} else {
				docs = append(docs, randomFlatDoc(rng, xmldoc.DocID(i+1), ts, leafNames, 2))
			}
		}
		runDifferentialTrial(t, trial, deep, queries, docs)
	}
}

// TestDeepFeedFilteredJoinsMatchSequential publishes deep-feed documents to
// the deep-feed subscriptions — path filters and the three value joins —
// together with joins that filter a join path the deep-feed joins also bind:
// one with a non-join predicate at its left block's root, one with it below
// the root, and the below-root block's unfiltered twin. Per document, the
// (query, left document, right document) set must equal the sequential
// oracle's, and the filters must decide some match both ways: a cited entry
// that has a ref of its own and one that has none.
func TestDeepFeedFilteredJoinsMatchSequential(t *testing.T) {
	// A reference cites one of the last 50 documents, so a window of 50
	// sees every citation and keeps the oracle's stored witnesses short.
	deep := workload.DefaultDeepFeed()
	deep.Window = 50
	queries := deep.Queries(rand.New(rand.NewSource(1)), 110)
	filtered := []string{
		"S//entry->e[./id->x][./ref] FOLLOWED BY{x=y, 50} S//entry->f[./ref->y]",
		"S//feed->r[.//entry[./ref]/id->x] FOLLOWED BY{x=y, 50} S//entry->f[./ref->y]",
		"S//feed->r[.//entry/id->x] FOLLOWED BY{x=y, 50} S//entry->f[./ref->y]",
	}
	first := len(queries)
	for _, src := range filtered {
		queries = append(queries, xscl.MustParse(src))
	}
	p, sp := NewProcessor(Config{}), sequential.NewProcessor()
	for _, q := range queries {
		p.MustRegister(q)
		sp.MustRegister(q)
	}
	perQuery := map[int64]int{}
	for _, d := range deep.Stream(rand.New(rand.NewSource(8)), 300) {
		got, want := matchSet(p.Process("S", d)), seqMatchSet(sp.Process("S", d))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("document %d: MMQJP %v, sequential %v", d.ID, keys(got), keys(want))
		}
		for k := range want {
			perQuery[k.q]++
		}
	}
	rooted, below, twin := perQuery[int64(first)], perQuery[int64(first+1)], perQuery[int64(first+2)]
	t.Logf("matched document pairs: root filter %d, below-root filter %d, its unfiltered twin %d", rooted, below, twin)
	if rooted == 0 || below == 0 || twin <= below {
		t.Fatal("test premise: the filters pass some cited entries and reject others")
	}
}
