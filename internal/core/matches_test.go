package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/workload"
	"repro/internal/xmldoc"
	"repro/internal/xscl"
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
// buffers.
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
	}
	if ties < 1000 {
		t.Errorf("only %d adjacent matches tied on (query, left document): the multisets do not exercise the tie-break", ties)
	}
}

// TestMatchesOwnedByCaller pins who owns a publish's result: the []Match a
// document returns, and the Bindings inside it, are the caller's for good.
// Stage 2 emits into buffers the shards keep and reuse across documents
// (shard.ex), so every entry point keeps each document's slice untouched
// until the stream ends — through documents with more, fewer and no matches,
// window collections included — and only then fingerprints it, against a
// second processor of the same configuration whose output was fingerprinted
// document by document. A result aliasing a reused buffer would have been
// overwritten by then.
func TestMatchesOwnedByCaller(t *testing.T) {
	gen := workload.DefaultRSS()
	queries := gen.Queries(rand.New(rand.NewSource(3)), 60)
	for _, q := range queries {
		q.Window = 40
	}
	// A single-block match travels the same result slice; every third
	// document has one.
	queries = append(queries, xscl.MustParse("S//item->x[./flag->f]"))
	rng := rand.New(rand.NewSource(4))
	docs := make([]*xmldoc.Document, 300)
	for i := range docs {
		b := xmldoc.NewBuilder(xmldoc.DocID(i+1), xmldoc.Timestamp(i+1), "item")
		for _, leaf := range gen.LeafNames() {
			b.Element(0, leaf, fmt.Sprintf("%s-%d", leaf, rng.Intn(12)))
		}
		if i%3 == 0 {
			b.Element(0, "flag", "set")
		}
		docs[i] = b.Build()
	}

	for _, workers := range []int{1, 4} {
		newProcessor := func() *Processor {
			p := NewProcessor(Config{ViewMaterialization: true, Workers: workers, PipelineDepth: 2})
			for _, q := range queries {
				if _, err := p.Register(q); err != nil {
					t.Fatal(err)
				}
			}
			return p
		}
		for _, mode := range []struct {
			name string
			// run publishes docs on p and returns every document's
			// result as the entry point handed it out.
			run func(p *Processor) [][]Match
		}{
			{"Process", func(p *Processor) [][]Match {
				out := make([][]Match, len(docs))
				for i, d := range docs {
					out[i] = p.Process("S", d)
				}
				return out
			}},
			{"ConsumeStage1", func(p *Processor) [][]Match {
				out := make([][]Match, len(docs))
				for i, d := range docs {
					out[i] = p.ConsumeStage1(p.RunStage1("S", d))
				}
				return out
			}},
			{"ProcessBatch", func(p *Processor) [][]Match {
				return p.ProcessBatch("S", docs)
			}},
			{"Ingest", func(p *Processor) [][]Match {
				out := make([][]Match, len(docs))
				in := NewIngest(p, IngestConfig{Depth: 2})
				for i, d := range docs {
					i := i
					if err := in.Submit("S", d, func(ms *Matches) { out[i] = ms.Slice() }); err != nil {
						t.Fatal(err)
					}
				}
				in.Close()
				return out
			}},
		} {
			t.Run(fmt.Sprintf("%s/workers=%d", mode.name, workers), func(t *testing.T) {
				kept := mode.run(newProcessor())

				ref := newProcessor()
				total, none := 0, 0
				for i, d := range docs {
					want := harnessRecs(ref.Consume(ref.RunStage1("S", d)).Slice())
					if got := harnessRecs(kept[i]); !reflect.DeepEqual(got, want) {
						t.Fatalf("document %d: the result kept since its publish differs from a fresh processor's\nkept:  %v\nfresh: %v", i, got, want)
					}
					total += len(want)
					if len(want) == 0 {
						none++
					}
				}
				if total < 10*len(docs) || none == 0 {
					t.Fatalf("%d matches over %d documents, %d without any: the stream does not vary the buffers' fill", total, len(docs), none)
				}
			})
		}
	}
}
