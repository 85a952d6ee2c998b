package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/workload"
	"repro/internal/xmldoc"
	"repro/internal/xscl"
)

// matchDomain draws the values of one Match field. A multiset draws its query
// ids and its left documents each from one domain, so one round can be all
// ties and the next spread over every byte of an int64.
type matchDomain func(rng *rand.Rand) int64

var (
	// fewValues: a handful of values, so most keys tie.
	fewValues matchDomain = func(rng *rand.Rand) int64 { return 1 + rng.Int63n(3) }
	// windowValues: a 500-wide window above 2^32, as document ids run late
	// in a long stream; query ids up to 10 000, as the benchmark subscribes.
	windowValues matchDomain = func(rng *rand.Rand) int64 { return 1<<32 + 7 + rng.Int63n(500) }
	queryValues  matchDomain = func(rng *rand.Rand) int64 { return rng.Int63n(10000) }
	// anyValues: every byte random, the sign included.
	anyValues matchDomain = func(rng *rand.Rand) int64 { return int64(rng.Uint64()) }
	// edgeValues: the extremes of each byte and of the sign.
	edgeValues matchDomain = func(rng *rand.Rand) int64 {
		edges := [...]int64{math.MinInt64, math.MinInt64 + 1, -1 << 32, -256, -1, 0, 1, 255, 256, 1<<32 - 1, 1 << 32, math.MaxInt64 - 1, math.MaxInt64}
		return edges[rng.Intn(len(edges))]
	}
	matchDomains = []matchDomain{fewValues, windowValues, queryValues, anyValues, edgeValues}
)

// randomResult builds one document's result as the collector receives it:
// up to nRuns Stage-2 runs and up to nSingles single-block matches, with the
// query ids drawn from queries and the documents of the runs' keys from
// docs. A query id is a single-block query's or a join query's by its value,
// never both, as in the processor. A run's ids are distinct and ascend; its
// key ties at random with others further down the order: JOIN self-matches
// (right document = left), keys differing only in roots, template or the
// binding vector, and, when dups is set, keys identical to an earlier run's
// and one query in about half the runs. The singles all name one document
// and tie on (query, root), and repeat exactly when dups is set. It returns
// the runs, the singles and every match they stand for.
func randomResult(rng *rand.Rand, nRuns, nSingles int, queries, docs matchDomain, dups bool) (runs []matchRun, singles []Match, all []Match) {
	tmpls := []*Template{{Sig: "A", N: 3}, {Sig: "B", N: 3}}
	single := func(q int64) bool { return uint64(q)%3 == 0 }
	joinQuery := func() (QueryID, bool) {
		for try := 0; try < 8; try++ {
			if q := queries(rng); !single(q) {
				return QueryID(q), true
			}
		}
		return 0, false
	}
	hot, hasHot := joinQuery()
	for i := 0; i < nRuns; i++ {
		var key Match
		if dups && len(runs) > 0 && rng.Intn(5) == 0 {
			key = runs[rng.Intn(len(runs))].key
		} else {
			key = Match{
				LeftDoc:  xmldoc.DocID(docs(rng)),
				RightDoc: xmldoc.DocID(docs(rng)),
				LeftRoot: xmldoc.NodeID(rng.Intn(2)), RightRoot: xmldoc.NodeID(rng.Intn(2)),
				Template: tmpls[rng.Intn(len(tmpls))],
			}
			if rng.Intn(3) == 0 {
				key.RightDoc = key.LeftDoc
			}
			key.LeftTS, key.RightTS = xmldoc.Timestamp(10*key.LeftDoc), xmldoc.Timestamp(10*key.RightDoc)
			key.Bindings = []xmldoc.NodeID{key.LeftRoot, key.RightRoot, xmldoc.NodeID(rng.Intn(2))}
		}
		var qids []QueryID
		for k := 1 + rng.Intn(6); k > 0; k-- {
			if q, ok := joinQuery(); ok {
				qids = append(qids, q)
			}
		}
		if dups && hasHot && rng.Intn(2) == 0 {
			qids = append(qids, hot)
		}
		slices.Sort(qids)
		if qids = slices.Compact(qids); len(qids) == 0 {
			continue
		}
		runs = append(runs, matchRun{qids: qids, key: key})
		for _, q := range qids {
			m := key
			m.Query = q
			all = append(all, m)
		}
	}
	doc := xmldoc.DocID(docs(rng))
	for i := 0; i < nSingles; i++ {
		var m Match
		if dups && len(singles) > 0 && rng.Intn(5) == 0 {
			m = singles[rng.Intn(len(singles))]
		} else {
			q := queries(rng)
			if !single(q) {
				q -= int64(uint64(q) % 3)
			}
			root := xmldoc.NodeID(rng.Intn(3))
			m = Match{
				Query: QueryID(q), LeftDoc: doc, RightDoc: doc,
				LeftTS: xmldoc.Timestamp(10 * doc), RightTS: xmldoc.Timestamp(10 * doc),
				LeftRoot: root, RightRoot: root,
			}
		}
		singles = append(singles, m)
		all = append(all, m)
	}
	return runs, singles, all
}

// mergedOrder is what the collector hands out for runs and singles: the
// sources sorted and merged, read back as a slice. ms carries its buffers
// between calls, as the processor's result does between documents; runs and
// singles are copied, since the collector sorts them in place.
func mergedOrder(ms *Matches, runs []matchRun, singles []Match) []Match {
	ms.reset()
	ms.runs = append(ms.runs, runs...)
	return ms.collect(slices.Clone(singles)).Slice()
}

// sortedCopy is the reference order of all: the matches themselves sorted
// under matchCmp, nil when there are none (as Slice returns).
func sortedCopy(all []Match) []Match {
	if len(all) == 0 {
		return nil
	}
	want := slices.Clone(all)
	sortMatches(want)
	return want
}

// TestKeyedOrderEqualsSortMatches holds the collector's order — the runs
// sorted by key and the singles by (query, root), merged on (query, source)
// — to the canonical order, the flattened matches themselves sorted under
// matchCmp (sortMatches). The random results are built to tie (a handful of
// queries and documents, identical keys, one query in many runs, duplicate
// singles), so the merge meets one query in several sources on every round,
// then spread over the other domains: the benchmark's shape and every byte
// and sign of both fields. Zero runs and one run are rounds of their own.
func TestKeyedOrderEqualsSortMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var ms Matches
	shared := 0
	for round := 0; round < 300; round++ {
		nRuns := rng.Intn(20)
		if round%10 == 0 {
			nRuns = round / 10 % 2
		}
		runs, singles, all := randomResult(rng, nRuns, rng.Intn(20), fewValues, fewValues, true)
		want := sortedCopy(all)
		for i := 1; i < len(want); i++ {
			if want[i].Query == want[i-1].Query && want[i].Template != nil {
				shared++
			}
		}
		if got := mergedOrder(&ms, runs, singles); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: merged order differs from the sorted matches\ngot:  %v\nwant: %v", round, got, want)
		}
	}
	if shared < 1000 {
		t.Errorf("only %d adjacent matches of one query came from runs: the results do not exercise the merge", shared)
	}
	for qi, queries := range matchDomains {
		for di, docs := range matchDomains {
			runs, singles, all := randomResult(rng, 100, 100, queries, docs, true)
			if got, want := mergedOrder(&ms, runs, singles), sortedCopy(all); !reflect.DeepEqual(got, want) {
				t.Fatalf("query domain %d, document domain %d: merged order differs from the sorted matches", qi, di)
			}
		}
	}
}

// FuzzMatchOrder holds the merged order — the stretch walk Slice reads — to
// slices.SortFunc under matchCmp
// over results of 0–1 000 runs and 0–1 000 singles: the fuzzer picks the
// seed, the sizes, the domains of the query ids and of the documents (few
// values, a window above 2^32, every byte and sign, the extremes) and
// whether identical keys, a query in many runs and duplicate singles occur.
// Every result is read twice through one Matches, so what the first walk
// left behind (the heap, the runs' keys) must not leak into the next.
func FuzzMatchOrder(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(0))
	f.Add(int64(2), uint16(200), uint8(0x12))
	f.Add(int64(3), uint16(5000), uint8(0x33))
	f.Add(int64(4), uint16(700), uint8(0x44))
	f.Add(int64(5), uint16(1), uint8(0x24))
	f.Fuzz(func(t *testing.T, seed int64, size uint16, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		queries := matchDomains[int(shape&0x0f)%len(matchDomains)]
		docs := matchDomains[int(shape>>4&0x07)%len(matchDomains)]
		nRuns, nSingles := int(size)%1001, int(size>>10)*32
		if shape&0x40 != 0 {
			nRuns %= 2
		}
		runs, singles, all := randomResult(rng, nRuns, nSingles, queries, docs, shape&0x80 == 0)
		want := sortedCopy(all)
		var ms Matches
		for pass := 0; pass < 2; pass++ {
			if got := mergedOrder(&ms, runs, singles); !reflect.DeepEqual(got, want) {
				t.Fatalf("pass %d over %d runs and %d singles: merged order differs from the sorted matches", pass, len(runs), len(singles))
			}
		}
	})
}

// TestMatchesOwnedByCaller pins who owns a publish's result: the []Match a
// document returns, and the Bindings inside it, are the caller's for good.
// Stage 2 emits into a buffer the processor keeps and reuses across
// documents (Processor.ex), so every entry point keeps each document's slice
// untouched until the stream ends — through documents with more, fewer and no
// matches, window collections included — and only then fingerprints it,
// against a second processor of the same configuration whose output was
// fingerprinted document by document. A result aliasing a reused buffer would
// have been overwritten by then. workers is the number of goroutines Stage 1
// runs on where the entry point takes it from the caller: all of it ahead of
// the ordered Consume (ConsumeStage1, via stage1Ahead), or each document's
// on its publisher's goroutine while earlier documents are consumed (InTurn,
// via publishInTurn).
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
			p := NewProcessor(Config{})
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
				for i, r := range stage1Ahead(p, "S", docs, workers) {
					out[i] = p.ConsumeStage1(r)
				}
				return out
			}},
			{"InTurn", func(p *Processor) [][]Match {
				return publishInTurn(p, "S", docs, workers)
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
