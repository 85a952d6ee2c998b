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
// n matches spread at random over a singles buffer (single-block matches, no
// template) and one to four emit buffers, with the query ids drawn from
// queries and the left documents from docs. Matches that share their key tie
// at random further down the order: JOIN self-matches (right document = left),
// witnesses differing only in roots or in the binding vector, one query
// reached through two templates, and, when dups is set, exact duplicates of
// earlier matches. It returns the buffers and every match in emit order.
func randomResult(rng *rand.Rand, n int, queries, docs matchDomain, dups bool) (bufs [][]Match, all []Match) {
	tmpls := []*Template{nil, {Sig: "A", N: 3}, {Sig: "B", N: 3}}
	bufs = make([][]Match, 2+rng.Intn(4))
	for i := 0; i < n; i++ {
		var m Match
		if dups && len(all) > 0 && rng.Intn(5) == 0 {
			m = all[rng.Intn(len(all))]
		} else {
			m = Match{
				Query:    QueryID(queries(rng)),
				LeftDoc:  xmldoc.DocID(docs(rng)),
				RightDoc: xmldoc.DocID(docs(rng)),
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
		}
		b := 1 + rng.Intn(len(bufs)-1)
		if m.Template == nil {
			b = 0
		}
		bufs[b] = append(bufs[b], m)
		all = append(all, m)
	}
	return bufs, all
}

// keyedOrder is what the collector hands out for bufs: the keys added and
// radix-ordered, read back as a slice. ms carries the buffers between calls,
// as the processor's result does between documents.
func keyedOrder(ms *Matches, bufs [][]Match) []Match {
	ms.reset()
	for _, b := range bufs {
		ms.add(b)
	}
	ms.sort()
	return ms.Slice()
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

// TestKeyedOrderEqualsSortMatches holds the collector's order — keys of
// (query, left document, position) radix-ordered, the matches read only on a
// tie — to the canonical order, the matches themselves sorted under matchCmp
// (sortMatches). The random multisets are built to tie on the key (a handful
// of queries and documents, exact duplicates), so the tie-break is exercised
// on every round, then spread over the other domains: the benchmark's shape
// and every byte and sign of both fields.
func TestKeyedOrderEqualsSortMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var ms Matches
	ties := 0
	for round := 0; round < 300; round++ {
		bufs, all := randomResult(rng, rng.Intn(60), fewValues, fewValues, true)
		want := sortedCopy(all)
		for i := 1; i < len(want); i++ {
			if want[i].Query == want[i-1].Query && want[i].LeftDoc == want[i-1].LeftDoc {
				ties++
			}
		}
		if got := keyedOrder(&ms, bufs); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: keyed order differs from the sorted matches\ngot:  %v\nwant: %v", round, got, want)
		}
	}
	if ties < 1000 {
		t.Errorf("only %d adjacent matches tied on (query, left document): the multisets do not exercise the tie-break", ties)
	}
	for qi, queries := range matchDomains {
		for di, docs := range matchDomains {
			bufs, all := randomResult(rng, 300, queries, docs, true)
			if got, want := keyedOrder(&ms, bufs), sortedCopy(all); !reflect.DeepEqual(got, want) {
				t.Fatalf("query domain %d, document domain %d: keyed order differs from the sorted matches", qi, di)
			}
		}
	}
}

// FuzzMatchOrder holds the radix order to slices.SortFunc under matchCmp over
// multisets of 0–5 000 matches: the fuzzer picks the seed, the size, the
// domains of the query ids and the left documents (few values, a window above
// 2^32, every byte and sign, the extremes) and whether exact duplicates occur.
// Every multiset is ordered twice through one Matches, so the buffers the
// first sort left behind (a swapped second buffer, the varying-byte mask)
// must not leak into the next.
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
		bufs, all := randomResult(rng, int(size)%5001, queries, docs, shape&0x80 == 0)
		want := sortedCopy(all)
		var ms Matches
		for pass := 0; pass < 2; pass++ {
			if got := keyedOrder(&ms, bufs); !reflect.DeepEqual(got, want) {
				t.Fatalf("pass %d over %d matches: keyed order differs from the sorted matches", pass, len(all))
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
// runs on where the entry point takes it from the caller (ConsumeStage1, via
// stage1Ahead) or from a pool (Ingest).
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
			p := NewProcessor(Config{ViewMaterialization: true, PipelineDepth: 2})
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
			{"ProcessBatch", func(p *Processor) [][]Match {
				return p.ProcessBatch("S", docs)
			}},
			{"Ingest", func(p *Processor) [][]Match {
				out := make([][]Match, len(docs))
				in := NewIngest(p, IngestConfig{Depth: 2, Workers: workers})
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
