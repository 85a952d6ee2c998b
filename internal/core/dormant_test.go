package core

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"repro/internal/workload"
	"repro/internal/xmldoc"
	"repro/internal/xscl"
)

// homImages calls f with every homomorphism from q to pi — h[i] is the image
// of q's node i; parents go to parents and step paths are kept — by
// trying every node of pi for every node of q in pre-order. It shares nothing
// with dormant.go's walk but the patterns.
func homImages(q, pi *patternInfo, f func(h []int32)) {
	h := make([]int32, len(q.pathIDs))
	var assign func(i int)
	assign = func(i int) {
		if i == len(h) {
			f(h)
			return
		}
		parent := q.pat.Nodes[i].ParentIndex
		for j := range pi.pathIDs {
			pp := pi.pat.Nodes[j].ParentIndex
			if pi.pathIDs[j] != q.pathIDs[i] || (parent < 0) != (pp < 0) || parent >= 0 && int(h[parent]) != pp {
				continue
			}
			h[i] = int32(j)
			assign(i + 1)
		}
	}
	assign(0)
}

// demandCovered reports whether every item pi demands q demands, under the
// same ids, at a node some homomorphism from q to pi maps onto it, item by
// item: covered[k] for pi's k-th item in edges, strNodes order. A parentless
// edge (a single-node side's root) maps its noParent to noParent.
func demandCovered(q, pi *patternInfo, covered []bool) {
	homImages(q, pi, func(h []int32) {
		image := func(n int32) int32 {
			if n == noParent {
				return noParent
			}
			return h[n]
		}
		k := 0
		for _, e := range pi.edges {
			for _, f := range q.edges {
				if f.id == e.id && image(f.n[0]) == e.n[0] && h[f.n[1]] == e.n[1] {
					covered[k] = true
				}
			}
			k++
		}
		for _, n := range pi.strNodes {
			for _, m := range q.strNodes {
				if h[m] == n {
					covered[k] = true
				}
			}
			k++
		}
	})
}

// livePatterns lists the live patterns in registration order.
func livePatterns(p *Processor) []*patternInfo {
	var live []*patternInfo
	for _, pi := range p.byYID {
		if pi != nil {
			live = append(live, pi)
		}
	}
	return live
}

// dormancyMismatch recomputes the dormant set from scratch over every pair of
// live patterns and compares it with the maintained one; it also checks that
// no dormant pattern has a single-block query and that every item a dormant
// pattern demands is demanded by an awake pattern through a homomorphism.
func dormancyMismatch(p *Processor) string {
	live := livePatterns(p)
	dormant := 0
	for _, pi := range live {
		if pi.dormant {
			dormant++
		}
		items := pi.items()
		bySmaller, byAwake := make([]bool, items), make([]bool, items)
		for _, q := range live {
			if len(q.pathIDs) < len(pi.pathIDs) {
				demandCovered(q, pi, bySmaller)
			}
			if q != pi && !q.dormant {
				demandCovered(q, pi, byAwake)
			}
		}
		want := len(pi.singles) == 0
		for _, c := range bySmaller {
			want = want && c
		}
		if pi.dormant != want {
			return fmt.Sprintf("pattern %s (%d singles): dormant %v, from scratch %v", pi.pat, len(pi.singles), pi.dormant, want)
		}
		if !pi.dormant {
			continue
		}
		for k, c := range byAwake {
			if !c {
				return fmt.Sprintf("dormant pattern %s: demand item %d is written by no awake pattern", pi.pat, k)
			}
		}
	}
	if int64(dormant) != p.dormant || p.Stats().PatternsDormant != p.dormant {
		return fmt.Sprintf("%d dormant patterns, counted %d, Stats %d", dormant, p.dormant, p.Stats().PatternsDormant)
	}
	return ""
}

// TestDormantPatternsAddNoRow holds the witness relations Stage 1 writes, as
// row sets, to the demands of every live pattern — dormant ones included —
// applied to the witnesses of the naive matcher, on the paper-scale, RSS,
// deep-feed and random shapes under churn (churnTrace). A dormant pattern collects no
// candidates, so its rows are recomputed here rather than read off the
// Stage-1 engine. The maintained dormant set is compared with a
// from-scratch one after every churn step.
func TestDormantPatternsAddNoRow(t *testing.T) {
	ps, rss, deep := workload.DefaultPaperScale(), workload.DefaultRSS(), workload.DefaultDeepFeed()
	flat, deepRand := workload.DefaultRandomFlat(), workload.DefaultRandomDeep()
	randomDocs := func(c workload.RandomWorkload, n int) []*xmldoc.Document {
		rng := rand.New(rand.NewSource(5))
		out := make([]*xmldoc.Document, n)
		for i := range out {
			out[i] = c.Document(rng, xmldoc.DocID(i+1), xmldoc.Timestamp(i+1))
		}
		return out
	}
	randomQueries := func(c workload.RandomWorkload, n int) []*xscl.Query {
		rng := rand.New(rand.NewSource(4))
		out := make([]*xscl.Query, n)
		for i := range out {
			out[i] = c.Query(rng)
		}
		return out
	}
	for _, tc := range []struct {
		name       string
		queries    []*xscl.Query
		docs       []*xmldoc.Document
		anyDormant bool
	}{
		{"paper scale", ps.Queries(rand.New(rand.NewSource(1)), 300), ps.Stream(rand.New(rand.NewSource(8)), 60), true},
		{"rss", rss.Queries(rand.New(rand.NewSource(1)), 300), rss.Stream(rand.New(rand.NewSource(8)), 60), true},
		{"deep feed", deep.Queries(rand.New(rand.NewSource(1)), 200), deep.Stream(rand.New(rand.NewSource(8)), 12), false},
		{"random flat", randomQueries(flat, 120), randomDocs(flat, 60), true},
		{"random deep", randomQueries(deepRand, 120), randomDocs(deepRand, 60), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := churnTrace(tc.queries, tc.docs)
			p := NewProcessor(Config{})
			var qids []QueryID
			for _, q := range tr.Initial {
				qids = append(qids, p.MustRegister(q))
			}
			rows, sawDormant := 0, false
			for _, ev := range tr.Events {
				for _, i := range ev.Unsubscribe {
					p.MustUnregister(qids[i])
				}
				for _, q := range ev.Subscribe {
					qids = append(qids, p.MustRegister(q))
				}
				if msg := dormancyMismatch(p); msg != "" {
					t.Fatalf("before document %d: %s", ev.Doc.ID, msg)
				}
				sawDormant = sawDormant || p.dormant > 0
				d := ev.Doc
				r := p.RunStage1("S", d)
				// An Rdoc row's value is Stage 1's string until Consume
				// resolves it.
				type docRow struct {
					n int64
					s string
				}
				// A root item (a single-node side's) is a parentless RbinW
				// row, (noParent, class, noParent, node).
				bin, doc := map[[4]int64]bool{}, map[docRow]bool{}
				for _, pi := range livePatterns(p) {
					for _, w := range pi.pat.MatchNaive(d) {
						b := w.Bindings
						for _, e := range pi.edges {
							n1 := int64(noParent)
							if e.n[0] != noParent {
								n1 = int64(b[e.n[0]])
							}
							bin[[4]int64{e.id[0], e.id[1], n1, int64(b[e.n[1]])}] = true
						}
						for _, n := range pi.strNodes {
							doc[docRow{int64(b[n]), d.StringValue(b[n])}] = true
						}
					}
				}
				if got := binRows(&r.rec); len(got) != len(bin) || !allIn(got, func(row []int64) bool { return bin[[4]int64(row)] }) {
					t.Fatalf("document %d: RbinW %v, want the set %v", d.ID, got, bin)
				}
				got := map[docRow]bool{}
				for i, row := range docRows(&r.rec) {
					got[docRow{row[rdocNode], r.vals[i].s}] = true
				}
				if r.rec.numDoc() != len(doc) || !maps.Equal(got, doc) {
					t.Fatalf("document %d: RdocW %v with values %v, want the set %v", d.ID, docRows(&r.rec), r.vals, doc)
				}
				rows += len(bin) + len(doc)
				p.Consume(r)
			}
			if rows == 0 {
				t.Fatal("test premise: the documents produce witness rows")
			}
			if sawDormant != tc.anyDormant {
				t.Errorf("some pattern dormant: %v, want %v", sawDormant, tc.anyDormant)
			}
		})
	}
}

func allIn(rows [][]int64, in func([]int64) bool) bool {
	for _, row := range rows {
		if !in(row) {
			return false
		}
	}
	return true
}

// FuzzDormancyChurn applies random Register/Unregister sequences, up to 64
// operations, over a pool of paper-scale, RSS and random join queries and
// single-block queries on their blocks, and after each operation holds the
// maintained dormant set to a from-scratch computation (dormancyMismatch).
func FuzzDormancyChurn(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	var pool []*xscl.Query
	pool = append(pool, workload.DefaultPaperScale().Queries(rng, 24)...)
	pool = append(pool, workload.DefaultRSS().Queries(rng, 24)...)
	flat, deep := workload.DefaultRandomFlat(), workload.DefaultRandomDeep()
	for i := 0; i < 12; i++ {
		pool = append(pool, flat.Query(rng), deep.Query(rng))
	}
	for i := 0; i < 24; i += 3 {
		pool = append(pool, xscl.MustParse(pool[i].Left.String()), xscl.MustParse(pool[24+i].Right.String()))
	}
	f.Add([]byte{0, 1, 0, 2, 0, 3, 2, 0, 0, 4})
	f.Add([]byte("dormant patterns wake when their coverer leaves"))
	f.Add([]byte{0, 24, 0, 25, 0, 26, 0, 72, 0, 73, 2, 0, 2, 1, 0, 27, 2, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		// The reference is quadratic in live patterns per operation: longer
		// inputs add time, not cases.
		ops = ops[:min(len(ops), 128)]
		p := NewProcessor(Config{})
		var live []QueryID
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], int(ops[i+1])
			if op%3 < 2 || len(live) == 0 {
				live = append(live, p.MustRegister(pool[arg%len(pool)]))
			} else {
				k := arg % len(live)
				p.MustUnregister(live[k])
				live = append(live[:k], live[k+1:]...)
			}
			if msg := dormancyMismatch(p); msg != "" {
				t.Fatalf("op %d: %s", i/2, msg)
			}
		}
	})
}

// TestStage1CountedWork bounds Stage 1's counted work per document — patterns
// triggered (Stats.PatternsTriggered) and assembly steps
// (Stats.WitnessProbes) — on the paper-scale and RSS shapes, 2 000
// subscriptions each. The readings are 36.0 triggered and 228.0 probes per
// document on paper scale (138 of 174 patterns dormant) and 15.0 and 90.0 on
// RSS (16 of 31); before patterns went dormant every pattern was triggered:
// 174.0 and 1 893.0, 31.0 and 271.0. Each bound is 1.25 times its reading,
// so a pattern that should sleep and is assembled fails here.
func TestStage1CountedWork(t *testing.T) {
	ps, rss := workload.DefaultPaperScale(), workload.DefaultRSS()
	for _, tc := range []struct {
		name              string
		queries           []*xscl.Query
		docs              []*xmldoc.Document
		triggered, probes float64
	}{
		{"paper scale", ps.Queries(rand.New(rand.NewSource(1)), 2000), ps.Stream(rand.New(rand.NewSource(8)), 200), 45, 285},
		{"rss", rss.Queries(rand.New(rand.NewSource(1)), 2000), rss.Stream(rand.New(rand.NewSource(8)), 200), 18.75, 112.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewProcessor(Config{})
			for _, q := range tc.queries {
				p.MustRegister(q)
			}
			var triggered, probes int64
			for _, d := range tc.docs {
				r := p.RunStage1("S", d)
				triggered, probes = triggered+r.triggered, probes+r.probes
				stage1Pool.Put(r)
			}
			n := float64(len(tc.docs))
			perTrig, perProbe := float64(triggered)/n, float64(probes)/n
			t.Logf("%d patterns, %d dormant; per document %.1f triggered, %.1f witness probes", len(p.patterns), p.dormant, perTrig, perProbe)
			if perTrig > tc.triggered || perProbe > tc.probes {
				t.Errorf("per document %.1f patterns triggered and %.1f witness probes, want <= %.2f and %.1f", perTrig, perProbe, tc.triggered, tc.probes)
			}
		})
	}
}
