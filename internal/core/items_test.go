package core

import (
	"cmp"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/workload"
	"repro/internal/xmldoc"
	"repro/internal/xscl"
)

// rowSets is a document's witness rows as sets: the Rbin rows, and the Rdoc
// rows by node and the value Stage 1 read (Consume resolves it to an id).
type rowSets struct {
	bin map[[4]int64]bool
	doc map[rdocKey]bool
}

type rdocKey struct {
	n int64
	s string
}

func newRowSets() rowSets { return rowSets{bin: map[[4]int64]bool{}, doc: map[rdocKey]bool{}} }

// recordRows reads the rows Stage 1 wrote into r's record, and the number of
// Rbin rows written more than once.
func recordRows(r *Stage1Result) (rowSets, int) {
	rs, dup := newRowSets(), 0
	for _, row := range binRows(&r.rec) {
		if rs.bin[[4]int64(row)] {
			dup++
		}
		rs.bin[[4]int64(row)] = true
	}
	for i, row := range docRows(&r.rec) {
		rs.doc[rdocKey{row[rdocNode], r.vals[i].s}] = true
	}
	return rs, dup
}

// itemRows derives the rows the live row items write in d from the naive
// matcher's witnesses of each item's pattern: one Rbin row per witness, and
// the Rdoc rows of the ends some demand takes the string value of.
func itemRows(p *Processor, d *xmldoc.Document) rowSets {
	rs := newRowSets()
	for _, it := range p.items {
		for _, w := range p.xp.Pattern(it.pi.yid).MatchNaive(d) {
			b := w.Bindings
			ends := [2]int64{noParent, int64(b[0])}
			if it.id[0] != noParent {
				ends = [2]int64{int64(b[0]), int64(b[1])}
			}
			rs.bin[[4]int64{it.id[0], it.id[1], ends[0], ends[1]}] = true
			for j, n := range ends {
				if it.vals[j] > 0 {
					rs.doc[rdocKey{n, d.StringValue(xmldoc.NodeID(n))}] = true
				}
			}
		}
	}
	return rs
}

// demandRows derives, independently of Stage 1, the rows the reference
// registry's demands ask for in d: each demand's projection of the naive
// matcher's witnesses of its whole block onto its edges and value-join
// nodes — the rows a Stage 1 that assembled the blocks themselves wrote —
// under the ids p gives the class names.
func demandRows(p *Processor, ref *refRegistry, d *xmldoc.Document) rowSets {
	rs := newRowSets()
	for _, dm := range ref.demands {
		ids := map[int]int64{}
		for n, id := range dm.ids {
			ids[n] = p.syms.ids[ref.syms.name(id)]
		}
		// The block is fully bound: binding i is node i's.
		for _, w := range dm.norm.MatchNaive(d) {
			b := w.Bindings
			for _, e := range dm.edges {
				row := [4]int64{noParent, ids[int(e[1])], noParent, int64(b[e[1]])}
				if e[0] != noParent {
					row[0], row[2] = ids[int(e[0])], int64(b[e[0]])
				}
				rs.bin[row] = true
			}
			for _, n := range dm.strNodes {
				rs.doc[rdocKey{int64(b[n]), d.StringValue(b[n])}] = true
			}
		}
	}
	return rs
}

// contains reports whether every row of sub is in rs.
func (rs rowSets) contains(sub rowSets) bool {
	for row := range sub.bin {
		if !rs.bin[row] {
			return false
		}
	}
	for row := range sub.doc {
		if !rs.doc[row] {
			return false
		}
	}
	return true
}

// livePatterns lists the live patterns in registration order.
func livePatterns(p *Processor) []*patternInfo {
	var live []*patternInfo
	for _, pi := range p.patterns {
		live = append(live, pi)
	}
	slices.SortFunc(live, func(a, b *patternInfo) int { return cmp.Compare(a.seq, b.seq) })
	return live
}

// refOf rebuilds the reference registry from scratch over the live queries,
// in registration order.
func refOf(t testing.TB, live []*xscl.Query) *refRegistry {
	ref := newRefRegistry()
	for _, q := range live {
		if err := ref.register(q); err != nil {
			t.Fatal(err)
		}
	}
	return ref
}

// itemShapes are the query lists and streams TestItemRowsMatchNaive runs:
// the paper-scale, RSS, deep-feed and random shapes.
func itemShapes() []struct {
	name    string
	queries []*xscl.Query
	docs    []*xmldoc.Document
} {
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
	return []struct {
		name    string
		queries []*xscl.Query
		docs    []*xmldoc.Document
	}{
		{"paper scale", ps.Queries(rand.New(rand.NewSource(1)), 300), ps.Stream(rand.New(rand.NewSource(8)), 60)},
		{"rss", rss.Queries(rand.New(rand.NewSource(1)), 300), rss.Stream(rand.New(rand.NewSource(8)), 60)},
		{"deep feed", deep.Queries(rand.New(rand.NewSource(1)), 200), deep.Stream(rand.New(rand.NewSource(8)), 12)},
		{"random flat", randomQueries(flat, 120), randomDocs(flat, 60)},
		{"random deep", randomQueries(deepRand, 120), randomDocs(deepRand, 60)},
	}
}

// TestItemRowsMatchNaive holds the witness relations Stage 1 writes, on the
// paper-scale, RSS, deep-feed and random shapes under churn (churnTrace), to
// the live row items applied to the naive matcher's witnesses of their
// patterns — as sets, with no Rbin row written twice — and requires them to
// contain every live demand's projection of the naive witnesses of its whole
// block (demandRows), the rows a Stage 1 that assembled blocks wrote. The
// registry is compared with one rebuilt from scratch after every churn
// step. An item may write rows no block it serves has a witness for (a
// branch of the block missing in the document); the count is logged.
func TestItemRowsMatchNaive(t *testing.T) {
	for _, tc := range itemShapes() {
		t.Run(tc.name, func(t *testing.T) {
			tr := churnTrace(tc.queries, tc.docs)
			p := NewProcessor(Config{})
			var qids []QueryID
			live := map[QueryID]*xscl.Query{}
			for _, q := range tr.Initial {
				qids = append(qids, p.MustRegister(q))
				live[qids[len(qids)-1]] = q
			}
			ref := refOf(t, tr.Initial)
			rows, extra := 0, 0
			for _, ev := range tr.Events {
				for _, i := range ev.Unsubscribe {
					p.MustUnregister(qids[i])
					delete(live, qids[i])
				}
				for _, q := range ev.Subscribe {
					qids = append(qids, p.MustRegister(q))
					live[qids[len(qids)-1]] = q
				}
				if len(ev.Unsubscribe)+len(ev.Subscribe) > 0 {
					var qs []*xscl.Query
					for _, id := range qids {
						if q := live[id]; q != nil {
							qs = append(qs, q)
						}
					}
					ref = refOf(t, qs)
				}
				if msg := itemsMismatch(p, ref, false); msg != "" {
					t.Fatalf("before document %d: %s", ev.Doc.ID, msg)
				}
				d := ev.Doc
				r := p.RunStage1("S", d)
				got, dup := recordRows(r)
				if want := itemRows(p, d); dup > 0 || !maps.Equal(got.bin, want.bin) || !maps.Equal(got.doc, want.doc) {
					t.Fatalf("document %d: %d rows written twice; rows %v, want the sets %v", d.ID, dup, got, want)
				}
				demanded := demandRows(p, ref, d)
				if !got.contains(demanded) {
					t.Fatalf("document %d: rows %v lack some of the demanded %v", d.ID, got, demanded)
				}
				rows += len(got.bin) + len(got.doc)
				extra += len(got.bin) + len(got.doc) - len(demanded.bin) - len(demanded.doc)
				p.Consume(r)
			}
			if rows == 0 {
				t.Fatal("test premise: the documents produce witness rows")
			}
			t.Logf("%d rows, %d of them beyond the demanded projections", rows, extra)
		})
	}
}

// FuzzItemChurn applies random Register/Unregister sequences, up to 64
// operations, over a pool of paper-scale, RSS, deep-feed and random join
// queries and single-block queries on their blocks, and after each operation
// holds the demands, the row items with their counts, the live patterns and
// the Stage-1 engine's live set to a registry rebuilt from scratch over the
// live queries (itemsMismatch).
func FuzzItemChurn(f *testing.F) {
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
	pool = append(pool, workload.DefaultDeepFeed().Queries(rng, 24)...)
	f.Add([]byte{0, 1, 0, 2, 0, 3, 2, 0, 0, 4})
	f.Add([]byte("row items leave with their last demand"))
	f.Add([]byte{0, 24, 0, 25, 0, 26, 0, 72, 0, 73, 2, 0, 2, 1, 0, 27, 2, 2})
	f.Add([]byte{0, 88, 0, 89, 0, 100, 0, 72, 2, 1, 0, 90, 2, 0, 0, 111})
	f.Fuzz(func(t *testing.T, ops []byte) {
		// Every step rebuilds the reference: longer inputs add time, not
		// cases.
		ops = ops[:min(len(ops), 128)]
		p := NewProcessor(Config{})
		var live []QueryID
		var liveQ []*xscl.Query
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], int(ops[i+1])
			if op%3 < 2 || len(live) == 0 {
				q := pool[arg%len(pool)]
				live, liveQ = append(live, p.MustRegister(q)), append(liveQ, q)
			} else {
				k := arg % len(live)
				p.MustUnregister(live[k])
				live, liveQ = append(live[:k], live[k+1:]...), append(liveQ[:k], liveQ[k+1:]...)
			}
			if msg := itemsMismatch(p, refOf(t, liveQ), false); msg != "" {
				t.Fatalf("op %d: %s", i/2, msg)
			}
		}
	})
}

// TestStage1CountedWork bounds Stage 1's counted work per document — patterns
// triggered (Stats.PatternsTriggered) and assembly steps
// (Stats.WitnessProbes) — on the paper-scale and RSS shapes, 2 000
// subscriptions each, and on the deep_filter shape, 1 100. The readings are
// 16.0 triggered and 64.0 probes per document on paper scale (16 item
// patterns), 10.0 and 40.0 on RSS (10) and 34.2 and 454.2 on the deep feed
// (960 single-block patterns, counted per root by
// yfilter.MatchResult.RootCounts, and 4 items; 3 900.6 while their
// witnesses were reduced and enumerated). While block patterns were
// assembled, with the ones smaller patterns covered skipped, they read 36.0
// and 228.0 (174 patterns), 15.0 and 90.0 (31), and the same on the deep
// feed; before that every pattern was triggered: 174.0 and 1 893.0, 31.0
// and 271.0. Each bound is at most 1.25 times its reading, so a row
// assembled by more patterns than its item's fails here, and so does a
// single-block pattern enumerated instead of counted.
func TestStage1CountedWork(t *testing.T) {
	ps, rss, deep := workload.DefaultPaperScale(), workload.DefaultRSS(), workload.DefaultDeepFeed()
	for _, tc := range []struct {
		name              string
		queries           []*xscl.Query
		docs              []*xmldoc.Document
		triggered, probes float64
	}{
		{"paper scale", ps.Queries(rand.New(rand.NewSource(1)), 2000), ps.Stream(rand.New(rand.NewSource(8)), 200), 20, 80},
		{"rss", rss.Queries(rand.New(rand.NewSource(1)), 2000), rss.Stream(rand.New(rand.NewSource(8)), 200), 12.5, 50},
		{"deep feed", deep.Queries(rand.New(rand.NewSource(1)), 1100), deep.Stream(rand.New(rand.NewSource(8)), 200), 42.75, 565},
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
			t.Logf("%d patterns, %d row items; per document %.1f triggered, %.1f witness probes", len(p.patterns), len(p.items), perTrig, perProbe)
			if perTrig > tc.triggered || perProbe > tc.probes {
				t.Errorf("per document %.1f patterns triggered and %.1f witness probes, want <= %.2f and %.1f", perTrig, perProbe, tc.triggered, tc.probes)
			}
		})
	}
	// S//a//a over an a above 2 000 nested c, each with an a leaf: 2 000
	// witnesses, every one climbing through the c chain. Counting passes
	// each c once, so it reads no more probes than the reduction and
	// enumeration of the same pattern.
	t.Run("deep nesting", func(t *testing.T) {
		b := xmldoc.NewBuilder(1, 1, "r")
		n := b.Element(0, "a", "")
		for range 2000 {
			n = b.Element(n, "c", "")
			b.Element(n, "a", "")
		}
		d := b.Build()
		p := NewProcessor(Config{})
		qid := p.MustRegister(xscl.MustParse("S//a//a->y"))
		start := time.Now()
		r := p.RunStage1("S", d)
		took := time.Since(start)
		if len(r.singles) != 2000 || r.singles[0].Query != qid {
			t.Fatalf("%d matches, want 2000 of query %d", len(r.singles), qid)
		}
		counted := r.probes
		stage1Pool.Put(r)
		res := p.xp.MatchDocument("S", d)
		if _, n := res.Bindings(p.queries[qid].single.yid); n != 2000 {
			t.Fatalf("Bindings found %d witnesses, want 2000", n)
		}
		_, enumerated := res.Work()
		res.Release()
		t.Logf("%d probes counting, %d reducing and enumerating; counting took %v", counted, enumerated, took)
		if counted > enumerated {
			t.Errorf("counting read %d probes, want <= %d", counted, enumerated)
		}
	})
}
