package core

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/workload"
	"repro/internal/xmldoc"
	"repro/internal/xscl"
)

// renderMatches serializes a match slice byte-for-byte (order included):
// every ingest shape promises output identical to sequential processing, not
// just the same set.
func renderMatches(ms []Match) string {
	var sb strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&sb, "q%d l%d@%d r%d@%d roots(%d,%d) t%q b%v\n",
			m.Query, m.LeftDoc, m.LeftTS, m.RightDoc, m.RightTS,
			m.LeftRoot, m.RightRoot, templateSig(m.Template), m.Bindings)
	}
	return sb.String()
}

// joiningDocs returns two documents that match both sides of joinQuery with
// a shared string value, so Stage 2 actually evaluates on the second.
func joiningDocs() (*xmldoc.Document, *xmldoc.Document) {
	b1 := xmldoc.NewBuilder(1, 10, "a")
	b1.Element(0, "x", "k")
	b2 := xmldoc.NewBuilder(2, 12, "b")
	b2.Element(0, "y", "k")
	return b1.Build(), b2.Build()
}

const joinQuery = "S//a->r1[.//x->v] JOIN{v=w, 100} S//b->r2[.//y->w]"

// ingestFixture generates a multi-query flat workload and a document stream
// with GC-active windows.
func ingestFixture(seed int64, nq, items int) ([]*xscl.Query, []*xmldoc.Document) {
	rng := rand.New(rand.NewSource(seed))
	leafNames := []string{"a", "b", "c"}
	var queries []*xscl.Query
	for i := 0; i < nq; i++ {
		op := []string{"FOLLOWED BY", "JOIN"}[rng.Intn(2)]
		queries = append(queries, randomFlatQuery(rng, leafNames, 2, int64(5+rng.Intn(20)), op))
	}
	var docs []*xmldoc.Document
	ts := xmldoc.Timestamp(0)
	for i := 0; i < items; i++ {
		ts += xmldoc.Timestamp(rng.Intn(4))
		docs = append(docs, randomFlatDoc(rng, xmldoc.DocID(i+1), ts, leafNames, 2))
	}
	return queries, docs
}

// TestBatchStatsAccumulate publishes two pairs of documents and checks the
// Stage1Wall/Stage2Wall counters (and the document count) accumulate across
// calls rather than resetting, and that ResetStats clears them.
func TestBatchStatsAccumulate(t *testing.T) {
	p := NewProcessor(Config{})
	p.MustRegister(xscl.MustParse(joinQuery))
	d1, d2 := joiningDocs()
	p.Process("S", d1)
	if n := len(p.Process("S", d2)); n != 1 {
		t.Fatalf("second doc produced %d matches, want 1", n)
	}
	s := p.Stats()
	if s.Documents != 2 {
		t.Errorf("Documents = %d after two documents, want 2", s.Documents)
	}
	if s.Stage1Wall == 0 {
		t.Errorf("Stage1Wall not recorded")
	}
	if s.Stage2Wall == 0 {
		t.Errorf("Stage2Wall not recorded")
	}
	if s.XPath == 0 || s.Witness == 0 {
		t.Errorf("Stage-1 phase stats not accumulated: xpath %v witness %v", s.XPath, s.Witness)
	}

	b3 := xmldoc.NewBuilder(3, 14, "a")
	b3.Element(0, "x", "k")
	b4 := xmldoc.NewBuilder(4, 16, "b")
	b4.Element(0, "y", "k")
	p.Process("S", b3.Build())
	p.Process("S", b4.Build())
	s2 := p.Stats()
	if s2.Documents != 4 {
		t.Errorf("Documents = %d after four documents, want 4", s2.Documents)
	}
	if s2.Stage1Wall <= s.Stage1Wall {
		t.Errorf("Stage1Wall did not accumulate: %v then %v", s.Stage1Wall, s2.Stage1Wall)
	}
	if s2.Stage2Wall <= s.Stage2Wall {
		t.Errorf("Stage2Wall did not accumulate: %v then %v", s.Stage2Wall, s2.Stage2Wall)
	}

	p.ResetStats()
	if s3 := p.Stats(); s3.Stage1Wall != 0 || s3.Stage2Wall != 0 || s3.Documents != 0 {
		t.Errorf("ResetStats left residue: %+v", s3)
	}
}

// TestIngestMatchesProcess runs Stage 1 away from Consume — all of it ahead
// on 1, 2 and 4 goroutines (stage1Ahead), and each document's on its
// publisher's goroutine while earlier ones are consumed (publishInTurn) — and
// requires per-document match output byte-identical to consecutive Process
// calls on a fresh processor.
func TestIngestMatchesProcess(t *testing.T) {
	queries, docs := ingestFixture(101, 8, 120)
	newProcessor := func() *Processor {
		p := NewProcessor(Config{})
		for _, q := range queries {
			p.MustRegister(q)
		}
		return p
	}
	ref := newProcessor()
	var want []string
	for _, d := range docs {
		want = append(want, renderMatches(ref.Process("S", d)))
	}
	for _, workers := range []int{1, 2, 4} {
		ahead := newProcessor()
		inTurn := publishInTurn(newProcessor(), "S", docs, workers)
		for i, r := range stage1Ahead(ahead, "S", docs, workers) {
			if got := renderMatches(ahead.ConsumeStage1(r)); got != want[i] {
				t.Fatalf("workers=%d: Stage 1 ahead diverges on doc %d:\nserial:\n%sahead:\n%s",
					workers, i+1, want[i], got)
			}
			if got := renderMatches(inTurn[i]); got != want[i] {
				t.Fatalf("workers=%d: Stage 1 in turn diverges on doc %d:\nserial:\n%sin turn:\n%s",
					workers, i+1, want[i], got)
			}
		}
	}
}

// TestIngestConcurrentSubmitDeterminism is the ingest shape the engine
// facade runs, at the processor: many goroutines publish concurrently, each
// running its document's Stage 1 on its own goroutine and then Consume under
// a shared mutex, the order they win it recorded; per-document output must
// be byte-identical to serial Process calls in that order — for any
// interleaving the scheduler produces.
func TestIngestConcurrentSubmitDeterminism(t *testing.T) {
	queries, docs := ingestFixture(202, 10, 150)
	for _, publishers := range []int{2, 5} {
		p := NewProcessor(Config{})
		for _, q := range queries {
			p.MustRegister(q)
		}
		var mu sync.Mutex
		order := make([]*xmldoc.Document, 0, len(docs))
		got := map[xmldoc.DocID]string{}
		var wg sync.WaitGroup
		for g := 0; g < publishers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(docs); i += publishers {
					d := docs[i]
					r := p.RunStage1("S", d)
					mu.Lock()
					got[d.ID] = renderMatches(p.ConsumeStage1(r))
					order = append(order, d)
					mu.Unlock()
				}
			}(g)
		}
		wg.Wait()

		ref := NewProcessor(Config{})
		for _, q := range queries {
			ref.MustRegister(q)
		}
		for i, d := range order {
			want := renderMatches(ref.Process("S", d))
			if got[d.ID] != want {
				t.Fatalf("publishers=%d: serial position %d (doc %d) diverges:\nserial:\n%sconcurrent:\n%s",
					publishers, i, d.ID, want, got[d.ID])
			}
		}
	}
}

// BenchmarkStage1DeepFeed times RunStage1 — the NFA walk, witness assembly
// and the witness rows — on the deep_filter shape: 1 100 subscriptions over
// DefaultDeepFeed documents. Each result goes back to its pool, as Consume
// puts it back, so the loop is the steady state of a serving process.
// The documents are walked once before the clock starts, so even one
// iteration finds the walk memo warm. Beside ns per document it reports the
// walk's time (Stage1Result.xpath) and its memo misses (Stats.NFASteps) per
// document. On a shared 2-core host it read 21.0–29.5 µs per document over
// ten runs alternated with 28.2–39.6 µs while the 960 single-block
// patterns' witnesses were enumerated rather than counted per root.
func BenchmarkStage1DeepFeed(b *testing.B) {
	c := workload.DefaultDeepFeed()
	p := NewProcessor(Config{})
	for _, q := range c.Queries(rand.New(rand.NewSource(1)), 1100) {
		p.MustRegister(q)
	}
	stream := c.Stream(rand.New(rand.NewSource(8)), 200)
	for _, d := range stream {
		stage1Pool.Put(p.RunStage1("S", d))
	}
	var walk time.Duration
	var steps int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := p.RunStage1("S", stream[i%len(stream)])
		walk, steps = walk+r.xpath, steps+r.steps
		stage1Pool.Put(r)
	}
	b.ReportMetric(float64(walk.Nanoseconds())/float64(b.N), "walk-ns/doc")
	b.ReportMetric(float64(steps)/float64(b.N), "steps/doc")
}

// BenchmarkStage2ManyTemplates times a publish on the benchmark's
// paper_scale shape, window full (paperScaleSlice): 2 000 subscriptions on
// 56 templates, where Stage 2's conjunctive queries are most of the cost.
// Beside ns per document it reports the conjunctive-query time (Stats.CQ),
// the probes and the programs entered per document (Stats.WitnessPlans), so
// the head joins, the join index's filter and the programs can be read in
// process: entered/doc reads 1.005 and probes/doc 37.4 since every value
// join reads one pair relation (35.1 while view joins read RL and RR; 7.34
// and 127.6 while side-root templates ran whole). The pair build is timed
// apart from the conjunctive queries (Stats.Rvj), so cq-ns/doc leaves it
// out. Every 600 documents the slice is rebuilt off the clock,
// so the window stays full and no document is replayed.
func BenchmarkStage2ManyTemplates(b *testing.B) {
	const measured = 600
	var p *Processor
	var docs []*xmldoc.Document
	var cq time.Duration
	var probes, entered int64
	flush := func() {
		if p != nil {
			st := p.Stats()
			cq += st.CQ
			probes += st.CQProbes
			entered += st.WitnessPlans
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%measured == 0 {
			b.StopTimer()
			flush()
			p, docs = paperScaleSlice(measured)
			p.ResetStats()
			b.StartTimer()
		}
		p.Process("S", docs[i%measured])
	}
	flush()
	b.ReportMetric(float64(cq.Nanoseconds())/float64(b.N), "cq-ns/doc")
	b.ReportMetric(float64(probes)/float64(b.N), "probes/doc")
	b.ReportMetric(float64(entered)/float64(b.N), "entered/doc")
}

// TestStage1WalkSteps counts the transitions Stage 1's walk computes rather
// than finds in its memo (Stats.NFASteps) on the deep_filter shape: 1 100
// subscriptions, 200 warm-up DefaultDeepFeed documents, then at most one
// step per document over 300 more, where the NFA walk took about 6.8 state
// steps per node. A Register that adds NFA states empties the memos, so the
// next document computes its sets again. (Under the race detector sync.Pool
// drops results at random and a walk may start cold.)
func TestStage1WalkSteps(t *testing.T) {
	c := workload.DefaultDeepFeed()
	p := NewProcessor(Config{})
	rng := rand.New(rand.NewSource(1))
	for _, q := range c.Queries(rng, 1100) {
		p.MustRegister(q)
	}
	docs := c.Stream(rand.New(rand.NewSource(8)), 501)
	for _, d := range docs[:200] {
		p.Process("S", d)
	}
	p.ResetStats()
	for _, d := range docs[200:500] {
		p.Process("S", d)
	}
	warm := p.Stats().NFASteps
	t.Logf("%d steps over 300 warm documents", warm)
	if warm > 300 && !raceEnabled {
		t.Errorf("%d steps over 300 warm documents, want at most one per document", warm)
	}
	p.MustRegister(c.Filter(rng, c.Topics+1))
	p.ResetStats()
	p.Process("S", docs[500])
	if steps := p.Stats().NFASteps; steps == 0 {
		t.Errorf("the document after a Register that added NFA states took no step")
	}
}
