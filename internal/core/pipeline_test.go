package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/xmldoc"
	"repro/internal/xscl"
)

// renderMatches serializes a match slice byte-for-byte (order included):
// the pipelined paths promise output identical to sequential processing, not
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

// TestBatchStatsAccumulate publishes two 2-document batches and checks the
// Stage1Wall/Stage2Wall counters (and the document count) accumulate across
// batch publishes rather than resetting per call — at pipeline depth 0
// (sequential path) and depth 2 (pipelined path).
func TestBatchStatsAccumulate(t *testing.T) {
	for _, depth := range []int{0, 2} {
		p := NewProcessor(Config{ViewMaterialization: true, PipelineDepth: depth})
		p.MustRegister(xscl.MustParse(joinQuery))
		d1, d2 := joiningDocs()
		if n := len(p.ProcessBatch("S", []*xmldoc.Document{d1, d2})[1]); n != 1 {
			t.Fatalf("depth=%d: second doc of batch produced %d matches, want 1", depth, n)
		}
		s := p.Stats()
		if s.Documents != 2 {
			t.Errorf("depth=%d: Documents = %d after one 2-doc batch, want 2", depth, s.Documents)
		}
		if s.Stage1Wall == 0 {
			t.Errorf("depth=%d: Stage1Wall not recorded", depth)
		}
		if s.Stage2Wall == 0 {
			t.Errorf("depth=%d: Stage2Wall not recorded", depth)
		}
		if s.XPath == 0 || s.Witness == 0 {
			t.Errorf("depth=%d: Stage-1 phase stats not accumulated: xpath %v witness %v", depth, s.XPath, s.Witness)
		}

		// A second batch must add to, not replace, the first batch's
		// counters.
		b3 := xmldoc.NewBuilder(3, 14, "a")
		b3.Element(0, "x", "k")
		b4 := xmldoc.NewBuilder(4, 16, "b")
		b4.Element(0, "y", "k")
		p.ProcessBatch("S", []*xmldoc.Document{b3.Build(), b4.Build()})
		s2 := p.Stats()
		if s2.Documents != 4 {
			t.Errorf("depth=%d: Documents = %d after two batches, want 4", depth, s2.Documents)
		}
		if s2.Stage1Wall <= s.Stage1Wall {
			t.Errorf("depth=%d: Stage1Wall did not accumulate: %v then %v", depth, s.Stage1Wall, s2.Stage1Wall)
		}
		if s2.Stage2Wall <= s.Stage2Wall {
			t.Errorf("depth=%d: Stage2Wall did not accumulate: %v then %v", depth, s.Stage2Wall, s2.Stage2Wall)
		}

		p.ResetStats()
		if s3 := p.Stats(); s3.Stage1Wall != 0 || s3.Stage2Wall != 0 || s3.Documents != 0 {
			t.Errorf("depth=%d: ResetStats left residue: %+v", depth, s3)
		}
	}
}

// TestProcessBatchDegenerate checks the empty and single-document batches at
// every depth.
func TestProcessBatchDegenerate(t *testing.T) {
	for _, depth := range []int{0, 1, 4} {
		p := NewProcessor(Config{PipelineDepth: depth})
		p.MustRegister(xscl.MustParse(joinQuery))
		if out := p.ProcessBatch("S", nil); len(out) != 0 {
			t.Errorf("depth=%d: empty batch returned %d entries", depth, len(out))
		}
		d1, d2 := joiningDocs()
		if out := p.ProcessBatch("S", []*xmldoc.Document{d1}); len(out) != 1 || len(out[0]) != 0 {
			t.Errorf("depth=%d: single-doc batch = %v", depth, out)
		}
		if out := p.ProcessBatch("S", []*xmldoc.Document{d2}); len(out) != 1 || len(out[0]) != 1 {
			t.Errorf("depth=%d: follow-up batch = %v, want one match", depth, out)
		}
	}
}

// TestPipelineWithWorkersDeterminism runs a longer generated stream (GC
// active) through ProcessBatch at several pipeline depths — as many Stage-1
// workers — and requires byte-identical output to the fully sequential
// engine.
func TestPipelineWithWorkersDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	leafNames := []string{"a", "b", "c"}
	var queries []*xscl.Query
	for i := 0; i < 8; i++ {
		queries = append(queries, randomFlatQuery(rng, leafNames, 2, int64(5+rng.Intn(20)), "FOLLOWED BY"))
	}
	var docs []*xmldoc.Document
	ts := xmldoc.Timestamp(0)
	for i := 0; i < 120; i++ {
		ts += xmldoc.Timestamp(rng.Intn(4))
		docs = append(docs, randomFlatDoc(rng, xmldoc.DocID(i+1), ts, leafNames, 2))
	}
	var ref []string
	p := NewProcessor(Config{ViewMaterialization: true})
	for _, q := range queries {
		p.MustRegister(q)
	}
	for _, d := range docs {
		ref = append(ref, renderMatches(p.Process("S", d)))
	}
	for _, cfg := range []Config{
		{ViewMaterialization: true, PipelineDepth: 4},
		{ViewMaterialization: true, PipelineDepth: 8},
		{PipelineDepth: 2},
	} {
		q := NewProcessor(cfg)
		for _, src := range queries {
			q.MustRegister(src)
		}
		if cfg.ViewMaterialization {
			for di, ms := range q.ProcessBatch("S", docs) {
				if got := renderMatches(ms); got != ref[di] {
					t.Fatalf("depth=%d diverges on doc %d:\nseq:\n%sbatch:\n%s",
						cfg.PipelineDepth, di+1, ref[di], got)
				}
			}
			continue
		}
		// The basic path has its own reference (match sets are equal but
		// the per-doc stats differ); compare against a sequential basic
		// run instead.
		r := NewProcessor(Config{})
		for _, src := range queries {
			r.MustRegister(src)
		}
		for di, ms := range q.ProcessBatch("S", docs) {
			if got, want := renderMatches(ms), renderMatches(r.Process("S", docs[di])); got != want {
				t.Fatalf("basic depth=%d diverges on doc %d:\nseq:\n%sbatch:\n%s",
					cfg.PipelineDepth, di+1, want, got)
			}
		}
	}
}
