package mmqjp

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/workload"
)

// rssBatchFixture generates the multi-template RSS workload used by the
// batch determinism tests: queries plus a document stream.
func rssBatchFixture(nq, items int) ([]string, []*Document) {
	c := workload.DefaultRSS()
	qrng := rand.New(rand.NewSource(21))
	var queries []string
	for _, q := range c.Queries(qrng, nq) {
		queries = append(queries, q.Source)
	}
	srng := rand.New(rand.NewSource(22))
	return queries, c.Stream(srng, items)
}

// TestPublishBatchMatchesPublish is the engine-level acceptance test of the
// ingest pipeline: on the multi-template RSS workload, PublishBatch output
// must be identical to per-document Publish for every PipelineDepth
// ∈ {0, 1, 2, 8}, for both processor kinds, down to every Match field.
func TestPublishBatchMatchesPublish(t *testing.T) {
	queries, stream := rssBatchFixture(400, 120)
	for _, kind := range []ProcessorKind{ProcessorMMQJP, ProcessorViewMat} {
		ref := New(Options{Processor: kind})
		for _, q := range queries {
			ref.MustSubscribe(q)
		}
		var want [][]Match
		for _, d := range stream {
			want = append(want, ref.Publish("S", d))
		}
		for _, depth := range []int{0, 1, 2, 8} {
			eng := New(Options{Processor: kind, PipelineDepth: depth})
			for _, q := range queries {
				eng.MustSubscribe(q)
			}
			got := eng.PublishBatch("S", stream)
			if len(got) != len(want) {
				t.Fatalf("kind=%d depth=%d: %d result slices for %d docs", kind, depth, len(got), len(want))
			}
			for i := range got {
				if len(got[i]) != len(want[i]) {
					t.Fatalf("kind=%d depth=%d doc %d: %d matches batch vs %d sequential",
						kind, depth, i, len(got[i]), len(want[i]))
				}
				for j := range got[i] {
					if got[i][j] != want[i][j] {
						t.Fatalf("kind=%d depth=%d doc %d match %d: batch %+v vs sequential %+v",
							kind, depth, i, j, got[i][j], want[i][j])
					}
				}
			}
		}
	}
}

// TestPublishBatchWithParallelism checks the ingest pipeline's Stage-1
// workers at the engine level: a depth-4 batch equals per-document Publish.
func TestPublishBatchWithParallelism(t *testing.T) {
	queries, stream := rssBatchFixture(300, 80)
	ref := New(Options{Processor: ProcessorViewMat})
	for _, q := range queries {
		ref.MustSubscribe(q)
	}
	var want [][]Match
	for _, d := range stream {
		want = append(want, ref.Publish("S", d))
	}
	eng := New(Options{Processor: ProcessorViewMat, PipelineDepth: 4})
	for _, q := range queries {
		eng.MustSubscribe(q)
	}
	got := eng.PublishBatch("S", stream)
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("doc %d: %d matches vs %d", i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("doc %d match %d: %+v vs %+v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestPublishXMLBatch checks the XML entry point: batch output equals
// per-document PublishXML, and a parse error anywhere rejects the whole
// batch without publishing any document of it.
func TestPublishXMLBatch(t *testing.T) {
	mkEvents := func() []XMLEvent {
		return []XMLEvent{
			{XML: "<a>k</a>", DocID: 1, Timestamp: 1},
			{XML: "<b>k</b>", DocID: 2, Timestamp: 2},
			{XML: "<b>k</b>", DocID: 3, Timestamp: 3},
		}
	}
	for _, depth := range []int{0, 4} {
		eng := New(Options{Processor: ProcessorViewMat, PipelineDepth: depth})
		eng.MustSubscribe("S//a->x FOLLOWED BY{x=y, 100} S//b->y")

		// A bad document anywhere rejects the batch whole.
		bad := mkEvents()
		bad[1].XML = "<unclosed>"
		if _, err := eng.PublishXMLBatch("S", bad); err == nil {
			t.Fatalf("depth=%d: batch with bad XML accepted", depth)
		}
		if got := eng.Stats(); got.Documents != 0 {
			t.Fatalf("depth=%d: rejected batch published documents: %s", depth, got)
		}

		out, err := eng.PublishXMLBatch("S", mkEvents())
		if err != nil {
			t.Fatalf("depth=%d: %v", depth, err)
		}
		total := 0
		for _, ms := range out {
			total += len(ms)
		}
		if len(out) != 3 || total != 2 {
			t.Errorf("depth=%d: got %d slices, %d matches, want 3 slices with 2 matches", depth, len(out), total)
		}
	}
}

// TestPublishBatchComposition checks that PUBLISH-clause cascades fire
// between batch documents exactly as the per-document path fires them.
func TestPublishBatchComposition(t *testing.T) {
	subscribe := func(eng *Engine) {
		eng.MustSubscribe("S//a->x JOIN{x=y, 1000} S//b->y PUBLISH D")
		eng.MustSubscribe("D//result->r")
	}
	var docs []*Document
	for i := 0; i < 6; i++ {
		xml := "<a>k</a>"
		if i%2 == 1 {
			xml = "<b>k</b>"
		}
		d, err := ParseDocument(xml, int64(i+1), int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, d)
	}
	ref := New(Options{Processor: ProcessorViewMat, EnableComposition: true})
	subscribe(ref)
	var want [][]Match
	for _, d := range docs {
		want = append(want, ref.Publish("S", d))
	}
	for _, depth := range []int{0, 4} {
		eng := New(Options{Processor: ProcessorViewMat, EnableComposition: true, PipelineDepth: depth})
		subscribe(eng)
		got := eng.PublishBatch("S", docs)
		for i := range got {
			if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
				t.Fatalf("depth=%d doc %d:\nbatch:      %v\nsequential: %v", depth, i, got[i], want[i])
			}
		}
	}
}
