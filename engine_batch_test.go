package mmqjp

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/workload"
)

// rssBatchFixture generates the multi-template RSS workload used by the
// determinism tests: queries plus a document stream.
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

// TestPublishBatchMatchesPublish: on the multi-template RSS workload, a
// batch PublishDoc must return exactly what one PublishDoc per document does,
// for both processor kinds, down to every Match field.
func TestPublishBatchMatchesPublish(t *testing.T) {
	queries, stream := rssBatchFixture(400, 120)
	for _, kind := range allKinds() {
		ref := New(Options{Processor: kind})
		eng := New(Options{Processor: kind})
		for _, q := range queries {
			ref.MustSubscribe(q)
			eng.MustSubscribe(q)
		}
		got := publishBatch(eng, "S", stream)
		if len(got) != len(stream) {
			t.Fatalf("kind=%d: %d result slices for %d docs", kind, len(got), len(stream))
		}
		for i, d := range stream {
			want := publishOne(ref, "S", d)
			if len(got[i]) != len(want) {
				t.Fatalf("kind=%d doc %d: %d matches batch vs %d sequential", kind, i, len(got[i]), len(want))
			}
			for j := range got[i] {
				if got[i][j] != want[j] {
					t.Fatalf("kind=%d doc %d match %d: batch %+v vs sequential %+v", kind, i, j, got[i][j], want[j])
				}
			}
		}
	}
}

// TestPublishBatchWithParallelism publishes batches while other goroutines
// publish single documents: each batch enters the join state contiguously —
// no other document lands between two of its documents in the serial order
// OnDocument reports — and every document's matches equal a serial replay of
// that order.
func TestPublishBatchWithParallelism(t *testing.T) {
	queries, stream := rssBatchFixture(300, 120)
	byID := map[int64]*Document{}
	for _, d := range stream {
		byID[int64(d.ID)] = d
	}
	var order []int64 // appended under the engine's lock
	eng := New(Options{OnDocument: func(dt DocTimings) { order = append(order, dt.DocID) }})
	for _, q := range queries {
		eng.MustSubscribe(q)
	}
	got := make(map[int64][]Match, len(stream))
	var mu sync.Mutex
	const batchLen = 10
	var wg sync.WaitGroup
	// Goroutine 0 publishes the first half in batches; three others publish
	// the second half one document at a time.
	wg.Add(1)
	go func() {
		defer wg.Done()
		half := stream[:len(stream)/2]
		for b := 0; b < len(half); b += batchLen {
			batch := half[b:min(b+batchLen, len(half))]
			out := publishBatch(eng, "S", batch)
			mu.Lock()
			for i, d := range batch {
				got[int64(d.ID)] = out[i]
			}
			mu.Unlock()
		}
	}()
	const singles = 3
	for g := 0; g < singles; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := len(stream)/2 + g; i < len(stream); i += singles {
				d := stream[i]
				ms := publishOne(eng, "S", d)
				mu.Lock()
				got[int64(d.ID)] = ms
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()

	if len(order) != len(stream) {
		t.Fatalf("OnDocument saw %d documents, want %d", len(order), len(stream))
	}
	pos := map[int64]int{}
	for i, id := range order {
		pos[id] = i
	}
	half := stream[:len(stream)/2]
	for b := 0; b < len(half); b += batchLen {
		first := pos[int64(half[b].ID)]
		for k, d := range half[b:min(b+batchLen, len(half))] {
			if pos[int64(d.ID)] != first+k {
				t.Fatalf("batch at %d is not contiguous: its document %d is at serial position %d, want %d",
					b, k, pos[int64(d.ID)], first+k)
			}
		}
	}
	ref := New(Options{})
	for _, q := range queries {
		ref.MustSubscribe(q)
	}
	for i, id := range order {
		if g, w := fmt.Sprint(got[id]), fmt.Sprint(publishOne(ref, "S", byID[id])); g != w {
			t.Fatalf("serial position %d (doc %d):\nconcurrent: %s\nserial:     %s", i, id, g, w)
		}
	}
}

// TestPublishXMLBatch checks a raw-XML batch (one WithXML per document):
// each document gets its own result slice, and a parse error anywhere
// rejects the whole batch without publishing any document of it.
func TestPublishXMLBatch(t *testing.T) {
	batch := func(second string) []PublishOption {
		return []PublishOption{WithXML("<a>k</a>", 1, 1), WithXML(second, 2, 2), WithXML("<b>k</b>", 3, 3)}
	}
	eng := New(Options{})
	eng.MustSubscribe("S//a->x FOLLOWED BY{x=y, 100} S//b->y")

	// A bad document anywhere rejects the batch whole.
	if _, err := eng.PublishDoc("S", nil, batch("<unclosed>")...); err == nil {
		t.Fatal("batch with bad XML accepted")
	}
	if got := eng.Stats(); got.Documents != 0 {
		t.Fatalf("rejected batch published documents: %s", got)
	}

	res, err := eng.PublishDoc("S", nil, batch("<b>k</b>")...)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Batches
	total := 0
	for _, ms := range out {
		total += len(ms)
	}
	if len(out) != 3 || total != 2 {
		t.Errorf("got %d slices, %d matches, want 3 slices with 2 matches", len(out), total)
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
	ref := New(Options{EnableComposition: true})
	subscribe(ref)
	var want [][]Match
	for _, d := range docs {
		want = append(want, publishOne(ref, "S", d))
	}
	eng := New(Options{EnableComposition: true})
	subscribe(eng)
	got := publishBatch(eng, "S", docs)
	for i := range got {
		if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
			t.Fatalf("doc %d:\nbatch:      %v\nsequential: %v", i, got[i], want[i])
		}
	}
}
