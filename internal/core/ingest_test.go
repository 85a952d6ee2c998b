package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/xmldoc"
	"repro/internal/xscl"
)

// ingestFixture generates a multi-query flat workload and a document stream
// with GC-active windows for the continuous-ingest tests.
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

// TestIngestMatchesProcess submits a stream through continuous ingest
// pipelines of every Depth × Workers combination and requires per-document
// match output byte-identical to consecutive Process calls on a fresh
// processor.
func TestIngestMatchesProcess(t *testing.T) {
	queries, docs := ingestFixture(101, 8, 120)
	for _, viewMat := range []bool{false, true} {
		ref := NewProcessor(Config{ViewMaterialization: viewMat})
		for _, q := range queries {
			ref.MustRegister(q)
		}
		var want []string
		for _, d := range docs {
			want = append(want, renderMatches(ref.Process("S", d)))
		}
		for _, cfg := range []IngestConfig{
			{Depth: 1, Workers: 1},
			{Depth: 2, Workers: 2},
			{Depth: 8, Workers: 4},
			{Depth: 0}, // clamps to 1
		} {
			p := NewProcessor(Config{ViewMaterialization: viewMat})
			for _, q := range queries {
				p.MustRegister(q)
			}
			ing := NewIngest(p, cfg)
			got := make([]string, len(docs))
			for i, d := range docs {
				i := i
				if err := ing.Submit("S", d, func(ms *Matches) { got[i] = renderMatches(ms.Slice()) }); err != nil {
					t.Fatal(err)
				}
			}
			ing.Close()
			for i := range docs {
				if got[i] != want[i] {
					t.Fatalf("viewmat=%v depth=%d workers=%d: doc %d diverges:\nserial:\n%singest:\n%s",
						viewMat, cfg.Depth, cfg.Workers, i+1, want[i], got[i])
				}
			}
		}
	}
}

// TestIngestConcurrentSubmitDeterminism is the continuous-ingest acceptance
// test: many goroutines submit concurrently, the test records the admission
// order (its mutex wraps each Submit, so the pipeline's internal admission
// order equals the recorded order), and per-document output must be
// byte-identical to serial Process calls in that admission order — for any
// interleaving the scheduler produces.
func TestIngestConcurrentSubmitDeterminism(t *testing.T) {
	queries, docs := ingestFixture(202, 10, 150)
	for _, workers := range []int{1, 4} {
		p := NewProcessor(Config{ViewMaterialization: true})
		for _, q := range queries {
			p.MustRegister(q)
		}
		ing := NewIngest(p, IngestConfig{Depth: 4, Workers: workers})
		var mu sync.Mutex
		order := make([]*xmldoc.Document, 0, len(docs))
		got := map[xmldoc.DocID]string{}
		const publishers = 5
		var wg sync.WaitGroup
		for g := 0; g < publishers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(docs); i += publishers {
					d := docs[i]
					mu.Lock()
					err := ing.Submit("S", d, func(ms *Matches) { got[d.ID] = renderMatches(ms.Slice()) })
					order = append(order, d)
					mu.Unlock()
					if err != nil {
						t.Error(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		ing.Close()

		ref := NewProcessor(Config{ViewMaterialization: true})
		for _, q := range queries {
			ref.MustRegister(q)
		}
		for i, d := range order {
			want := renderMatches(ref.Process("S", d))
			if got[d.ID] != want {
				t.Fatalf("workers=%d: admission position %d (doc %d) diverges:\nserial:\n%singest:\n%s",
					workers, i, d.ID, want, got[d.ID])
			}
		}
	}
}

// TestIngestBarrier checks the registration barrier: the function runs
// after every prior submission has been consumed, no later document is
// processed before it, and a query registered at the barrier behaves
// exactly as a serial mid-stream Register.
func TestIngestBarrier(t *testing.T) {
	queries, docs := ingestFixture(303, 6, 80)
	late := xscl.MustParse(joinQuery)

	ref := NewProcessor(Config{ViewMaterialization: true})
	for _, q := range queries[:3] {
		ref.MustRegister(q)
	}
	var want []string
	for i, d := range docs {
		if i == len(docs)/2 {
			ref.MustRegister(late)
		}
		want = append(want, renderMatches(ref.Process("S", d)))
	}

	p := NewProcessor(Config{ViewMaterialization: true})
	for _, q := range queries[:3] {
		p.MustRegister(q)
	}
	ing := NewIngest(p, IngestConfig{Depth: 4})
	got := make([]string, len(docs))
	for i, d := range docs {
		if i == len(docs)/2 {
			var seen int
			if err := ing.Barrier(func() {
				seen = int(p.Stats().Documents)
				p.MustRegister(late)
			}); err != nil {
				t.Fatal(err)
			}
			if seen != i {
				t.Fatalf("barrier ran after %d consumed documents, want %d", seen, i)
			}
		}
		i := i
		if err := ing.Submit("S", d, func(ms *Matches) { got[i] = renderMatches(ms.Slice()) }); err != nil {
			t.Fatal(err)
		}
	}
	ing.Close()
	for i := range docs {
		if got[i] != want[i] {
			t.Fatalf("doc %d diverges after mid-stream barrier registration:\nserial:\n%singest:\n%s",
				i+1, want[i], got[i])
		}
	}
}

// TestIngestCloseSemantics checks that Close drains and delivers every
// admitted document, that closed pipelines reject further work with
// ErrIngestClosed, and that Close is idempotent.
func TestIngestCloseSemantics(t *testing.T) {
	p := NewProcessor(Config{ViewMaterialization: true})
	p.MustRegister(xscl.MustParse(joinQuery))
	ing := NewIngest(p, IngestConfig{Depth: 2})
	d1, d2 := joiningDocs()
	var delivered atomic.Int64
	var lastLen atomic.Int64
	for _, d := range []*xmldoc.Document{d1, d2} {
		if err := ing.Submit("S", d, func(ms *Matches) {
			delivered.Add(1)
			lastLen.Store(int64(ms.Len()))
		}); err != nil {
			t.Fatal(err)
		}
	}
	ing.Close()
	if delivered.Load() != 2 {
		t.Fatalf("Close delivered %d of 2 admitted documents", delivered.Load())
	}
	if lastLen.Load() != 1 {
		t.Fatalf("second document delivered %d matches, want 1", lastLen.Load())
	}
	if err := ing.Submit("S", d1, nil); err != ErrIngestClosed {
		t.Fatalf("Submit after Close: %v, want ErrIngestClosed", err)
	}
	if err := ing.Barrier(func() {}); err != ErrIngestClosed {
		t.Fatalf("Barrier after Close: %v, want ErrIngestClosed", err)
	}
	if err := ing.Flush(); err != ErrIngestClosed {
		t.Fatalf("Flush after Close: %v, want ErrIngestClosed", err)
	}
	ing.Close() // idempotent
	ing.Wait()  // returns immediately once drained
}

// TestIngestBackpressure checks the admission bound: with the coordinator
// wedged in a delivery, at most Depth+1 submissions are admitted and the
// next one blocks until a slot frees.
func TestIngestBackpressure(t *testing.T) {
	const depth = 3
	p := NewProcessor(Config{})
	p.MustRegister(xscl.MustParse(joinQuery))
	ing := NewIngest(p, IngestConfig{Depth: depth})
	release := make(chan struct{})
	var admitted atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < depth+5; i++ {
			b := xmldoc.NewBuilder(xmldoc.DocID(i+1), xmldoc.Timestamp(i+1), "a")
			b.Element(0, "x", "k")
			if err := ing.Submit("S", b.Build(), func(*Matches) { <-release }); err != nil {
				t.Error(err)
				return
			}
			admitted.Add(1)
		}
	}()
	// The first delivery wedges the coordinator; admission must plateau at
	// depth+1 (depth buffered plus the one in the coordinator's hands).
	deadline := time.Now().Add(2 * time.Second)
	for admitted.Load() < depth+1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := admitted.Load(); got != depth+1 {
		t.Fatalf("admitted %d documents against a wedged pipeline, want %d", got, depth+1)
	}
	time.Sleep(20 * time.Millisecond)
	if got := admitted.Load(); got != depth+1 {
		t.Fatalf("admission advanced to %d while wedged, want %d", got, depth+1)
	}
	close(release)
	wg.Wait()
	ing.Close()
}
