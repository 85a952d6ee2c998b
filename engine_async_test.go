package mmqjp

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// collectAsync drains a PublishAsync result channel.
func collectAsync(t *testing.T, ch <-chan []Match) []Match {
	t.Helper()
	ms, ok := <-ch
	if !ok {
		t.Fatal("match channel closed without a delivery")
	}
	if _, open := <-ch; open {
		t.Fatal("match channel delivered twice")
	}
	return ms
}

// TestPublishAsyncMatchesPublish is the engine-level acceptance test of the
// continuous async ingest pipeline: concurrent publishers push the RSS
// workload through PublishAsync while the test records the admission order
// (its mutex wraps each call, so the engine's internal admission order
// equals the recorded order); per-document match output — order included —
// must be byte-identical to serial Publish of the same admission order, at
// every PipelineDepth. The CI race job runs this under -race.
func TestPublishAsyncMatchesPublish(t *testing.T) {
	queries, stream := rssBatchFixture(300, 100)
	for _, depth := range []int{0, 2} {
		eng := New(Options{Processor: ProcessorViewMat, PipelineDepth: depth})
		for _, q := range queries {
			eng.MustSubscribe(q)
		}
		var mu sync.Mutex
		order := make([]*Document, 0, len(stream))
		results := make(map[int64]<-chan []Match, len(stream))
		const publishers = 4
		var wg sync.WaitGroup
		for g := 0; g < publishers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(stream); i += publishers {
					d := stream[i]
					mu.Lock()
					results[int64(d.ID)] = eng.PublishAsync("S", d)
					order = append(order, d)
					mu.Unlock()
				}
			}(g)
		}
		wg.Wait()
		eng.Flush()

		ref := New(Options{Processor: ProcessorViewMat})
		for _, q := range queries {
			ref.MustSubscribe(q)
		}
		for i, d := range order {
			want := ref.Publish("S", d)
			got := collectAsync(t, results[int64(d.ID)])
			if len(got) != len(want) {
				t.Fatalf("depth=%d admission %d (doc %d): %d matches async vs %d serial",
					depth, i, d.ID, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("depth=%d admission %d match %d: async %+v vs serial %+v",
						depth, i, j, got[j], want[j])
				}
			}
		}
		eng.Close()
	}
}

// TestPublishAsyncSubscribeBarrier checks that a Subscribe (and an
// Unsubscribe) issued between async publishes lands exactly at its position
// in the admission order: output equals a serial engine running the same
// publish/subscribe sequence.
func TestPublishAsyncSubscribeBarrier(t *testing.T) {
	queries, stream := rssBatchFixture(200, 80)
	late := queries[len(queries)-1]
	standing := queries[:len(queries)-1]

	ref := New(Options{Processor: ProcessorViewMat})
	for _, q := range standing {
		ref.MustSubscribe(q)
	}
	var want [][]Match
	var lateID QueryID
	for i, d := range stream {
		if i == len(stream)/3 {
			lateID = ref.MustSubscribe(late)
		}
		if i == 2*len(stream)/3 {
			if err := ref.Unsubscribe(lateID); err != nil {
				t.Fatal(err)
			}
		}
		want = append(want, ref.Publish("S", d))
	}

	eng := New(Options{Processor: ProcessorViewMat, PipelineDepth: 2})
	for _, q := range standing {
		eng.MustSubscribe(q)
	}
	chans := make([]<-chan []Match, len(stream))
	var asyncLate QueryID
	for i, d := range stream {
		if i == len(stream)/3 {
			asyncLate = eng.MustSubscribe(late)
			if asyncLate != lateID {
				t.Fatalf("late subscription id %d vs serial %d", asyncLate, lateID)
			}
		}
		if i == 2*len(stream)/3 {
			if err := eng.Unsubscribe(asyncLate); err != nil {
				t.Fatal(err)
			}
		}
		chans[i] = eng.PublishAsync("S", d)
	}
	eng.Close()
	for i := range stream {
		got := collectAsync(t, chans[i])
		if fmt.Sprint(got) != fmt.Sprint(want[i]) {
			t.Fatalf("doc %d diverges across mid-stream subscribe/unsubscribe:\nserial: %v\nasync:  %v",
				i, want[i], got)
		}
	}
}

// TestPublishAsyncComposition checks that PUBLISH-clause cascades fire
// inside the async pipeline exactly as they do in serial Publish, and that
// OutputXML works on the delivered matches.
func TestPublishAsyncComposition(t *testing.T) {
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
	eng := New(Options{Processor: ProcessorViewMat, EnableComposition: true, PipelineDepth: 4})
	subscribe(eng)
	chans := make([]<-chan []Match, len(docs))
	for i, d := range docs {
		chans[i] = eng.PublishAsync("S", d)
	}
	eng.Flush()
	for i := range docs {
		got := collectAsync(t, chans[i])
		if fmt.Sprint(got) != fmt.Sprint(want[i]) {
			t.Fatalf("doc %d:\nasync:  %v\nserial: %v", i, got, want[i])
		}
		for _, m := range got {
			if _, ok := eng.OutputXML(m); !ok {
				t.Fatalf("doc %d: OutputXML failed for async match %+v", i, m)
			}
		}
	}
	eng.Close()
}

// TestPublishAsyncSequentialProcessor checks the degraded path: the
// sequential baseline has no Stage-1/Stage-2 split, so PublishAsync
// resolves synchronously but keeps the channel contract.
func TestPublishAsyncSequentialProcessor(t *testing.T) {
	eng := New(Options{Processor: ProcessorSequential})
	eng.MustSubscribe("S//a->x FOLLOWED BY{x=y, 100} S//b->y")
	d1, err := ParseDocument("<a>k</a>", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := ParseDocument("<b>k</b>", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ms := collectAsync(t, eng.PublishAsync("S", d1)); len(ms) != 0 {
		t.Fatalf("first doc matched %d, want 0", len(ms))
	}
	if ms := collectAsync(t, eng.PublishAsync("S", d2)); len(ms) != 1 {
		t.Fatalf("second doc matched %d, want 1", len(ms))
	}
	eng.Flush() // no-op without a pipeline
	eng.Close()
}

// TestEngineCloseSemantics checks that Close drains in-flight publishes,
// that PublishAsync after Close degrades to synchronous delivery with
// identical results, and that Flush/Close stay safe afterwards.
func TestEngineCloseSemantics(t *testing.T) {
	eng := New(Options{Processor: ProcessorViewMat, PipelineDepth: 4})
	eng.MustSubscribe("S//a->x FOLLOWED BY{x=y, 100} S//b->y")
	mkDoc := func(id int64, xml string) *Document {
		d, err := ParseDocument(xml, id, id)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	ch1 := eng.PublishAsync("S", mkDoc(1, "<a>k</a>"))
	eng.Close()
	if ms := collectAsync(t, ch1); len(ms) != 0 {
		t.Fatalf("in-flight doc matched %d, want 0", len(ms))
	}
	// After Close the async path degrades to a synchronous publish: the
	// document still enters the join state and matches.
	if ms := collectAsync(t, eng.PublishAsync("S", mkDoc(2, "<b>k</b>"))); len(ms) != 1 {
		t.Fatal("PublishAsync after Close did not publish")
	}
	if _, err := eng.Subscribe("S//a->z"); err != nil {
		t.Fatalf("Subscribe after Close: %v", err)
	}
	eng.Flush()
	eng.Close() // idempotent
}

// TestPublishAsyncStress hammers one shared engine with concurrent
// PublishAsync, synchronous Publish, Subscribe/Unsubscribe (both of which
// run at pipeline barriers), Flush, and the read accessors. Run under -race
// (the CI race job does) this is the thread-safety proof of the continuous
// ingest pipeline.
func TestPublishAsyncStress(t *testing.T) {
	for _, depth := range []int{0, 2} {
		eng := New(Options{Processor: ProcessorViewMat, PipelineDepth: depth})
		eng.MustSubscribe("S//a->x JOIN{x=y, 1000000} S//b->y")
		const goroutines = 8
		const iters = 30
		var matches atomic.Int64
		var wg sync.WaitGroup
		var chmu sync.Mutex
		var chans []<-chan []Match
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var mine []QueryID
				for i := 0; i < iters; i++ {
					id := int64(g*1000 + i + 1)
					switch {
					case g%4 == 0 && i%6 == 0:
						src := fmt.Sprintf("S//a->x JOIN{x=y, %d} S//b->y", 1000+g*100+i)
						qid, err := eng.Subscribe(src)
						if err != nil {
							t.Error(err)
							return
						}
						mine = append(mine, qid)
					case g%4 == 0 && i%6 == 3 && len(mine) > 0:
						if err := eng.Unsubscribe(mine[0]); err != nil {
							t.Error(err)
							return
						}
						mine = mine[1:]
					}
					xml := "<a>k</a>"
					if id%2 == 0 {
						xml = "<b>k</b>"
					}
					d, err := ParseDocument(xml, id, id)
					if err != nil {
						t.Error(err)
						return
					}
					if g%5 == 1 {
						ms := eng.Publish("S", d)
						matches.Add(int64(len(ms)))
					} else {
						ch := eng.PublishAsync("S", d)
						chmu.Lock()
						chans = append(chans, ch)
						chmu.Unlock()
					}
					if i%10 == 7 {
						eng.Flush()
					}
					_ = eng.NumQueries()
					_ = eng.Stats()
				}
			}(g)
		}
		wg.Wait()
		eng.Close()
		for _, ch := range chans {
			matches.Add(int64(len(<-ch)))
		}
		if matches.Load() == 0 {
			t.Errorf("depth=%d: no matches across concurrent async publishes", depth)
		}
	}
}
