package mmqjp

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestEngineConcurrentSubscribePublish hammers one shared engine from many
// goroutines mixing Subscribe, Publish and the read accessors. Run under
// -race (the CI race job does) this is the thread-safety proof of the
// facade.
func TestEngineConcurrentSubscribePublish(t *testing.T) {
	eng := New(Options{Processor: ProcessorViewMat})
	eng.MustSubscribe("S//a->x JOIN{x=y, 1000000} S//b->y")
	const goroutines = 8
	const iters = 25
	var matches int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := int64(g*1000 + i + 1)
				if g%3 == 0 && i%5 == 0 {
					src := fmt.Sprintf("S//a->x JOIN{x=y, %d} S//b->y", 1000+g*10+i)
					if _, err := eng.Subscribe(src); err != nil {
						t.Error(err)
						return
					}
				}
				xml := "<a>k</a>"
				if id%2 == 0 {
					xml = "<b>k</b>"
				}
				ms, err := eng.PublishXML("S", xml, id, id)
				if err != nil {
					t.Error(err)
					return
				}
				atomic.AddInt64(&matches, int64(len(ms)))
				_ = eng.NumQueries()
				_ = eng.NumTemplates()
				_ = eng.Stats()
			}
		}(g)
	}
	wg.Wait()
	if atomic.LoadInt64(&matches) == 0 {
		t.Error("no matches across concurrent publishes")
	}
	if n := eng.NumQueries(); n < 1 {
		t.Errorf("queries lost: %d", n)
	}
}

// TestEngineConcurrentBatchPublish hammers one shared engine with batch
// publishes (PublishBatch and PublishXMLBatch) racing Subscribe and the
// read accessors from many goroutines. Run under -race (the CI race job
// does) this is the thread-safety proof of the pipelined ingest path: the
// Stage-1 worker goroutines inside a batch must never conflict with
// concurrent readers or with the serialized writers.
func TestEngineConcurrentBatchPublish(t *testing.T) {
	for _, depth := range []int{1, 4} {
		eng := New(Options{Processor: ProcessorViewMat, PipelineDepth: depth})
		eng.MustSubscribe("S//a->x JOIN{x=y, 1000000} S//b->y")
		const goroutines = 6
		const iters = 8
		const batchLen = 6
		var matches int64
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					if g%3 == 0 && i%4 == 0 {
						src := fmt.Sprintf("S//a->x JOIN{x=y, %d} S//b->y", 2000+g*10+i)
						if _, err := eng.Subscribe(src); err != nil {
							t.Error(err)
							return
						}
					}
					base := int64(g*10000 + i*100)
					if g%2 == 0 {
						docs := make([]*Document, batchLen)
						for j := range docs {
							xml := "<a>k</a>"
							if j%2 == 1 {
								xml = "<b>k</b>"
							}
							d, err := ParseDocument(xml, base+int64(j)+1, base+int64(j)+1)
							if err != nil {
								t.Error(err)
								return
							}
							docs[j] = d
						}
						for _, ms := range eng.PublishBatch("S", docs) {
							atomic.AddInt64(&matches, int64(len(ms)))
						}
					} else {
						events := make([]XMLEvent, batchLen)
						for j := range events {
							xml := "<a>k</a>"
							if j%2 == 1 {
								xml = "<b>k</b>"
							}
							events[j] = XMLEvent{XML: xml, DocID: base + int64(j) + 1, Timestamp: base + int64(j) + 1}
						}
						out, err := eng.PublishXMLBatch("S", events)
						if err != nil {
							t.Error(err)
							return
						}
						for _, ms := range out {
							atomic.AddInt64(&matches, int64(len(ms)))
						}
					}
					_ = eng.NumQueries()
					_ = eng.NumTemplates()
					_ = eng.Stats()
				}
			}(g)
		}
		wg.Wait()
		if atomic.LoadInt64(&matches) == 0 {
			t.Errorf("depth=%d: no matches across concurrent batch publishes", depth)
		}
	}
}
