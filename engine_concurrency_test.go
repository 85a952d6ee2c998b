package mmqjp

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/xmldoc"
)

// TestEngineConcurrentSubscribePublish hammers one shared engine from many
// goroutines mixing Subscribe, publishes and the read accessors. Each
// subscription brings an element name of its own, so registration grows the
// shared NFA that concurrent publishers' Stage 1 walks outside the engine's
// lock. Run under -race (the CI race job does, twenty times over) this is
// the thread-safety proof of the facade and its registration lock.
func TestEngineConcurrentSubscribePublish(t *testing.T) {
	eng := New(Options{})
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
					src := fmt.Sprintf("S//a->x JOIN{x=y, %d} S//b%d->y", 1000+g*10+i, id)
					if _, err := eng.Subscribe(src); err != nil {
						t.Error(err)
						return
					}
				}
				xml := "<a>k</a>"
				switch {
				case id%4 == 2:
					xml = fmt.Sprintf("<b%d>k</b%d>", id-1, id-1)
				case id%2 == 0:
					xml = "<b>k</b>"
				}
				ms, err := publishXML(eng, "S", xml, id, id)
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
// publishes (parsed documents and raw XML) racing Subscribe and the
// read accessors from many goroutines. Run under -race (the CI race job
// does) this is the thread-safety proof of the batch path: a batch holds the
// engine's lock across its documents, beside publishers whose Stage 1 runs
// outside it.
func TestEngineConcurrentBatchPublish(t *testing.T) {
	for _, single := range []bool{false, true} {
		eng := New(Options{})
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
					if single && g%3 == 2 {
						ms, err := publishXML(eng, "S", "<b>k</b>", base+1, base+1)
						if err != nil {
							t.Error(err)
							return
						}
						atomic.AddInt64(&matches, int64(len(ms)))
					} else if g%2 == 0 {
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
						for _, ms := range publishBatch(eng, "S", docs) {
							atomic.AddInt64(&matches, int64(len(ms)))
						}
					} else {
						docs := make([]PublishOption, batchLen)
						for j := range docs {
							xml := "<a>k</a>"
							if j%2 == 1 {
								xml = "<b>k</b>"
							}
							docs[j] = WithXML(xml, base+int64(j)+1, base+int64(j)+1)
						}
						res, err := eng.PublishDoc("S", nil, docs...)
						if err != nil {
							t.Error(err)
							return
						}
						for _, ms := range res.Batches {
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
			t.Errorf("single=%v: no matches across concurrent batch publishes", single)
		}
	}
}

// TestConcurrentPublishersMatchSequential publishes the RSS stream from four
// goroutines, so their Stage 1 runs side by side outside the engine's lock,
// and reads the serial document order off OnDocument; replaying that order on
// a ProcessorSequential engine (one query at a time, never a shared
// structure) must give every document byte-identical matches. Every other
// document goes in as XML through AppendPublishXML, from a buffer of its
// publisher's that is overwritten with junk after the call, so the pooled
// documents pass between publishers too. The CI race job runs it twenty
// times over.
func TestConcurrentPublishersMatchSequential(t *testing.T) {
	queries, stream := rssBatchFixture(300, 120)
	byID := map[int64]*Document{}
	for _, d := range stream {
		byID[int64(d.ID)] = d
	}
	var order []int64 // appended under the engine's lock
	eng := New(Options{OnDocument: func(dt DocTimings) { order = append(order, dt.DocID) }})
	ref := New(Options{Processor: ProcessorSequential})
	for _, q := range queries {
		eng.MustSubscribe(q)
		ref.MustSubscribe(q)
	}
	got := make([][]Match, len(stream))
	const publishers = 4
	var wg sync.WaitGroup
	for g := 0; g < publishers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf []byte
			for i := g; i < len(stream); i += publishers {
				d := stream[i]
				if i%2 == 0 {
					got[i] = publishOne(eng, "S", d)
					continue
				}
				buf = append(buf[:0], d.XMLText()...)
				ms, err := eng.AppendPublishXML(Matches{}, "S", buf, int64(d.ID), int64(d.Timestamp))
				if err != nil {
					t.Error(err)
					return
				}
				copy(buf, bytes.Repeat([]byte{'#'}, len(buf)))
				got[i] = eng.appendMatchesLocked(&ms)
			}
		}(g)
	}
	wg.Wait()
	byDoc := map[int64][]Match{}
	for i, d := range stream {
		byDoc[int64(d.ID)] = got[i]
	}
	if len(order) != len(stream) {
		t.Fatalf("OnDocument saw %d documents, want %d", len(order), len(stream))
	}
	total := 0
	for i, id := range order {
		want := publishOne(ref, "S", byID[id])
		total += len(want)
		if g, w := renderEngineMatches(byDoc[id]), renderEngineMatches(want); g != w {
			t.Fatalf("serial position %d (doc %d): concurrent\n%sdiffers from sequential\n%s", i, id, g, w)
		}
	}
	if total == 0 {
		t.Fatal("the sequential engine produced no matches; the comparison is vacuous")
	}
}

// TestPingFailsWhileStage2Blocked: Ping round-trips the lock every
// document's Stage 2 holds, so a publish wedged inside it — here in its
// OnDocument hook — makes Ping fail, and Ping succeeds again once the
// publish completes.
func TestPingFailsWhileStage2Blocked(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var block atomic.Bool
	eng := New(Options{OnDocument: func(DocTimings) {
		if block.Load() {
			close(entered)
			<-release
		}
	}})
	eng.MustSubscribe("S//a->x JOIN{x=y, 100} S//b->y")
	if err := eng.Ping(time.Second); err != nil {
		t.Fatalf("idle engine: Ping = %v", err)
	}
	block.Store(true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		publishXML(eng, "S", "<a>k</a>", 1, 1)
	}()
	<-entered
	if err := eng.Ping(50 * time.Millisecond); err == nil {
		t.Fatal("Ping succeeded while a publish is wedged in Stage 2")
	}
	block.Store(false)
	close(release)
	<-done
	if err := eng.Ping(time.Second); err != nil {
		t.Fatalf("after the publish completed: Ping = %v", err)
	}
}

// TestConcurrentDocumentReaders: string values are computed on demand and
// memoized nowhere, so goroutines reading one retained document at once —
// StringValue on every node, OutputXML on a match over it, and publishers
// whose Stage 1 reads the join value of an interior element — write nothing
// shared, and each reads what a lone reader reads. The CI race job runs it
// twenty times over.
func TestConcurrentDocumentReaders(t *testing.T) {
	const text = `<feed><entry k="v"><id>a<sub>1</sub>b</id><title>t <em>e</em></title></entry></feed>`
	eng := New(Options{RetainDocuments: true})
	eng.MustSubscribe("S//entry->e[./id->x] FOLLOWED BY{x=y, 100} S//entry->f[./ref->y]")
	d, err := ParseDocument(text, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	publishOne(eng, "S", d)
	ms, err := publishXML(eng, "S", `<feed><entry><ref>ab1</ref></entry></feed>`, 2, 2)
	if err != nil || len(ms) != 1 {
		t.Fatalf("%d matches, err %v; want 1 (the interior id's value joins)", len(ms), err)
	}
	// The expected values come from a copy, so the readers below are the
	// first to ask d for its other interior elements' values.
	ref, err := ParseDocument(text, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	values := make([]string, ref.Len())
	for i := range values {
		values[i] = ref.StringValue(xmldoc.NodeID(i))
	}
	out, ok := eng.OutputXML(ms[0])
	if !ok {
		t.Fatal("OutputXML not available with RetainDocuments")
	}
	const readers, rounds = 4, 200
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i, want := range values {
					if got := d.StringValue(xmldoc.NodeID(i)); got != want {
						t.Errorf("node %d: string value %q, want %q", i, got, want)
						return
					}
				}
				if got, _ := eng.OutputXML(ms[0]); got != out {
					t.Errorf("OutputXML %q, want %q", got, out)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds/10; r++ {
			publishOne(eng, "S", d)
		}
	}()
	wg.Wait()
}
