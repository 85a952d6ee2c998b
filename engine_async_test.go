package mmqjp

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// publishAsync publishes d through PublishDoc's WithAsync form and returns
// its matches, checking the form's contract: Done only, already resolved when
// the call returns, one delivery and then closed.
func publishAsync(eng *Engine, stream string, d *Document) ([]Match, error) {
	res, err := eng.PublishDoc(stream, d, WithAsync())
	if err != nil {
		return nil, err
	}
	if res.Done == nil || res.Batches != nil {
		return nil, fmt.Errorf("result = %+v, want Done only", res)
	}
	var ms []Match
	select {
	case got, ok := <-res.Done:
		if !ok {
			return nil, errors.New("result channel closed without a delivery")
		}
		ms = got
	default:
		return nil, errors.New("result channel not resolved when PublishDoc returned")
	}
	if _, open := <-res.Done; open {
		return nil, errors.New("result channel delivered twice")
	}
	return ms, nil
}

// mustPublishAsync is publishAsync on the test's goroutine.
func mustPublishAsync(t *testing.T, eng *Engine, stream string, d *Document) []Match {
	t.Helper()
	ms, err := publishAsync(eng, stream, d)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// TestPublishAsyncMatchesPublish runs the RSS workload through the WithAsync
// form from concurrent publishers, reading the serial document order off
// OnDocument; per-document match output — order included — must be
// byte-identical to a serial replay of the same order.
func TestPublishAsyncMatchesPublish(t *testing.T) {
	queries, stream := rssBatchFixture(300, 100)
	byID := map[int64]*Document{}
	for _, d := range stream {
		byID[int64(d.ID)] = d
	}
	var order []int64 // appended under the engine's lock
	eng := New(Options{OnDocument: func(dt DocTimings) { order = append(order, dt.DocID) }})
	for _, q := range queries {
		eng.MustSubscribe(q)
	}
	results := make([][]Match, len(stream))
	const publishers = 4
	var wg sync.WaitGroup
	for g := 0; g < publishers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(stream); i += publishers {
				ms, err := publishAsync(eng, "S", stream[i])
				if err != nil {
					t.Error(err)
					return
				}
				results[i] = ms
			}
		}(g)
	}
	wg.Wait()
	got := map[int64][]Match{}
	for i, d := range stream {
		got[int64(d.ID)] = results[i]
	}

	ref := New(Options{})
	for _, q := range queries {
		ref.MustSubscribe(q)
	}
	if len(order) != len(stream) {
		t.Fatalf("OnDocument saw %d documents, want %d", len(order), len(stream))
	}
	for i, id := range order {
		if g, w := fmt.Sprint(got[id]), fmt.Sprint(publishOne(ref, "S", byID[id])); g != w {
			t.Fatalf("serial position %d (doc %d):\nasync:  %s\nserial: %s", i, id, g, w)
		}
	}
}

// TestPublishAsyncSubscribeBarrier checks that a Subscribe (and an
// Unsubscribe) issued between WithAsync publishes lands exactly at its
// position in the document order: output equals an engine running the same
// publish/subscribe sequence through plain PublishDoc calls.
func TestPublishAsyncSubscribeBarrier(t *testing.T) {
	queries, stream := rssBatchFixture(200, 80)
	late := queries[len(queries)-1]
	standing := queries[:len(queries)-1]

	run := func(publish func(eng *Engine, d *Document) []Match) ([][]Match, QueryID) {
		eng := New(Options{})
		for _, q := range standing {
			eng.MustSubscribe(q)
		}
		var out [][]Match
		var lateID QueryID
		for i, d := range stream {
			if i == len(stream)/3 {
				lateID = eng.MustSubscribe(late)
			}
			if i == 2*len(stream)/3 {
				if err := eng.Unsubscribe(lateID); err != nil {
					t.Fatal(err)
				}
			}
			out = append(out, publish(eng, d))
		}
		return out, lateID
	}
	want, wantID := run(func(eng *Engine, d *Document) []Match { return publishOne(eng, "S", d) })
	got, gotID := run(func(eng *Engine, d *Document) []Match { return mustPublishAsync(t, eng, "S", d) })
	if gotID != wantID {
		t.Fatalf("late subscription id %d vs %d", gotID, wantID)
	}
	for i := range stream {
		if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
			t.Fatalf("doc %d diverges across mid-stream subscribe/unsubscribe:\nPublishDoc: %v\nWithAsync:  %v",
				i, want[i], got[i])
		}
	}
}

// TestPublishAsyncComposition checks that PUBLISH-clause cascades fire in
// the WithAsync form exactly as they do in a plain PublishDoc, and that
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
	ref := New(Options{EnableComposition: true})
	subscribe(ref)
	eng := New(Options{EnableComposition: true})
	subscribe(eng)
	cascaded := 0
	for i, d := range docs {
		want := publishOne(ref, "S", d)
		got := mustPublishAsync(t, eng, "S", d)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("doc %d:\nasync:  %v\nserial: %v", i, got, want)
		}
		for _, m := range got {
			if m.Publish == "" {
				cascaded++
			}
			if _, ok := eng.OutputXML(m); !ok {
				t.Fatalf("doc %d: OutputXML failed for async match %+v", i, m)
			}
		}
	}
	if cascaded == 0 {
		t.Fatal("no derived document matched downstream")
	}
}

// TestPublishAsyncSequentialProcessor checks the WithAsync form on the
// sequential baseline: same contract, same matches as a plain PublishDoc.
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
	if ms := mustPublishAsync(t, eng, "S", d1); len(ms) != 0 {
		t.Fatalf("first doc matched %d, want 0", len(ms))
	}
	if ms := mustPublishAsync(t, eng, "S", d2); len(ms) != 1 {
		t.Fatalf("second doc matched %d, want 1", len(ms))
	}
}

// TestPublishAsyncStress hammers one shared engine with concurrent plain
// and WithAsync publishes racing Subscribe/Unsubscribe, Ping and the read
// accessors. Run under -race (the CI race job does) this is the
// thread-safety proof of the registration lock: Stage 1 runs outside the
// engine's lock, beside registrations that must wait for it.
func TestPublishAsyncStress(t *testing.T) {
	eng := New(Options{})
	eng.MustSubscribe("S//a->x JOIN{x=y, 1000000} S//b->y")
	const goroutines = 8
	const iters = 30
	var matches atomic.Int64
	var wg sync.WaitGroup
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
				if g%2 == 1 {
					matches.Add(int64(len(publishOne(eng, "S", d))))
				} else {
					ms, err := publishAsync(eng, "S", d)
					if err != nil {
						t.Error(err)
						return
					}
					matches.Add(int64(len(ms)))
				}
				if i%10 == 7 {
					if err := eng.Ping(5 * time.Second); err != nil {
						t.Error(err)
						return
					}
				}
				_ = eng.NumQueries()
				_ = eng.Stats()
			}
		}(g)
	}
	wg.Wait()
	if matches.Load() == 0 {
		t.Error("no matches across concurrent publishes")
	}
}
