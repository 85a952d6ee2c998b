package mmqjp

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/workload"
	"repro/internal/xmldoc"
)

// TestEnginePublishAllocCeiling bounds what a publish allocates at the facade,
// where a document's result is written out: 10 000 windowed feed subscriptions
// (the benchmark's rss_window shape, ≈ 170 matches per document), the window
// full and collections running. The "owned result" case is one PublishDoc per
// parsed document: the result is materialised once, as the public matches — 64
// bytes each — so the bytes ceiling sits below what a second, intermediate
// copy of the result (88 bytes per match more, as the facade made before it
// read the processor's ordered view) would cost. The "caller's buffer" case is
// what the server does, AppendPublishXML into one compact buffer: parsing
// included, it must stay below what the compact result itself (24 bytes per
// match) would add, so the result cannot come back as an allocation there.
// The "figure 16" case is the output-heavy
// shape, the caller's buffer again: the same subscriptions with unbounded
// windows, measured over 3 000 documents after 3 000, where a document
// completes a few frames that stand for hundreds of matches each; what
// Stage 2 writes per frame, not per match, is all the result may cost there.
// The "deep feed" case is deep_filter's shape through AppendPublishXML: 1 100
// subscriptions (path filters and near-unique joins) over 265-node feed
// documents, where the document is parsed into pooled storage, so its bytes
// ceiling lies below one document's node table: what remains is the join
// state's copies of the values new to its window.
// Counts and bytes are the same on every machine; a ceiling is at most 1.25
// times what the test logs.
func TestEnginePublishAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not fixed under the race detector")
	}
	const subs = 10000
	var figure16, deep []string
	for _, q := range workload.DefaultRSS().Queries(rand.New(rand.NewSource(1)), subs) {
		figure16 = append(figure16, q.Source)
	}
	for _, q := range workload.DefaultDeepFeed().Queries(rand.New(rand.NewSource(1)), 1100) {
		deep = append(deep, q.Source)
	}
	for _, tc := range []struct {
		name string
		srcs []string
		gen  interface {
			Stream(*rand.Rand, int) []*Document
		}
		items                      int // documents in the warm-up and in the measured pass
		appendXML                  bool
		allocCeiling, bytesCeiling float64
		belowNodeTable             bool // the bytes ceiling lies below the largest document's node table
	}{
		{"owned result", windowedRSSSources(1, subs), workload.DefaultRSS(), 600, false, 17, 15500, false},
		{"caller's buffer", windowedRSSSources(1, subs), workload.DefaultRSS(), 600, true, 6, 140, false},
		{"figure 16", figure16, workload.DefaultRSS(), 3000, true, 17, 6000, false},
		{"deep feed", deep, workload.DefaultDeepFeed(), 600, true, 50, 1320, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			items := tc.items
			n := float64(items)
			stream := tc.gen.Stream(rand.New(rand.NewSource(8)), 2*items)
			eng := New(Options{})
			subscribeAll(t, eng, tc.srcs)
			var texts [][]byte
			nodes := 0
			if tc.appendXML {
				for _, d := range stream {
					texts = append(texts, []byte(d.XMLText()))
					nodes = max(nodes, d.Len())
				}
			}
			matches := 0
			var buf Matches
			pass := func(from, to int) {
				for i := from; i < to; i++ {
					if tc.appendXML {
						var err error
						buf.Reset()
						if buf, err = eng.AppendPublishXML(buf, "S", texts[i], int64(stream[i].ID), int64(stream[i].Timestamp)); err != nil {
							t.Fatal(err)
						}
						matches += buf.Len()
						continue
					}
					res, err := eng.PublishDoc("S", stream[i])
					if err != nil {
						t.Fatal(err)
					}
					matches += len(res.Batches[0])
				}
			}
			pass(0, items)
			matches = 0
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			pass(items, 2*items)
			runtime.ReadMemStats(&after)
			allocs := float64(after.Mallocs-before.Mallocs) / n
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
			perDoc := float64(matches) / n
			t.Logf("%.1f allocations, %.0f bytes per document (%.1f matches)", allocs, bytes, perDoc)
			if allocs > tc.allocCeiling {
				t.Errorf("%.1f allocations per document, want <= %.0f", allocs, tc.allocCeiling)
			}
			if bytes > tc.bytesCeiling {
				t.Errorf("%.0f bytes allocated per document, want <= %.0f", bytes, tc.bytesCeiling)
			}
			// What one more copy of the result would cost: the intermediate
			// ordered slice for the owned result, the result itself for the
			// caller's buffer.
			copyBytes := 88 * perDoc
			if tc.appendXML {
				copyBytes = float64(unsafe.Sizeof(MatchEntry{})) * perDoc
			}
			if tc.bytesCeiling > bytes+copyBytes {
				t.Errorf("the ceiling leaves room for another copy of the result (%.0f bytes per document)", copyBytes)
			}
			if table := float64(nodes) * float64(unsafe.Sizeof(xmldoc.Node{})); tc.belowNodeTable && tc.bytesCeiling >= table {
				t.Errorf("the ceiling leaves room for a node table of the largest document (%.0f bytes)", table)
			}
		})
	}
}

// TestSubscribeAllocCeiling bounds what one Subscribe allocates, parse
// included, on an engine configured like mmqjp-server: 2 000 windowed feed
// subscriptions (the rss_window shape, five templates) and 2 000 paper-scale
// subscriptions (58 templates, most reduced graphs not seen before). A query
// of a known template costs its parse, its records and one RT row: each block
// is normalized once without building a pattern when an equal one is
// registered, and the join graph, its minor and the memo key are built in
// reused storage. The readings are 30.0 allocations / 1 839 bytes (rss) and
// 52.8 / 3 192 (paper scale); deriving everything afresh per query, as
// registration did before, took 253.5 / 9 311 and 379.4 / 11 923. Counts and
// bytes are the same on every machine; a ceiling is at most 1.25 times what
// the test logs.
func TestSubscribeAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not fixed under the race detector")
	}
	const n = 2000
	var paper []string
	for _, q := range workload.DefaultPaperScale().Queries(rand.New(rand.NewSource(3)), n) {
		paper = append(paper, q.Source)
	}
	for _, tc := range []struct {
		name                       string
		srcs                       []string
		allocCeiling, bytesCeiling float64
	}{
		{"rss", windowedRSSSources(1, n), 37, 2230},
		{"paper scale", paper, 66, 3980},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := New(Options{})
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			subscribeAll(t, eng, tc.srcs)
			elapsed := time.Since(start)
			runtime.ReadMemStats(&after)
			allocs := float64(after.Mallocs-before.Mallocs) / n
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
			t.Logf("%.1f allocations, %.0f bytes, %.1f µs per Subscribe (%d templates)",
				allocs, bytes, float64(elapsed.Microseconds())/n, eng.NumTemplates())
			if allocs > tc.allocCeiling {
				t.Errorf("%.1f allocations per Subscribe, want <= %.0f", allocs, tc.allocCeiling)
			}
			if bytes > tc.bytesCeiling {
				t.Errorf("%.0f bytes allocated per Subscribe, want <= %.0f", bytes, tc.bytesCeiling)
			}
		})
	}
}

// TestAppendPublishXMLEqualsPublishXML holds the caller's-buffer publish to
// the owned one: two engines with the same subscriptions — a cascading chain,
// a self-feeding loop cut at the depth limit, windowed feed queries — take
// the same documents, one through PublishDoc with WithXML, the other through
// AppendPublishXML into one compact buffer behind a sentinel match, written
// out as PublishDoc does. They run without composition, and with it under
// every processor kind. Every document's matches must be equal, the
// sentinel must stay, and a document that does not parse must leave the
// buffer as it came and report the same DocumentError.
func TestAppendPublishXMLEqualsPublishXML(t *testing.T) {
	srcs := append([]string{
		"S//alert->a[./host->h][./sev->s] FOLLOWED BY{h=h2 AND s=s2, 100} S//confirm->c[./host->h2][./sev->s2] PUBLISH incidents",
		"incidents//alert->a[./host->h] JOIN{h=h2, 1000} P//page->p[./host->h2]",
		"loop//x->a PUBLISH loop",
		"S//alert->a[./sev->s]",
	}, windowedRSSSources(3, 400)...)
	type doc struct {
		stream, xml string
	}
	docs := []doc{
		{"P", "<page><host>web1</host></page>"},
		{"S", "<alert><host>web1</host><sev>hi</sev></alert>"},
		{"S", "<confirm><host>web1</host><sev>hi</sev></confirm>"},
		{"loop", "<r><x>v</x></r>"},
		{"S", "<unclosed>"},
		{"S", "<nothing/>"},
		{"S", "<alert><host>web2</host><sev>lo</sev><sev>hi</sev></alert>"},
	}
	for _, d := range workload.DefaultRSS().Stream(rand.New(rand.NewSource(5)), 300) {
		docs = append(docs, doc{"S", d.XMLText()})
	}
	optss := []Options{{}}
	for _, kind := range allKinds() {
		optss = append(optss, Options{Processor: kind, EnableComposition: true})
	}
	for _, opts := range optss {
		owned, appended := New(opts), New(opts)
		subscribeAll(t, owned, srcs)
		subscribeAll(t, appended, srcs)
		var buf Matches
		sentinel := Match{Query: -1, LeftDoc: -2, RightDoc: -3}
		buf.Append(sentinel)
		total := 0
		for i, d := range docs {
			res, wantErr := owned.PublishDoc(d.stream, nil, WithXML(d.xml, int64(i+1), int64(10*i)))
			want := res.Matches()
			var err error
			buf.Frames, buf.Entries = buf.Frames[:1], buf.Entries[:1]
			buf, err = appended.AppendPublishXML(buf, d.stream, []byte(d.xml), int64(i+1), int64(10*i))
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("%+v document %d: error %v, want %v", opts, i, err, wantErr)
			}
			if buf.Match(0) != sentinel {
				t.Fatalf("%+v document %d: the buffer's own match was overwritten: %+v", opts, i, buf.Match(0))
			}
			got := appended.appendMatchesLocked(&Matches{Frames: buf.Frames, Entries: buf.Entries[1:]})
			if len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v document %d: appended %d matches %+v, want %d %+v", opts, i, len(got), got, len(want), want)
			}
			total += len(want)
		}
		composing := opts.EnableComposition
		if total < 100 || composing && owned.DroppedCascades() == 0 || owned.DroppedCascades() != appended.DroppedCascades() {
			t.Errorf("%+v: %d matches, %d and %d dropped cascades: the stream exercises too little", opts,
				total, owned.DroppedCascades(), appended.DroppedCascades())
		}
	}
}

// publishXML publishes one raw XML document through AppendPublishXML and
// returns its matches as PublishDoc would.
func publishXML(e *Engine, stream, xmlText string, docID, timestamp int64) ([]Match, error) {
	ms, err := e.AppendPublishXML(Matches{}, stream, []byte(xmlText), docID, timestamp)
	return e.appendMatchesLocked(&ms), err
}

// appendMatchesLocked writes ms out as public matches, PUBLISH streams
// included, as PublishDoc does.
func (e *Engine) appendMatchesLocked(ms *Matches) []Match {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.appendMatches(nil, ms)
}
