package mmqjp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/sym"
	"repro/internal/xmldoc"
)

// retainQueries and retainXML are a windowed stream in which every third
// document is a note no join reads: items join the item two before them
// under a time window of 10 and under ROWS 3, and notes only match a
// single-block query. testdata/snapshot-docs-twice.json is what the snapshot
// writer that still kept every document (under "docs", and the in-window ones
// again under "state.retained") wrote after the first 60 of these documents,
// published one by one with RetainDocuments.
var retainQueries = []string{
	"S//item->x[./a->v] FOLLOWED BY{v=w, 10} S//item->y[./b->w]",
	"S//item->x[./a->v] JOIN{v=w, ROWS 3} S//item->y[./b->w]",
	"S//note->n",
}

func retainXML(i int64) string {
	if i%3 == 0 {
		return fmt.Sprintf("<note>n%d</note>", i)
	}
	return fmt.Sprintf("<item><a>k%d</a><b>k%d</b></item>", i, i-2)
}

func retainEngine(t testing.TB) *Engine {
	e := New(Options{RetainDocuments: true})
	for _, q := range retainQueries {
		e.MustSubscribe(q)
	}
	return e
}

// checkRetained requires every document the engine keeps to be in the join
// state or on the list the next publish call drops.
func checkRetained(t *testing.T, e *Engine) {
	t.Helper()
	keep := map[xmldoc.DocID]bool{}
	for _, d := range e.proc.ExportState().Docs {
		keep[xmldoc.DocID(d.ID)] = true
	}
	for _, id := range e.departed {
		keep[id] = true
	}
	for id := range e.docs {
		if !keep[id] {
			t.Fatalf("document %d is retained, but it is neither in the join state nor departed", id)
		}
	}
}

// TestRetainedDocumentsBoundedByWindow streams 60 windows' worth of documents,
// one by one and in batches of seven, and requires the documents the engine
// keeps for OutputXML to follow the join state instead of the stream: after
// every publish call at most the state's documents before the call plus the
// call's own, and snapshots that stop growing once the window is full.
func TestRetainedDocumentsBoundedByWindow(t *testing.T) {
	const window = 10
	const ndocs = 60 * window
	for _, batch := range []int{1, 7} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			e := retainEngine(t)
			var sizes []int
			matches := 0
			for i := int64(1); i <= ndocs; {
				before := e.Stats().StateDocs
				var docs []*Document
				for ; len(docs) < batch && i <= ndocs; i++ {
					d, err := ParseDocument(retainXML(i), i, i)
					if err != nil {
						t.Fatal(err)
					}
					docs = append(docs, d)
				}
				for _, ms := range publishBatch(e, "S", docs) {
					matches += len(ms)
				}
				if n := len(e.docs); int64(n) > before+int64(len(docs)) {
					t.Fatalf("after document %d: %d documents retained, the state held %d before the call of %d",
						i-1, n, before, len(docs))
				}
				checkRetained(t, e)
				if (i-1)%(5*window) < int64(batch) {
					var buf bytes.Buffer
					if err := e.Snapshot(&buf); err != nil {
						t.Fatal(err)
					}
					sizes = append(sizes, buf.Len())
				}
			}
			if matches < ndocs/2 {
				t.Fatalf("%d matches over %d documents: the stream did not join", matches, ndocs)
			}
			// Every reading holds a full window, one to two windows' worth
			// of documents as collections come and go, whatever the stream
			// length: the second half of the stream reads no more than the
			// first.
			half := len(sizes) / 2
			if first, second := slices.Max(sizes[:half]), slices.Max(sizes[half:]); len(sizes) < 10 || second > first+first/4 {
				t.Fatalf("snapshot bytes every %d documents: %v, want a plateau", 5*window, sizes)
			}
		})
	}
}

// TestSingleBlockStreamRetainsNothing: under single-block subscriptions alone
// no document enters the join state, so no document outlives the publish
// call after its own.
func TestSingleBlockStreamRetainsNothing(t *testing.T) {
	e := New(Options{RetainDocuments: true})
	e.MustSubscribe("S//note->n")
	for i := int64(1); i <= 1000; i++ {
		ms, err := publishXML(e, "S", retainXML(3*i), i, i)
		if err != nil || len(ms) != 1 {
			t.Fatalf("document %d: %d matches, err %v", i, len(ms), err)
		}
		if _, ok := e.OutputXML(ms[0]); !ok {
			t.Fatalf("document %d: its own match does not render", i)
		}
		if n := len(e.docs); n > 1 {
			t.Fatalf("after document %d: %d documents retained", i, n)
		}
	}
	if st := e.Stats(); st.StateDocs != 0 || e.MaxDocID() != 1000 {
		t.Fatalf("%d documents in the join state, largest id %d; want 0 and 1000", st.StateDocs, e.MaxDocID())
	}
}

// TestOutputXMLAtRowsBoundary: under ROWS 1 the left document of a match
// leaves the join state in the very publish that emitted the match. The
// match must still render afterwards, and a PUBLISH query's cascade, which
// builds its derived document from both sides inside that publish, must
// still fire. The next publish call lets the document go.
func TestOutputXMLAtRowsBoundary(t *testing.T) {
	e := New(Options{EnableComposition: true})
	e.MustSubscribe("S//a->x[./k->v] FOLLOWED BY{v=w, ROWS 1} S//b->y[./k->w] PUBLISH D")
	down := e.MustSubscribe("D//result->r")
	if _, err := publishXML(e, "S", "<a><k>v</k></a>", 1, 1); err != nil {
		t.Fatal(err)
	}
	ms, err := publishXML(e, "S", "<b><k>v</k></b>", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 || ms[0].LeftDoc != 1 || ms[0].RightDoc != 2 || ms[1].Query != down {
		t.Fatalf("matches %+v, want the join and its cascaded match", ms)
	}
	for _, d := range e.proc.ExportState().Docs {
		if d.ID == 1 {
			t.Fatal("the left document is still in the join state: the test does not reach the boundary")
		}
	}
	out, ok := e.OutputXML(ms[0])
	if want := "<result><k>v</k><k>v</k></result>"; !ok || out != want {
		t.Fatalf("OutputXML = %q, %v; want %q", out, ok, want)
	}
	if _, err := publishXML(e, "S", "<c/>", 3, 3); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.OutputXML(ms[0]); ok {
		t.Fatal("the expired left document is still retained after the next publish call")
	}
}

// TestOpenEngineDocsTwiceSnapshot restores a snapshot in the format that kept
// every document ever published, and the in-window ones a second time inside
// the join state: it opens, keeps only the documents its join state lists,
// and from there publishes exactly what an engine that never stopped
// publishes, OutputXML included.
func TestOpenEngineDocsTwiceSnapshot(t *testing.T) {
	raw, err := os.ReadFile("testdata/snapshot-docs-twice.json")
	if err != nil {
		t.Fatal(err)
	}
	var old struct {
		Docs  []json.RawMessage `json:"docs"`
		State struct {
			Docs     []json.RawMessage `json:"docs"`
			Retained []json.RawMessage `json:"retained"`
		} `json:"state"`
	}
	if err := json.Unmarshal(raw, &old); err != nil {
		t.Fatal(err)
	}
	if len(old.Docs) != 60 || len(old.State.Retained) == 0 {
		t.Fatalf("fixture holds %d documents and %d retained ones: not the old format", len(old.Docs), len(old.State.Retained))
	}
	restored, err := OpenEngine(bytes.NewReader(raw), Options{RetainDocuments: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(restored.docs); n != len(old.State.Docs) {
		t.Fatalf("restored engine retains %d documents, its join state lists %d", n, len(old.State.Docs))
	}
	live := retainEngine(t)
	for i := int64(1); i <= 60; i++ {
		if _, err := publishXML(live, "S", retainXML(i), i, i); err != nil {
			t.Fatal(err)
		}
	}
	rendered := 0
	for i := int64(61); i <= 120; i++ {
		want, err := publishXML(live, "S", retainXML(i), i, i)
		if err != nil {
			t.Fatal(err)
		}
		got, err := publishXML(restored, "S", retainXML(i), i, i)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := renderEngineMatches(got), renderEngineMatches(want); g != w {
			t.Fatalf("document %d: restored engine diverges\nrestored:\n%slive:\n%s", i, g, w)
		}
		for k := range got {
			g, gok := restored.OutputXML(got[k])
			w, wok := live.OutputXML(want[k])
			if g != w || gok != wok || !gok {
				t.Fatalf("document %d match %d: OutputXML %q (%v), live %q (%v)", i, k, g, gok, w, wok)
			}
			rendered++
		}
	}
	if rendered == 0 {
		t.Fatal("no match after the restore: nothing was compared")
	}
}

// TestOpenEngineRetainsOnlyWhenAsked restores a retaining engine's snapshot,
// which carries the join state's documents. An engine opened without
// RetainDocuments keeps none of them, as one that never retained any: a match
// on a restored document does not render, and its own snapshots write no
// document. One opened with RetainDocuments keeps exactly the state's, and the
// match renders.
func TestOpenEngineRetainsOnlyWhenAsked(t *testing.T) {
	src := retainEngine(t)
	for i := int64(1); i <= 60; i++ {
		if _, err := publishXML(src, "S", retainXML(i), i, i); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := src.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	stateDocs := len(src.proc.ExportState().Docs)
	for _, retain := range []bool{false, true} {
		e, err := OpenEngine(bytes.NewReader(snap.Bytes()), Options{RetainDocuments: retain})
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if retain {
			want = stateDocs
		}
		if len(e.docs) != want || stateDocs == 0 {
			t.Fatalf("RetainDocuments=%v: the restored engine keeps %d documents, want %d (the state lists %d)", retain, len(e.docs), want, stateDocs)
		}
		ms, err := publishXML(e, "S", retainXML(61), 61, 61)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) == 0 {
			t.Fatal("test premise: document 61 joins a restored document")
		}
		if _, ok := e.OutputXML(ms[0]); ok != retain {
			t.Errorf("RetainDocuments=%v: OutputXML of a match on a restored document answers ok=%v", retain, ok)
		}
		var again bytes.Buffer
		if err := e.Snapshot(&again); err != nil {
			t.Fatal(err)
		}
		var written struct {
			Docs []json.RawMessage `json:"docs"`
		}
		if err := json.Unmarshal(again.Bytes(), &written); err != nil {
			t.Fatal(err)
		}
		if retain != (len(written.Docs) > 0) {
			t.Errorf("RetainDocuments=%v: the next snapshot writes %d documents", retain, len(written.Docs))
		}
	}
}

// FuzzOpenEngine feeds snapshot bytes to OpenEngine: every input must open or
// fail with an error, never panic, and an engine that opens must take a
// document and write a snapshot. Seeds: a snapshot in the current format, one
// in the format that kept documents twice, and one with query-id gaps.
// Inputs whose query ids run past 1<<16 are skipped: restoring them is
// correct and costs one tombstone per skipped id, which is memory, not a
// failure this target looks for.
func FuzzOpenEngine(f *testing.F) {
	cur := retainEngine(f)
	for i := int64(1); i <= 20; i++ {
		if _, err := publishXML(cur, "S", retainXML(i), i, i); err != nil {
			f.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := cur.Snapshot(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	old, err := os.ReadFile("testdata/snapshot-docs-twice.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(old)
	f.Add([]byte(plainSnapshot))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ids struct {
			Queries []struct {
				ID int64 `json:"id"`
			} `json:"queries"`
		}
		if json.Unmarshal(data, &ids) == nil {
			for _, q := range ids.Queries {
				if q.ID > 1<<16 {
					t.Skip("query id past 1<<16")
				}
			}
		}
		e, err := OpenEngine(bytes.NewReader(data), Options{RetainDocuments: true})
		if err != nil {
			return
		}
		if e == nil {
			t.Fatal("no engine and no error")
		}
		next := e.MaxDocID() + 1
		if _, err := publishXML(e, "S", retainXML(next), next, next); err != nil {
			t.Fatal(err)
		}
		if err := e.Snapshot(&strings.Builder{}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestJoinValuesBoundedByWindow publishes fifty windows' worth of documents
// through AppendPublishXML, each bringing join values no document had before
// (and rejoining its predecessor's), and requires what the process keeps to
// follow the window, not the stream: after the first window, the symbol
// table and the live heap stay within 10% of their reading there. Join values
// live in the join state's dictionary and retire with the last row that
// carries them; were they interned process-wide, both would grow with every
// document.
func TestJoinValuesBoundedByWindow(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes object sizes")
	}
	const window = 640 // documents, and time units: ts = document id
	const values = 4   // new join values per document
	e := New(Options{})
	e.MustSubscribe(fmt.Sprintf("S//item->x[./a->v] FOLLOWED BY{v=w, %d} S//item->y[./b->w]", window))
	xml := func(i int64) string {
		var b strings.Builder
		b.WriteString("<item>")
		for k := 0; k < values; k++ {
			fmt.Fprintf(&b, "<a>join-value-%d-%d</a><b>join-value-%d-%d</b>", i, k, i-1, k)
		}
		b.WriteString("</item>")
		return b.String()
	}
	liveHeap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	var dst Matches
	var symbols int
	var heap uint64
	matches := 0
	for i := int64(1); i <= 50*window; i++ {
		var err error
		dst.Reset()
		if dst, err = e.AppendPublishXML(dst, "S", []byte(xml(i)), i, i); err != nil {
			t.Fatal(err)
		}
		matches += dst.Len()
		if i%window != 0 {
			continue
		}
		n, h := sym.Count(), liveHeap()
		if i == window {
			symbols, heap = n, h
			continue
		}
		if 10*n > 11*symbols || 10*h > 11*heap {
			t.Fatalf("after %d documents (window %d): %d interned symbols and %d B live heap, %d and %d B after the first window",
				i, window, n, h, symbols, heap)
		}
	}
	if want := 50*window - 1; matches < want {
		t.Fatalf("%d matches, want at least %d: the stream did not join", matches, want)
	}
	if v := e.Stats().StateValues; v < window*values || v > 2*window*(values+1) {
		t.Fatalf("%d join values in the state, want about a window's %d", v, window*values)
	}
}
