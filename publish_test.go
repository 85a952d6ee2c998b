package mmqjp

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// TestPublishDocForms checks that every input form of PublishDoc — a leading
// parsed document, WithDocs, WithXML, mixed — publishes the same documents
// in the same order, producing match output identical to one PublishDoc per
// parsed document.
func TestPublishDocForms(t *testing.T) {
	docs := []struct {
		xml    string
		id, ts int64
	}{
		{paperD1, 1, 100},
		{paperD2, 2, 200},
		{paperD1, 3, 300},
		{paperD2, 4, 400},
	}
	parse := func(i int) *Document {
		d, err := ParseDocument(docs[i].xml, docs[i].id, docs[i].ts)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	xmlDocs := make([]PublishOption, len(docs))
	for i, d := range docs {
		xmlDocs[i] = WithXML(d.xml, d.id, d.ts)
	}

	ref := New(Options{})
	ref.MustSubscribe(paperQ1)
	var want string
	for i := range docs {
		want += renderEngineMatches(publishOne(ref, "S", parse(i)))
	}

	for name, publish := range map[string]func(e *Engine) (PublishResult, error){
		"leading+withdocs": func(e *Engine) (PublishResult, error) {
			return e.PublishDoc("S", parse(0), WithDocs(parse(1), parse(2), parse(3)))
		},
		"xml": func(e *Engine) (PublishResult, error) {
			return e.PublishDoc("S", nil, xmlDocs...)
		},
		"mixed": func(e *Engine) (PublishResult, error) {
			return e.PublishDoc("S", parse(0),
				WithXML(docs[1].xml, docs[1].id, docs[1].ts),
				WithDocs(parse(2)),
				WithXML(docs[3].xml, docs[3].id, docs[3].ts))
		},
	} {
		eng := New(Options{})
		eng.MustSubscribe(paperQ1)
		res, err := publish(eng)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Batches) != len(docs) {
			t.Fatalf("%s: %d batches, want %d", name, len(res.Batches), len(docs))
		}
		var got string
		for _, b := range res.Batches {
			got += renderEngineMatches(b)
		}
		if got != want {
			t.Errorf("%s diverges from per-document PublishDoc:\ngot:\n%swant:\n%s", name, got, want)
		}
		if flat := res.Matches(); len(flat) != countMatches(res.Batches) {
			t.Errorf("%s: Matches() flattened %d, want %d", name, len(flat), countMatches(res.Batches))
		}
	}
}

func countMatches(batches [][]Match) int {
	n := 0
	for _, b := range batches {
		n += len(b)
	}
	return n
}

// TestPublishDocAsync checks the WithAsync form: a single document returns
// Done, already resolved when PublishDoc returns, and a multi-document async
// call is rejected with ErrAsyncBatch before anything is published.
func TestPublishDocAsync(t *testing.T) {
	eng := New(Options{})
	eng.MustSubscribe(paperQ1)

	if _, err := eng.PublishDoc("S", nil,
		WithXML(paperD1, 1, 100), WithXML(paperD2, 2, 200), WithAsync()); !errors.Is(err, ErrAsyncBatch) {
		t.Fatalf("async batch error = %v, want ErrAsyncBatch", err)
	}
	if got := eng.Stats().Documents; got != 0 {
		t.Fatalf("rejected async batch published %d documents", got)
	}

	res1, err := eng.PublishDoc("S", nil, WithXML(paperD1, 1, 100), WithAsync())
	if err != nil {
		t.Fatal(err)
	}
	if res1.Done == nil || res1.Batches != nil {
		t.Fatalf("async result = %+v, want Done only", res1)
	}
	if len(res1.Done) != 1 {
		t.Fatal("Done is not resolved when PublishDoc returns")
	}
	res2, err := eng.PublishDoc("S", nil, WithXML(paperD2, 2, 200), WithAsync())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res1.Matches()); got != 0 {
		t.Errorf("first document matches = %d, want 0", got)
	}
	if got := len(res2.Matches()); got != 1 {
		t.Errorf("second document matches = %d, want 1", got)
	}
}

// TestPublishDocParseError pins the shared error contract of the two
// publish methods: any document failing to parse fails the whole call
// with a *DocumentError naming the document, and nothing is published.
func TestPublishDocParseError(t *testing.T) {
	eng := New(Options{})
	eng.MustSubscribe(paperQ1)

	_, err := eng.PublishDoc("S", nil,
		WithXML(paperD1, 1, 100),
		WithXML("<unclosed>", 2, 200),
		WithXML(paperD2, 3, 300))
	var de *DocumentError
	if !errors.As(err, &de) {
		t.Fatalf("parse failure error = %v (%T), want *DocumentError", err, err)
	}
	if de.Index != 1 || de.DocID != 2 {
		t.Errorf("DocumentError = index %d id %d, want index 1 id 2", de.Index, de.DocID)
	}
	if de.Unwrap() == nil {
		t.Error("DocumentError does not unwrap to its cause")
	}
	if got := eng.Stats().Documents; got != 0 {
		t.Errorf("failed call published %d documents, want 0", got)
	}

	// AppendPublishXML shares the contract, and so does a batch whose
	// failing document follows a parsed one.
	if _, err := publishXML(eng, "S", "<unclosed>", 4, 400); !errors.As(err, &de) {
		t.Errorf("AppendPublishXML error = %v (%T), want *DocumentError", err, err)
	} else if de.Index != 0 || de.DocID != 4 {
		t.Errorf("AppendPublishXML DocumentError = index %d id %d, want index 0 id 4", de.Index, de.DocID)
	}
	d5, err := ParseDocument(paperD1, 5, 500)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.PublishDoc("S", d5, WithXML("<unclosed>", 6, 600)); !errors.As(err, &de) {
		t.Errorf("mixed batch error = %v (%T), want *DocumentError", err, err)
	} else if de.Index != 1 || de.DocID != 6 {
		t.Errorf("mixed batch DocumentError = index %d id %d, want index 1 id 6", de.Index, de.DocID)
	}
	if got := eng.Stats().Documents; got != 0 {
		t.Errorf("failed calls published %d documents, want 0", got)
	}
}

// TestResultWalkTiedClasses drives the result walk where a query lies in two
// window classes: a JOIN of an element with itself matches each earlier
// document in both orientations, so its normal and swapped classes hold the
// same query ids and a document's result has several frames in each. Two
// more JOINs share those classes, a FOLLOWED BY of the same shape has a
// class of its own in the same vector group, and so has a JOIN with a
// narrower window; the ids interleave. Every document's matches from
// AppendPublishXML must equal the sequential baseline's, and its Frames and
// Entries a replay of the document through the processor's Slice: one frame
// per source (core.Matches.Sources), and entry i match i of Slice. (Two
// classes of one frame write equal frames, so an entry is held to the frame
// it names by content.)
func TestResultWalkTiedClasses(t *testing.T) {
	const join = "S//a->p[./x->x1][./y->y1] JOIN{x1=x2, %d} S//a->q[./x->x2][./y->y2]"
	const followed = "S//a->p[./x->x1][./y->y1] FOLLOWED BY{x1=x2, 100} S//a->q[./x->x2][./y->y2]"
	subs := []string{
		fmt.Sprintf(join, 100), followed, fmt.Sprintf(join, 100), fmt.Sprintf(join, 30),
		followed, fmt.Sprintf(join, 100),
	}
	eng, seq, rep := New(Options{}), New(Options{Processor: ProcessorSequential}), New(Options{})
	for _, s := range subs {
		for _, e := range []*Engine{eng, seq, rep} {
			e.MustSubscribe(s)
		}
	}
	var res Matches
	bothWays := 0
	for i := int64(1); i <= 8; i++ {
		xml := fmt.Sprintf("<a><x>v%d</x><y>%d</y></a>", i%2, i)
		parse := func() *Document {
			d, err := ParseDocument(xml, i, 10*i)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		res.Reset()
		var err error
		if res, err = eng.AppendPublishXML(res, "S", []byte(xml), i, 10*i); err != nil {
			t.Fatal(err)
		}
		got := eng.appendMatchesLocked(&res)
		want, err := seq.PublishDoc("S", parse())
		if err != nil {
			t.Fatal(err)
		}
		if g, w := renderEngineMatches(got), renderEngineMatches(want.Matches()); g != w {
			t.Fatalf("document %d: matches differ from the sequential baseline\ngot:\n%swant:\n%s", i, g, w)
		}
		seen := map[[3]int64]bool{}
		for _, m := range got {
			if seen[[3]int64{int64(m.Query), m.RightDoc, m.LeftDoc}] {
				bothWays++
			}
			seen[[3]int64{int64(m.Query), m.LeftDoc, m.RightDoc}] = true
		}

		ms := rep.proc.Consume(rep.proc.RunStage1("S", parse()))
		var frames []Frame
		for src := range ms.Sources() {
			m := ms.Frame(src)
			frames = append(frames, Frame{
				LeftDoc: int64(m.LeftDoc), RightDoc: int64(m.RightDoc),
				LeftTS: int64(m.LeftTS), RightTS: int64(m.RightTS),
			})
		}
		if !slices.Equal(res.Frames, frames) {
			t.Fatalf("document %d: frames %v, replay through Slice %v", i, res.Frames, frames)
		}
		replay := ms.Slice()
		if len(replay) != res.Len() {
			t.Fatalf("document %d: %d entries, replay through Slice %d matches", i, res.Len(), len(replay))
		}
		for k, m := range replay {
			w := Match{
				Query:   QueryID(m.Query),
				LeftDoc: int64(m.LeftDoc), RightDoc: int64(m.RightDoc),
				LeftTS: int64(m.LeftTS), RightTS: int64(m.RightTS),
				leftRoot: m.LeftRoot, rightRoot: m.RightRoot,
			}
			if g := res.Match(k); g != w {
				t.Fatalf("document %d entry %d: %v, replay through Slice %v", i, k, g, w)
			}
		}
	}
	// Both orientations of one query and one earlier document, in one
	// document's result: the query lies in two classes.
	if bothWays < 10 {
		t.Fatalf("%d matches in both orientations: the documents do not tie two classes", bothWays)
	}
}
