package mmqjp

import (
	"errors"
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
