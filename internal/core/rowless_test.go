package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/sequential"
	"repro/internal/xmldoc"
	"repro/internal/xscl"
)

// TestRowlessDocumentsStayOut streams documents under single-block
// subscriptions only: no document writes an Rdoc row, so none enters the join
// state — there is no window to collect it — and each is reported departed by
// the Consume that took it. The arrival index and the largest document id
// still count every one of them.
func TestRowlessDocumentsStayOut(t *testing.T) {
	p := NewProcessor(Config{})
	p.MustRegister(xscl.MustParse("S//a->x"))
	p.MustRegister(xscl.MustParse("S//b->y"))
	matches := 0
	for i := 1; i <= 1000; i++ {
		tag := []string{"a", "b", "c"}[i%3]
		matches += p.Consume(p.RunStage1("S", mkTagged(xmldoc.DocID(i), xmldoc.Timestamp(i), tag, "v"))).Len()
		if got, want := p.Departed(), []xmldoc.DocID{xmldoc.DocID(i)}; !slices.Equal(got, want) {
			t.Fatalf("document %d: departed %v, want %v", i, got, want)
		}
	}
	if matches != 667 {
		t.Fatalf("%d single-block matches, want 667", matches)
	}
	if st := p.Stats(); st.StateDocs != 0 || st.Documents != 1000 {
		t.Fatalf("%d documents consumed, %d in the join state; want 1000 and 0", st.Documents, st.StateDocs)
	}
	if p.state.nextSeq != 1000 || p.MaxDocID() != 1000 {
		t.Fatalf("arrival index %d, largest id %d; want 1000 and 1000", p.state.nextSeq, p.MaxDocID())
	}
}

// TestRowlessDocumentsKeepRowsWindows interleaves documents that carry no
// value any join reads (most of the stream) with joining ones under ROWS,
// time and JOIN windows: the row-less documents stay out of the join state
// but still count as positions, so every document's matches equal the
// sequential baseline's, which keeps every document.
func TestRowlessDocumentsKeepRowsWindows(t *testing.T) {
	queries := []*xscl.Query{
		xscl.MustParse("S//item->r[./a->x] FOLLOWED BY{x=y, ROWS 4} S//item->r2[./b->y]"),
		xscl.MustParse("S//item->r[./b->x] JOIN{x=y, ROWS 2} S//item->r2[./a->y]"),
		xscl.MustParse("S//item->r[./a->x] FOLLOWED BY{x=y, 6} S//item->r2[./a->y]"),
		xscl.MustParse("S//item->r[./c->x]"),
	}
	p := NewProcessor(Config{})
	sp := sequential.NewProcessor()
	for _, q := range queries {
		p.MustRegister(q)
		sp.MustRegister(q)
	}
	rng := rand.New(rand.NewSource(7))
	rowless, matched := 0, 0
	for i := 1; i <= 400; i++ {
		b := xmldoc.NewBuilder(xmldoc.DocID(i), xmldoc.Timestamp(i/2), "item")
		switch rng.Intn(4) {
		case 0:
			b.Element(0, "a", fmt.Sprintf("v%d", rng.Intn(3)))
		case 1:
			b.Element(0, "b", fmt.Sprintf("v%d", rng.Intn(3)))
		default:
			b.Element(0, "c", "w")
			rowless++
		}
		d := b.Build()
		got := matchSet(p.Process("S", d))
		want := seqMatchSet(sp.Process("S", d))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("doc %d: divergence\ncore: %v\nseq:  %v", i, keys(got), keys(want))
		}
		matched += len(got)
	}
	if rowless < 150 || matched == 0 {
		t.Fatalf("%d row-less documents, %d matches: the stream does not exercise the rule", rowless, matched)
	}
	if n := p.State().NumDocs(); n > 100 {
		t.Errorf("state holds %d documents", n)
	}
}
