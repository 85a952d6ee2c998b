package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sequential"
	"repro/internal/xmldoc"
	"repro/internal/xscl"
)

func mkTagged(id xmldoc.DocID, ts xmldoc.Timestamp, tag, val string) *xmldoc.Document {
	b := xmldoc.NewBuilder(id, ts, tag)
	b.SetText(0, val)
	return b.Build()
}

func TestCountWindowSemantics(t *testing.T) {
	// ROWS 2: the right event must arrive within 2 stream positions of
	// the left event, regardless of timestamps.
	p := NewProcessor(Config{})
	p.MustRegister(xscl.MustParse("S//a->x FOLLOWED BY{x=y, ROWS 2} S//b->y"))

	// a, then two unrelated events, then b: 3 positions apart -> no. The
	// unrelated events write no Rdoc row, so they never enter the state,
	// but they still count as positions.
	p.Process("S", mkTagged(1, 10, "a", "v"))
	p.Process("S", mkTagged(2, 20, "z", "q"))
	p.Process("S", mkTagged(3, 30, "z", "q"))
	if ms := p.Process("S", mkTagged(4, 40, "b", "v")); len(ms) != 0 {
		t.Error("3 positions apart fired")
	}
	// a then immediately b: 1 position apart -> yes, even though the
	// timestamp gap is enormous.
	p.Process("S", mkTagged(5, 50, "a", "v"))
	if ms := p.Process("S", mkTagged(6, 99999, "b", "v")); len(ms) != 1 {
		t.Errorf("adjacent events did not fire: %d matches", len(ms))
	}
}

func TestCountWindowGC(t *testing.T) {
	p := NewProcessor(Config{})
	p.MustRegister(xscl.MustParse("S//a->x FOLLOWED BY{x=y, ROWS 5} S//b->y"))
	for i := 0; i < 200; i++ {
		// Identical timestamps: only the tuple window can expire state.
		p.Process("S", mkTagged(xmldoc.DocID(i+1), 7, "a", "v"))
	}
	if n := p.State().NumDocs(); n > 80 {
		t.Errorf("state holds %d docs; count-window GC ineffective", n)
	}
	// The most recent a's are still in the window.
	if ms := p.Process("S", mkTagged(999, 7, "b", "v")); len(ms) != 5 {
		t.Errorf("matches = %d, want 5 (ROWS 5)", len(ms))
	}
}

func TestCountWindowSequentialAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	queries := []*xscl.Query{
		xscl.MustParse("S//item->r[./a->x] FOLLOWED BY{x=y, ROWS 3} S//item->r2[./a->y]"),
		xscl.MustParse("S//item->r[./b->x] JOIN{x=y, ROWS 2} S//item->r2[./a->y]"),
		xscl.MustParse("S//item->r[./a->x] FOLLOWED BY{x=y, 15} S//item->r2[./b->y]"),
	}
	p := NewProcessor(Config{})
	sp := sequential.NewProcessor()
	for _, q := range queries {
		p.MustRegister(q)
		sp.MustRegister(q)
	}
	ts := xmldoc.Timestamp(0)
	for i := 0; i < 150; i++ {
		ts += xmldoc.Timestamp(rng.Intn(5))
		b := xmldoc.NewBuilder(xmldoc.DocID(i+1), ts, "item")
		if rng.Intn(2) == 0 {
			b.Element(0, "a", fmt.Sprintf("v%d", rng.Intn(3)))
		}
		if rng.Intn(2) == 0 {
			b.Element(0, "b", fmt.Sprintf("v%d", rng.Intn(3)))
		}
		d := b.Build()
		a := matchSet(p.Process("S", d))
		c := seqMatchSet(sp.Process("S", d))
		if !reflect.DeepEqual(a, c) {
			t.Fatalf("doc %d: divergence\ncore: %v\nseq:  %v", i+1, keys(a), keys(c))
		}
	}
}

func TestMixedWindowKindsShareTemplate(t *testing.T) {
	// A time-window and a count-window query with identical structure
	// share a template; the window check is per instance.
	p := NewProcessor(Config{})
	qTime := p.MustRegister(xscl.MustParse("S//a->x FOLLOWED BY{x=y, 5} S//b->y"))
	qRows := p.MustRegister(xscl.MustParse("S//a->x FOLLOWED BY{x=y, ROWS 1} S//b->y"))
	if p.NumTemplates() != 1 {
		t.Fatalf("templates = %d", p.NumTemplates())
	}
	p.Process("S", mkTagged(1, 10, "a", "v"))
	p.Process("S", mkTagged(2, 11, "z", "q")) // pushes the a out of ROWS 1
	ms := p.Process("S", mkTagged(3, 12, "b", "v"))
	fired := map[QueryID]bool{}
	for _, m := range ms {
		fired[m.Query] = true
	}
	if !fired[qTime] {
		t.Errorf("time-window query should fire (delta 2 <= 5)")
	}
	if fired[qRows] {
		t.Errorf("ROWS 1 query fired at distance 2")
	}
}
