package mmqjp

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

// FuzzDifferential decodes its input as a small grammar of feed subscriptions
// and documents (diffCase), publishes the stream to an MMQJP engine and to a
// ProcessorSequential one, and holds them to the same matches, document by
// document, compared as (query, left and right document, timestamps) sets:
// MMQJP emits one match per template row, the baseline one per witness pair.
//
// The grammar covers what lets blocks of one path disagree about rows: value
// joins on an entry's id, ref and author name, non-join predicates at the
// block root and below it (a topic, a ref or an author on the entry, an
// <en/> under the id, and an //entry under a //feed root), on either side,
// from a small pool of blocks that several queries share while joining on
// different variables; single-block queries; FOLLOWED BY and JOIN; time,
// ROWS and unbounded windows; repeated document ids; subscription churn; and,
// in late mode, out-of-order timestamps.
//
// Every case runs twice: with one publisher, and with three publishing each
// run of documents between two churn steps concurrently. Documents with one
// id go to one publisher, so the k-th time Options.OnDocument reports an id
// is the k-th document with it, and the baseline replays the documents in
// that order. As in the core harness, only pairs whose documents were first
// published once the query was live are compared: state shared with queries
// that came earlier is the processors' own business.
//
// Both processors drop, after every document, whatever that document's
// cutoffs put out of every window, so they hold the same documents whatever
// the order timestamps arrive in: a late document — in late mode, or behind
// another publisher's — finds the same partners in both, and every case runs
// with expiry on.
func FuzzDifferential(f *testing.F) {
	// The filter at the block root: blocks 0 and 1 differ only in the
	// topic their entry must have; the entry has t1, so only query 0
	// joins the later reference.
	f.Add([]byte{
		0, 2, // in order; three blocks
		0, 1, 0, 0, 2, // S//entry->x0[./id->x1][./topics/t1]
		0, 1, 0, 0, 3, // S//entry->x0[./id->x1][./topics/t2]
		0, 0, 1, 0, 0, // S//entry->x0[./ref->x2]
		1,                   // two queries
		1, 0, 2, 0, 0, 0, 6, // block 0 FOLLOWED BY{x1=y2, 10} block 2
		1, 1, 2, 0, 0, 0, 6, // block 1 FOLLOWED BY{x1=y2, 10} block 2
		2, 1, 1, 0, 1, 0, 0, 0, 2, // <entry><id>a</id><topics><t1/></topics></entry>
		2, 1, 1, 0, 0, 1, 0, 0, 0, // <entry><ref>a</ref></entry>
	})
	// The filter below the root: block 0 wants an <en/> under its id,
	// block 1 any id; only the id without one is cited.
	f.Add([]byte{
		0, 2,
		0, 2, 0, 0, 0, // S//entry->x0[./id->x1[./en]]
		0, 1, 0, 0, 0, // S//entry->x0[./id->x1]
		0, 0, 1, 0, 0, // S//entry->x0[./ref->x2]
		1,
		1, 0, 2, 0, 0, 0, 6,
		1, 1, 2, 0, 0, 0, 6,
		2, 1, 1, 1, 2, 0, 0, 0, 0, 1, 1, 0, 0, 0, // <entry><id>a<en/></id></entry><entry><id>b</id></entry>
		2, 1, 1, 0, 0, 1, 1, 0, 0, // <entry><ref>b</ref></entry>
	})
	// One block shared by two queries that join on different variables,
	// and a third query on the same block without its topic filter. Only
	// the entry with t1 (id c, ref c) serves queries 0 and 1, so the
	// references to a and b match query 2 alone.
	f.Add([]byte{
		0, 2,
		0, 1, 1, 0, 2, // S//entry->x0[./id->x1][./ref->x2][./topics/t1]
		0, 1, 1, 0, 0, // S//entry->x0[./id->x1][./ref->x2]
		0, 0, 1, 0, 0, // S//entry->x0[./ref->x2]
		2,
		1, 0, 2, 0, 0, 0, 6, // block 0 FOLLOWED BY{x1=y2, 10} block 2
		1, 0, 2, 0, 1, 0, 6, // block 0 FOLLOWED BY{x2=y2, 10} block 2
		1, 1, 2, 0, 0, 0, 6, // block 1 FOLLOWED BY{x1=y2, 10} block 2
		// <entry><id>a</id><ref>b</ref></entry><entry><id>c</id><ref>c</ref><topics><t1/></topics></entry>
		2, 1, 1, 1, 1, 0, 1, 1, 0, 0, 1, 2, 1, 2, 0, 2,
		2, 1, 1, 1, 0, 1, 0, 0, 0, 0, 1, 1, 0, 0, // <entry><ref>a</ref></entry><entry><ref>b</ref></entry>
		2, 1, 1, 0, 0, 1, 2, 0, 0, // <entry><ref>c</ref></entry>
	})
	// Three publishers overtake each other's timestamps under a time
	// window: while expiry ran on its own schedule in each processor, MMQJP
	// still held a document the baseline had dropped, and matched it.
	f.Add([]byte("0A0809081201000000120000%2012000000001010002011101000110002100020100021010101010022010100"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeDiffCase(data)
		for _, publishers := range []int{1, 3} {
			if msg := c.run(publishers); msg != "" {
				t.Fatalf("%d publishers: %s\n%s", publishers, msg, c)
			}
		}
	})
}

// diffReader hands out the input a byte at a time, each reduced modulo the
// number of choices; an exhausted input reads as zeros.
type diffReader struct {
	b []byte
	i int
}

func (r *diffReader) next(n int) int {
	if r.i >= len(r.b) {
		return 0
	}
	r.i++
	return int(r.b[r.i-1]) % n
}

func (r *diffReader) more() bool { return r.i < len(r.b) }

// diffBlock is a block of the grammar, its variables named by the side's
// prefix (fmt's %[1]s), and the suffixes of the variables a join can use.
type diffBlock struct {
	text string
	vars []string
}

func (b diffBlock) bind(prefix string) string { return fmt.Sprintf(b.text, prefix) }

// diffStep is one step of a case: a document, a subscription, or the removal
// of the unsub-th live query.
type diffStep struct {
	doc   *Document
	xml   string
	sub   string
	unsub int
}

// diffCase is a decoded input: the initial subscriptions and the steps.
type diffCase struct {
	initial []string
	steps   []diffStep
	late    bool
}

const (
	diffMaxDocs    = 24
	diffMaxQueries = 12
)

func decodeDiffCase(data []byte) *diffCase {
	r := &diffReader{b: data}
	c := &diffCase{late: r.next(2) == 1}
	blocks := make([]diffBlock, 1+r.next(3))
	for i := range blocks {
		blocks[i] = decodeDiffBlock(r)
	}
	for n := 1 + r.next(4); n > 0; n-- {
		c.initial = append(c.initial, diffQuery(r, blocks))
	}
	var ts, maxTS int64
	docs, queries := 0, len(c.initial)
	for r.more() && docs < diffMaxDocs {
		switch r.next(8) {
		case 0:
			c.steps = append(c.steps, diffStep{unsub: r.next(diffMaxQueries), sub: ""})
		case 1:
			if q := diffQuery(r, blocks); queries < diffMaxQueries {
				c.steps = append(c.steps, diffStep{sub: q, unsub: -1})
				queries++
			}
		default:
			step := r.next(4)
			if c.late && r.next(3) == 0 {
				ts = maxTS - int64(r.next(6))
			} else {
				maxTS += int64(step)
				ts = maxTS
			}
			id := int64(docs + 1)
			if rep := r.next(6); rep == 0 && docs > 0 {
				id = int64(1 + r.next(docs))
			}
			x := decodeDiffDoc(r)
			d, err := ParseDocument(x, id, ts)
			if err != nil {
				panic(err) // the grammar writes well-formed XML
			}
			c.steps = append(c.steps, diffStep{doc: d, xml: x, unsub: -1})
			docs++
		}
	}
	return c
}

// decodeDiffBlock reads a block: its root (an entry, or a feed over one),
// the entry's id, ref and author branches — each absent, bound, or a filter
// (an <en/> under the bound id, an unbound ref or author) — and a topic
// filter. A block binds at least one join variable.
func decodeDiffBlock(r *diffReader) diffBlock {
	feedRoot := r.next(2) == 1
	var entry string
	var vars []string
	switch r.next(3) {
	case 1:
		entry, vars = entry+"[./id->%[1]s1]", append(vars, "1")
	case 2:
		entry, vars = entry+"[./id->%[1]s1[./en]]", append(vars, "1")
	}
	switch r.next(3) {
	case 1:
		entry, vars = entry+"[./ref->%[1]s2]", append(vars, "2")
	case 2:
		entry += "[./ref]"
	}
	switch r.next(3) {
	case 1:
		entry, vars = entry+"[./author/name->%[1]s3]", append(vars, "3")
	case 2:
		entry += "[./author]"
	}
	if k := r.next(4); k > 0 {
		entry += fmt.Sprintf("[./topics/t%d]", k-1)
	}
	if len(vars) == 0 {
		entry, vars = "[./id->%[1]s1]"+entry, []string{"1"}
	}
	if feedRoot {
		return diffBlock{text: "S//feed->%[1]s0[.//entry->%[1]s4" + entry + "]", vars: vars}
	}
	return diffBlock{text: "S//entry->%[1]s0" + entry, vars: vars}
}

// diffQuery reads a query over the block pool: a single block, or two joined
// by one or two value joins under a window.
func diffQuery(r *diffReader, blocks []diffBlock) string {
	kind := r.next(6)
	if kind == 0 {
		return blocks[r.next(len(blocks))].bind("x")
	}
	op := "JOIN"
	if kind%2 == 1 {
		op = "FOLLOWED BY"
	}
	lb, rb := blocks[r.next(len(blocks))], blocks[r.next(len(blocks))]
	var preds []string
	for n := 1 + r.next(2); n > 0; n-- {
		p := fmt.Sprintf("x%s=y%s", lb.vars[r.next(len(lb.vars))], rb.vars[r.next(len(rb.vars))])
		if !slices.Contains(preds, p) {
			preds = append(preds, p)
		}
	}
	var window string
	switch w := r.next(8); {
	case w == 0:
		window = "INF"
	case w < 4:
		window = fmt.Sprintf("ROWS %d", []int{1, 2, 4}[w-1])
	default:
		window = fmt.Sprint([]int{1, 3, 10, 40}[w-4])
	}
	return fmt.Sprintf("%s %s{%s, %s} %s", lb.bind("x"), op, strings.Join(preds, " AND "), window, rb.bind("y"))
}

// decodeDiffDoc reads a feed of one to three entries, each with an optional
// id (with or without an <en/> child), ref and author name, values drawn
// from three, and an optional topic.
func decodeDiffDoc(r *diffReader) string {
	val := func() string { return string("abc"[r.next(3)]) }
	var sb strings.Builder
	sb.WriteString("<feed>")
	for n := 1 + r.next(3); n > 0; n-- {
		sb.WriteString("<entry>")
		switch r.next(3) {
		case 1:
			sb.WriteString("<id>" + val() + "</id>")
		case 2:
			sb.WriteString("<id>" + val() + "<en/></id>")
		}
		if r.next(2) == 1 {
			sb.WriteString("<ref>" + val() + "</ref>")
		}
		if r.next(2) == 1 {
			sb.WriteString("<author><name>" + val() + "</name></author>")
		}
		if k := r.next(4); k > 0 {
			fmt.Fprintf(&sb, "<topics><t%d/></topics>", k-1)
		}
		sb.WriteString("</entry>")
	}
	sb.WriteString("</feed>")
	return sb.String()
}

func (c *diffCase) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "late=%v\n", c.late)
	for i, q := range c.initial {
		fmt.Fprintf(&sb, "q%d: %s\n", i, q)
	}
	for _, s := range c.steps {
		switch {
		case s.doc != nil:
			fmt.Fprintf(&sb, "doc %d@%d %s\n", s.doc.ID, s.doc.Timestamp, s.xml)
		case s.sub != "":
			fmt.Fprintf(&sb, "sub %s\n", s.sub)
		default:
			fmt.Fprintf(&sb, "unsub #%d\n", s.unsub)
		}
	}
	return sb.String()
}

// diffKey is one match as the two processors must agree on it.
type diffKey struct {
	q                    QueryID
	ldoc, rdoc, lts, rts int64
}

// run replays the case on both processors with the given number of
// publishers and returns "" when every document's matches agree.
func (c *diffCase) run(publishers int) string {
	var entered []int64 // appended under the engine's lock
	eng := New(Options{OnDocument: func(dt DocTimings) { entered = append(entered, dt.DocID) }})
	ref := New(Options{Processor: ProcessorSequential})
	liveSince := map[QueryID]int{} // query -> the segment it went live in
	var live []QueryID             // the queries churn may remove
	subscribe := func(src string, seg int) {
		id := eng.MustSubscribe(src)
		if rid := ref.MustSubscribe(src); rid != id {
			panic(fmt.Sprintf("query ids %d and %d", id, rid))
		}
		liveSince[id] = seg
		live = append(live, id)
	}
	for _, q := range c.initial {
		subscribe(q, 0)
	}
	firstSeg := map[int64]int{} // document id -> the segment it was first published in
	seg := 0
	steps := c.steps
	for len(steps) > 0 {
		// A segment: the documents up to the next churn step.
		n := 0
		for n < len(steps) && steps[n].doc != nil {
			n++
		}
		if n == 0 {
			s := steps[0]
			steps = steps[1:]
			seg++
			if s.sub != "" {
				subscribe(s.sub, seg)
			} else if len(live) > 0 {
				k := s.unsub % len(live)
				if err := eng.Unsubscribe(live[k]); err != nil {
					panic(err)
				}
				if err := ref.Unsubscribe(live[k]); err != nil {
					panic(err)
				}
				live = slices.Delete(live, k, k+1)
			}
			continue
		}
		docs := make([]*Document, n)
		for i := range docs {
			docs[i] = steps[i].doc
			if _, ok := firstSeg[int64(docs[i].ID)]; !ok {
				firstSeg[int64(docs[i].ID)] = seg
			}
		}
		steps = steps[n:]
		got := make([][]Match, n)
		entered = entered[:0]
		var wg sync.WaitGroup
		for p := 0; p < publishers; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, d := range docs {
					if int(d.ID)%publishers == p {
						got[i] = publishOne(eng, "S", d)
					}
				}
			}()
		}
		wg.Wait()
		// Replay in the order the documents entered: the k-th report of an
		// id is the k-th document with it.
		next := map[int64]int{}
		for _, id := range entered {
			i := next[id]
			for int64(docs[i].ID) != id {
				i++
			}
			next[id] = i + 1
			want := diffKeys(publishOne(ref, "S", docs[i]), liveSince, firstSeg)
			if have := diffKeys(got[i], liveSince, firstSeg); !slices.Equal(have, want) {
				return fmt.Sprintf("segment %d, document %d@%d: MMQJP %v, sequential %v", seg, id, docs[i].Timestamp, have, want)
			}
		}
		if len(entered) != n {
			return fmt.Sprintf("segment %d: %d documents entered, %d published", seg, len(entered), n)
		}
	}
	return ""
}

// diffKeys returns the sorted distinct keys of the matches whose documents
// were both first published once their query was live.
func diffKeys(ms []Match, liveSince map[QueryID]int, firstSeg map[int64]int) []diffKey {
	var out []diffKey
	for _, m := range ms {
		since := liveSince[m.Query]
		if firstSeg[m.LeftDoc] < since || firstSeg[m.RightDoc] < since {
			continue
		}
		out = append(out, diffKey{q: m.Query, ldoc: m.LeftDoc, rdoc: m.RightDoc, lts: m.LeftTS, rts: m.RightTS})
	}
	slices.SortFunc(out, func(a, b diffKey) int {
		return slices.Compare([]int64{int64(a.q), a.ldoc, a.rdoc, a.lts, a.rts}, []int64{int64(b.q), b.ldoc, b.rdoc, b.lts, b.rts})
	})
	return slices.Compact(out)
}

// TestLateDocumentMatchesSequential: a late document may join only documents
// both processors still hold. Document 6 arrives with timestamp 5, inside
// the window of document 1, but document 5 (timestamp 12) already put
// document 1 out of every window, and each processor dropped it then: the
// late document matches nothing in either.
func TestLateDocumentMatchesSequential(t *testing.T) {
	const q = "S//a->x[./k->v] FOLLOWED BY{v=w, 10} S//b->y[./k->w]"
	docs := []struct {
		id, ts int64
		xml    string
	}{
		{1, 1, "<a><k>a</k></a>"},
		{2, 8, "<b><k>z1</k></b>"},
		{3, 9, "<b><k>z2</k></b>"},
		{4, 10, "<b><k>z3</k></b>"},
		{5, 12, "<b><k>z4</k></b>"},
		{6, 5, "<b><k>a</k></b>"},
	}
	eng, ref := New(Options{}), New(Options{Processor: ProcessorSequential})
	eng.MustSubscribe(q)
	ref.MustSubscribe(q)
	for _, d := range docs {
		got, err := publishXML(eng, "S", d.xml, d.id, d.ts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := publishXML(ref, "S", d.xml, d.id, d.ts)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := renderEngineMatches(got), renderEngineMatches(want); g != w || g != "" {
			t.Errorf("document %d@%d: MMQJP %q, sequential %q, want none", d.id, d.ts, g, w)
		}
	}
}
