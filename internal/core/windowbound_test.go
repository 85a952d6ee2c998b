package core

import (
	"fmt"
	"testing"

	"repro/internal/sym"
	"repro/internal/xmldoc"
	"repro/internal/xscl"
)

// TestStateBoundedByWindow streams fifty windows' worth of documents whose
// join values each recur in the next document only — every string enters STR
// once, in the document after the one that brought it — and requires
// everything the processor keeps per document to plateau at a small multiple
// of the window instead of growing with the stream: the join state, whose
// only bound is window GC, its value dictionary, which holds no value no row
// carries, the process-global symbol table, which join values never enter,
// and the Stage-2 buffers (the value-join pairs) it keeps across documents.
// The documents themselves are the facade's, and so is their bound
// (TestRetainedDocumentsBoundedByWindow in the root package; the facade's
// heap under fresh join values is TestJoinValuesBoundedByWindow's).
// Stage 1 runs ahead on 1 and 4 goroutines (stage1Ahead), so the witnesses of
// documents not yet consumed are live beside the state.
func TestStateBoundedByWindow(t *testing.T) {
	const window = 32
	const ndocs = 50 * window
	// Everything below is O(1) per live document. Every Consume expires
	// what left the window, so the state holds the window's documents: the
	// timestamps within window of the newest (window+1 of them) or the
	// last window arrivals. A merge takes a slot before the collection
	// frees one.
	const maxDocs = window + 1
	const rowsPerDoc = 4    // witness rows of each relation per document
	const stringsPerDoc = 2 // strings a document shares with its predecessor

	for _, tc := range []struct {
		name  string
		query string
		ts    func(i int) xmldoc.Timestamp
	}{
		// Two leaves per side keep the block roots in the template, so the
		// pairs' ends are Rbin rows.
		{"time", fmt.Sprintf("S//item->x[.//a->v][.//b->u] FOLLOWED BY{v=w AND u=z, %d} S//item->y[.//c->w][.//d->z]", window),
			func(i int) xmldoc.Timestamp { return xmldoc.Timestamp(i) }},
		{"rows", fmt.Sprintf("S//item->x[.//a->v][.//b->u] FOLLOWED BY{v=w AND u=z, ROWS %d} S//item->y[.//c->w][.//d->z]", window),
			func(int) xmldoc.Timestamp { return 7 }},
		// Single-node sides: the pairs' ends are Rroot rows.
		{"single-node", fmt.Sprintf("S//a->v FOLLOWED BY{v=w, %d} S//c->w", window),
			func(i int) xmldoc.Timestamp { return xmldoc.Timestamp(i) }},
	} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				emptyStage1Pool()
				p := NewProcessor(Config{})
				p.MustRegister(xscl.MustParse(tc.query))
				docs := make([]*xmldoc.Document, ndocs)
				for i := 1; i <= ndocs; i++ {
					b := xmldoc.NewBuilder(xmldoc.DocID(i), tc.ts(i), "item")
					b.Element(0, "a", fmt.Sprintf("k%dA", i))
					b.Element(0, "b", fmt.Sprintf("k%dB", i))
					b.Element(0, "c", fmt.Sprintf("k%dA", i-1))
					b.Element(0, "d", fmt.Sprintf("k%dB", i-1))
					docs[i-1] = b.Build()
				}
				matches := 0
				symbols, peakValues, peakSlots := 0, 0, 0
				for k, r := range stage1Ahead(p, "S", docs, workers) {
					i := k + 1
					matches += p.Consume(r).Len()

					s := p.state
					bin, doc, root := s.Rows()
					storage, postings, postingCap := 0, 0, 0
					for j := range s.recs {
						storage += s.recs[j].storage()
					}
					for j := range s.lists {
						postings += len(s.lists[j].live())
						postingCap += cap(s.lists[j].refs)
					}
					for _, c := range []struct {
						what     string
						n, bound int
					}{
						// A document's pairs are those of the strings it
						// shares with the state, whatever the stream
						// length.
						{"pair values", cap(p.pre.vals), pairWidth * rowsPerDoc * stringsPerDoc},
						{"shared values", cap(p.pre.held), rowsPerDoc * stringsPerDoc},
						{"state documents", s.NumDocs(), maxDocs},
						{"slots", len(s.recs), maxDocs + 1},
						{"Rdoc rows", doc, maxDocs * rowsPerDoc},
						{"Rbin rows", bin, maxDocs * rowsPerDoc},
						{"Rroot rows", root, maxDocs * rowsPerDoc},
						{"posting entries", postings, maxDocs * rowsPerDoc},
						{"posting lists", len(s.lists), maxDocs * rowsPerDoc},
						// A value lives as long as a row carries it.
						{"dictionary entries", s.values.n, doc},
						// Freed slots keep their storage for the next
						// document (a row is at most 4 values), and a
						// posting list at most doubles past its peak.
						{"row storage values", storage, 4 * 3 * (maxDocs + 1) * rowsPerDoc},
						{"posting capacity", postingCap, 2 * maxDocs * rowsPerDoc},
						// The arrival order loses its front to every
						// collection and append regrows it: at most twice
						// its length, rounded up to a size class (at most
						// an eighth more).
						{"arrival order capacity", cap(s.order), 9 * 2 * (maxDocs + 1) / 8},
					} {
						if c.n > c.bound {
							t.Fatalf("after %d documents (window %d): %d %s, want <= %d", i, window, c.n, c.what, c.bound)
						}
					}
					// A freed slot keeps no expired document or row
					// reachable.
					checkState(t, s)
					// Every value is new twice per document, yet nothing
					// interns it, and the dictionary stops growing once
					// the state has: the state holds a window's documents
					// from the first window on, so it reaches its peak
					// within two windows.
					switch {
					case i == window:
						symbols = sym.Count()
					case i > window && sym.Count() != symbols:
						t.Fatalf("after %d documents: %d interned symbols, %d after the first window", i, sym.Count(), symbols)
					}
					if i <= 2*window {
						peakValues, peakSlots = max(peakValues, s.values.n), max(peakSlots, len(s.values.slots))
					} else if s.values.n > peakValues || len(s.values.slots) > peakSlots {
						t.Fatalf("after %d documents: %d values on %d dictionary slots, at most %d on %d in the first two windows",
							i, s.values.n, len(s.values.slots), peakValues, peakSlots)
					}
				}
				// Each document joins its predecessor exactly once, so the
				// stream really exercised Stage 2.
				if matches != ndocs-1 {
					t.Fatalf("%d matches, want %d", matches, ndocs-1)
				}
			})
		}
	}
}
