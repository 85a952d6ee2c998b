package core

import (
	"fmt"
	"testing"

	"repro/internal/xmldoc"
	"repro/internal/xscl"
)

// TestStateBoundedByWindow streams many windows' worth of documents whose
// join values each recur in the next document only — every string enters STR
// once, gets a view-cache entry, and is never looked up again — and requires
// everything the processor keeps per document to plateau at a small multiple
// of the window instead of growing with the stream. Window GC (and the
// scoped view-cache invalidation riding on it) is the only bound there is.
// Stage 1 runs ahead on 1 and 4 goroutines (stage1Ahead), so the witnesses of
// documents not yet consumed are live beside the state.
func TestStateBoundedByWindow(t *testing.T) {
	const window = 32
	const ndocs = 12 * window
	// Everything below is O(1) per live document; GC runs in batches of up
	// to gcBatchMin expired documents, so the live set peaks near
	// window+gcBatchMin documents.
	const maxDocs = 3 * window
	const rowsPerDoc = 4    // witness rows of each relation per document
	const stringsPerDoc = 2 // strings a document shares with its predecessor

	for _, tc := range []struct {
		name  string
		query string
		ts    func(i int) xmldoc.Timestamp
	}{
		// Two leaves per side keep the block roots in the template, so the
		// cached RL slices carry Rbin rows.
		{"time", fmt.Sprintf("S//item->x[.//a->v][.//b->u] FOLLOWED BY{v=w AND u=z, %d} S//item->y[.//c->w][.//d->z]", window),
			func(i int) xmldoc.Timestamp { return xmldoc.Timestamp(i) }},
		{"rows", fmt.Sprintf("S//item->x[.//a->v][.//b->u] FOLLOWED BY{v=w AND u=z, ROWS %d} S//item->y[.//c->w][.//d->z]", window),
			func(int) xmldoc.Timestamp { return 7 }},
		// Single-node sides: the cached slices are empty and reference no
		// document.
		{"single-node", fmt.Sprintf("S//a->v FOLLOWED BY{v=w, %d} S//c->w", window),
			func(i int) xmldoc.Timestamp { return xmldoc.Timestamp(i) }},
	} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				p := NewProcessor(Config{ViewMaterialization: true, RetainDocuments: true})
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
				for k, r := range stage1Ahead(p, "S", docs, workers) {
					i := k + 1
					matches += p.Consume(r).Len()

					entries := p.cache.Len()
					s := p.state
					bin, doc, root := s.Rows()
					retained, storage, postings, postingCap, slotRefs := 0, 0, 0, 0, 0
					for j := range s.recs {
						if s.recs[j].doc != nil {
							retained++
						}
						storage += cap(s.recs[j].vals)
					}
					for j := range s.lists {
						postings += len(s.lists[j].live())
						postingCap += cap(s.lists[j].refs)
					}
					for _, refs := range p.cache.bySlot {
						slotRefs += len(refs)
					}
					for _, c := range []struct {
						what     string
						n, bound int
					}{
						{"view-cache entries", entries, maxDocs * stringsPerDoc},
						// An entry is listed under each slot its rows
						// carry: the document that produced the value and
						// the one that joined it.
						{"view-cache slot references", slotRefs, 2 * maxDocs * stringsPerDoc},
						{"state documents", s.NumDocs(), maxDocs},
						{"slots", len(s.recs), maxDocs},
						{"retained documents", retained, maxDocs},
						{"Rdoc rows", doc, maxDocs * rowsPerDoc},
						{"Rbin rows", bin, maxDocs * rowsPerDoc},
						{"Rroot rows", root, maxDocs * rowsPerDoc},
						{"posting entries", postings, maxDocs * rowsPerDoc},
						{"posting lists", len(s.lists), maxDocs * rowsPerDoc},
						// Freed slots keep their storage for the next
						// document (a row is at most 5 values), and a
						// posting list at most doubles past its peak.
						{"row storage values", storage, 5 * 3 * maxDocs * rowsPerDoc},
						{"posting capacity", postingCap, 2 * maxDocs * rowsPerDoc},
						{"arrival order capacity", cap(s.order), 2 * maxDocs},
					} {
						if c.n > c.bound {
							t.Fatalf("after %d documents (window %d): %d %s, want <= %d", i, window, c.n, c.what, c.bound)
						}
					}
					// A freed slot keeps no expired document or row
					// reachable, and no cache entry stays listed under it.
					checkState(t, s)
					for _, slot := range s.free {
						if int(slot) < len(p.cache.bySlot) && len(p.cache.bySlot[slot]) > 0 {
							t.Fatalf("after %d documents: free slot %d still lists %d cache entries", i, slot, len(p.cache.bySlot[slot]))
						}
					}
				}
				// Each document joins its predecessor exactly once, so the
				// stream really exercised Stage 2 and the cache.
				if matches != ndocs-1 {
					t.Fatalf("%d matches, want %d", matches, ndocs-1)
				}
			})
		}
	}
}
