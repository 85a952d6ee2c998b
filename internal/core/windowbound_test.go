package core

import (
	"fmt"
	"testing"

	"repro/internal/relation"
	"repro/internal/xmldoc"
	"repro/internal/xscl"
)

// indexEntries counts the row numbers a state index lists (it has at most as
// many keys).
func indexEntries[K comparable](m map[K][]int) int {
	n := 0
	for _, rows := range m {
		n += len(rows)
	}
	return n
}

// TestStateBoundedByWindow streams many windows' worth of documents whose
// join values each recur in the next document only — every string enters STR
// once, gets a view-cache entry, and is never looked up again — and requires
// everything the processor keeps per document to plateau at a small multiple
// of the window instead of growing with the stream. Window GC (and the
// scoped view-cache invalidation riding on it) is the only bound there is.
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
				p := NewProcessor(Config{ViewMaterialization: true, RetainDocuments: true, Workers: workers})
				p.MustRegister(xscl.MustParse(tc.query))
				matches := 0
				for i := 1; i <= ndocs; i++ {
					b := xmldoc.NewBuilder(xmldoc.DocID(i), tc.ts(i), "item")
					b.Element(0, "a", fmt.Sprintf("k%dA", i))
					b.Element(0, "b", fmt.Sprintf("k%dB", i))
					b.Element(0, "c", fmt.Sprintf("k%dA", i-1))
					b.Element(0, "d", fmt.Sprintf("k%dB", i-1))
					matches += len(p.Process("S", b.Build()))

					entries := 0
					for _, sh := range p.shards {
						entries += sh.cache.Len()
					}
					s := p.state
					for _, c := range []struct {
						what     string
						n, bound int
					}{
						{"view-cache entries", entries, maxDocs * stringsPerDoc},
						{"state documents", s.NumDocs(), maxDocs},
						{"retained documents", len(s.docs), maxDocs},
						{"RdocTS entries", len(s.RdocTS), maxDocs},
						{"Rdoc rows", s.Rdoc.Len(), maxDocs * rowsPerDoc},
						{"Rbin rows", s.Rbin.Len(), maxDocs * rowsPerDoc},
						{"Rroot rows", s.Rroot.Len(), maxDocs * rowsPerDoc},
						{"rdocBySym entries", indexEntries(s.rdocBySym), maxDocs * rowsPerDoc},
						{"rbinByNode2 entries", indexEntries(s.rbinByNode2), maxDocs * rowsPerDoc},
						{"rrootByNode entries", indexEntries(s.rrootByNode), maxDocs * rowsPerDoc},
						// Expiry works in place: the row stores keep
						// their capacity (append at most doubles it past
						// the peak) and an emptied list leaves its index.
						{"Rdoc capacity", cap(s.Rdoc.Rows), 2 * maxDocs * rowsPerDoc},
						{"Rbin capacity", cap(s.Rbin.Rows), 2 * maxDocs * rowsPerDoc},
						{"Rroot capacity", cap(s.Rroot.Rows), 2 * maxDocs * rowsPerDoc},
						{"rdocBySym keys", len(s.rdocBySym), maxDocs * rowsPerDoc},
						{"rbinByNode2 keys", len(s.rbinByNode2), maxDocs * rowsPerDoc},
						{"rrootByNode keys", len(s.rrootByNode), maxDocs * rowsPerDoc},
					} {
						if c.n > c.bound {
							t.Fatalf("after %d documents (window %d): %d %s, want <= %d", i, window, c.n, c.what, c.bound)
						}
					}
					// The tail a collection vacated must not keep the expired
					// documents' tuples reachable.
					for _, r := range []*relation.Relation{s.Rbin, s.Rdoc, s.Rroot} {
						for j, row := range r.Rows[len(r.Rows):cap(r.Rows)] {
							if row != nil {
								t.Fatalf("after %d documents: %v row store still holds %v at %d past its %d live rows",
									i, r.Schema, row, len(r.Rows)+j, len(r.Rows))
							}
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
