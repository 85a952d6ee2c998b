package xmldoc_test

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/workload"
	"repro/internal/xmldoc"
)

// docGenerator is what the in-tree workload generators have in common.
type docGenerator interface {
	Stream(*rand.Rand, int) []*xmldoc.Document
}

// parseCases are the serialised streams TestParseAllocCeiling and
// BenchmarkParse read: RSS items (the rss_* and paper-scale shape, a dozen
// nodes) and deep feeds (deep_filter's 265-node, 8.6 KB documents).
var parseCases = []struct {
	name  string
	gen   docGenerator
	items int
}{
	{"rss item", workload.DefaultRSS(), 400},
	{"deep feed", workload.DefaultDeepFeed(), 100},
}

func parseTexts(i int) []string {
	var texts []string
	for _, d := range parseCases[i].gen.Stream(rand.New(rand.NewSource(8)), parseCases[i].items) {
		texts = append(texts, d.XMLText())
	}
	return texts
}

// allocCeiling is the most allocations and bytes per document a parse may
// cost.
type allocCeiling struct{ allocs, bytes float64 }

// TestParseAllocCeiling bounds the allocations and allocated bytes of parsing
// one document — the scan a publish pays before Stage 1, string values
// excluded (they are computed on demand); the stages after it are bounded by
// internal/core's TestPublishAllocCeiling. "fresh" is ParseString, a new
// document each time; "reuse" is ParseInto into one document that has held
// the stream's largest, which must allocate nothing. Counts and bytes are the
// same on every machine. A ceiling is at most 1.25 times what the test logs.
// The package is external because workload imports xmldoc.
func TestParseAllocCeiling(t *testing.T) {
	fresh := []allocCeiling{
		{3, 1420},  // rss item: 3 allocations, 1.1 KB (encoding/xml: 63, 3.7 KB)
		{3, 28700}, // deep feed: 3 allocations, 23.0 KB (encoding/xml: 2 176, 132 KB)
	}
	for i, tc := range parseCases {
		t.Run(tc.name, func(t *testing.T) { parseAllocCeiling(t, i, fresh[i]) })
	}
}

// parseAllocCeiling is TestParseAllocCeiling on parseCases[i]: a fresh
// parse under the given ceiling, and a reused document under none.
func parseAllocCeiling(t *testing.T, i int, fresh allocCeiling) {
	texts := parseTexts(i)
	reused := new(xmldoc.Document)
	for _, mode := range []struct {
		name    string
		parse   func(j int, txt string) error
		ceiling allocCeiling
	}{
		{"fresh", func(j int, txt string) error {
			_, err := xmldoc.ParseString(txt, xmldoc.DocID(j+1), xmldoc.Timestamp(j+1))
			return err
		}, fresh},
		{"reuse", func(j int, txt string) error {
			return xmldoc.ParseInto(reused, txt, xmldoc.DocID(j+1), xmldoc.Timestamp(j+1))
		}, allocCeiling{}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			pass := func() {
				for j, txt := range texts {
					if err := mode.parse(j, txt); err != nil {
						t.Fatal(err)
					}
				}
			}
			pass() // every name interned, the reused document grown
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			pass()
			runtime.ReadMemStats(&after)
			allocs := float64(after.Mallocs-before.Mallocs) / float64(len(texts))
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(texts))
			t.Logf("%.1f allocations, %.0f bytes per document", allocs, bytes)
			if allocs > mode.ceiling.allocs {
				t.Errorf("%.1f allocations per document, want <= %.0f", allocs, mode.ceiling.allocs)
			}
			if bytes > mode.ceiling.bytes {
				t.Errorf("%.0f bytes allocated per document, want <= %.0f", bytes, mode.ceiling.bytes)
			}
		})
	}
}

// BenchmarkParse times ParseString against the encoding/xml tree builder it
// replaced, on the two document shapes, and ParseInto into one reused
// document ("scanner-reuse"), the parse of a publish that keeps no document.
func BenchmarkParse(b *testing.B) {
	for i, tc := range parseCases {
		texts := parseTexts(i)
		size := 0
		for _, txt := range texts {
			size += len(txt)
		}
		reused := new(xmldoc.Document)
		parseReused := func(s string, id xmldoc.DocID, ts xmldoc.Timestamp) (*xmldoc.Document, error) {
			return reused, xmldoc.ParseInto(reused, s, id, ts)
		}
		for _, p := range []struct {
			name  string
			parse func(string, xmldoc.DocID, xmldoc.Timestamp) (*xmldoc.Document, error)
		}{{"scanner", xmldoc.ParseString}, {"scanner-reuse", parseReused}, {"encoding-xml", parseStdlib}} {
			b.Run(tc.name+"/"+p.name, func(b *testing.B) {
				b.SetBytes(int64(size / len(texts)))
				b.ReportAllocs()
				for n := 0; n < b.N; n++ {
					if _, err := p.parse(texts[n%len(texts)], 1, 1); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
