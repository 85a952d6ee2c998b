package xmldoc_test

import (
	"math/rand"
	"testing"

	"repro/internal/workload"
	"repro/internal/xmldoc"
)

// TestParseAllocCeiling bounds the allocations of parsing one document of
// the serialised RSS stream (400 items, generator seed 8) — the XML decode
// and string-value memoisation a publish pays before Stage 1; the stages
// after it are bounded by internal/core's TestPublishAllocCeiling. A count
// is the same on every machine. The ceiling is at most 1.25 times what the
// test logs. The package is external because workload imports xmldoc.
func TestParseAllocCeiling(t *testing.T) {
	const ceiling = 76
	stream := workload.DefaultRSS().Stream(rand.New(rand.NewSource(8)), 400)
	texts := make([]string, len(stream))
	for i, d := range stream {
		texts[i] = d.XMLText()
	}
	// AllocsPerRun's own warm-up call brings the parser's pooled scratch to
	// its steady state.
	allocs := testing.AllocsPerRun(1, func() {
		for i, txt := range texts {
			if _, err := xmldoc.ParseString(txt, xmldoc.DocID(i+1), xmldoc.Timestamp(i+1)); err != nil {
				t.Fatal(err)
			}
		}
	}) / float64(len(texts))
	t.Logf("%.1f allocations per document", allocs)
	if allocs > ceiling {
		t.Errorf("%.1f allocations per document, want <= %d", allocs, ceiling)
	}
}
