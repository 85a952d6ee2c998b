package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/xmldoc"
	"repro/internal/xscl"
)

// PaperScale is the paper's "massively multi-query" regime as a generated
// workload: a flat item schema whose queries vary in *wiring shape*, not
// just leaf choice. Template identity is purely structural — side sizes,
// parent vectors and the value-join wiring graph; element names never enter
// the canonical signature — so the earlier generators, which all emit the
// identity wiring (v1=w1 AND … AND vk=wk over k distinct leaves per side),
// collapse onto roughly one template per k: a handful of templates, far
// from the many-template regime. PaperScale instead samples the endpoint
// wiring itself: each side's k join endpoints are drawn as a
// restricted-growth label sequence (repeated labels make several joins
// share one bound node), duplicate (left,right) label pairs rejected as
// redundant predicates. Distinct wiring shapes yield distinct canonical
// templates — 50+ live templates at a few thousand queries — while the
// random leaf assignment per label spreads the instances of each template
// over many RT vector groups.
//
// Values are drawn from one global pool shared by every leaf, so joins
// between different leaf names still collide and every template does real
// Stage-2 work; the pool size tunes the per-document value-join pair count
// and with it the witness fan-out pairs^k that makes high-k templates hot.
type PaperScale struct {
	// Leaves is the number of leaf elements under each item root.
	Leaves int
	// MaxK bounds the value joins per query; k is drawn from
	// Zipf(1..MaxK, Theta).
	MaxK  int
	Theta float64
	// Window is every query's join window in timestamp units; the stream
	// advances one unit per document, so it is also the retained-document
	// count once the stream is longer than the window.
	Window int64
	// ValuePool is the number of distinct string values shared by all
	// leaves of all documents.
	ValuePool int
}

// DefaultPaperScale is the paper-scale default, with enough wiring diversity
// for well over 50 live canonical templates (the workload tests assert the
// floor).
func DefaultPaperScale() PaperScale {
	return PaperScale{
		Leaves:    8,
		MaxK:      5,
		Theta:     0.2,
		Window:    500,
		ValuePool: 24,
	}
}

// Queries generates n queries: k ~ Zipf(1..MaxK), a sampled wiring shape,
// and a random distinct-leaf assignment per side.
func (c PaperScale) Queries(rng *rand.Rand, n int) []*xscl.Query {
	z := NewZipf(c.MaxK, c.Theta)
	out := make([]*xscl.Query, n)
	for i := range out {
		out[i] = c.query(rng, z.Sample(rng))
	}
	return out
}

func (c PaperScale) query(rng *rand.Rand, k int) *xscl.Query {
	l, r := sampleWiring(rng, k)
	numL, numR := maxLabel(l)+1, maxLabel(r)+1
	lleaf := rng.Perm(c.Leaves)[:numL]
	rleaf := rng.Perm(c.Leaves)[:numR]
	var lhs, rhs, pred strings.Builder
	lhs.WriteString("S//item->v0")
	rhs.WriteString("S//item->w0")
	for a := 0; a < numL; a++ {
		fmt.Fprintf(&lhs, "[./%s->v%d]", leafName(lleaf[a]+1), a+1)
	}
	for b := 0; b < numR; b++ {
		fmt.Fprintf(&rhs, "[./%s->w%d]", leafName(rleaf[b]+1), b+1)
	}
	for i := 0; i < k; i++ {
		if i > 0 {
			pred.WriteString(" AND ")
		}
		fmt.Fprintf(&pred, "v%d=w%d", l[i]+1, r[i]+1)
	}
	return xscl.MustParse(fmt.Sprintf("%s FOLLOWED BY{%s, %d} %s",
		lhs.String(), pred.String(), c.Window, rhs.String()))
}

// sampleWiring draws the endpoint label sequences of k value joins: one
// restricted-growth sequence per side, redrawn until no two joins connect
// the same (left, right) label pair.
func sampleWiring(rng *rand.Rand, k int) (l, r []int) {
	for {
		l = rgsSample(rng, k)
		r = rgsSample(rng, k)
		if noDupPairs(l, r) {
			return
		}
	}
}

// rgsSample draws a restricted-growth sequence of length k: out[0] = 0 and
// each later label is at most one above the maximum so far, so every label
// partition of the endpoints is reachable.
func rgsSample(rng *rand.Rand, k int) []int {
	out := make([]int, k)
	max := 0
	for i := 1; i < k; i++ {
		out[i] = rng.Intn(max + 2)
		if out[i] > max {
			max = out[i]
		}
	}
	return out
}

func maxLabel(s []int) int {
	m := 0
	for _, v := range s {
		if v > m {
			m = v
		}
	}
	return m
}

func noDupPairs(l, r []int) bool {
	for i := range l {
		for j := i + 1; j < len(l); j++ {
			if l[i] == l[j] && r[i] == r[j] {
				return false
			}
		}
	}
	return true
}

// Stream materializes n documents: each item carries all leaves, values
// drawn from the shared global pool, timestamps advancing one unit per
// document.
func (c PaperScale) Stream(rng *rand.Rand, n int) []*xmldoc.Document {
	out := make([]*xmldoc.Document, n)
	for i := range out {
		b := xmldoc.NewBuilder(xmldoc.DocID(i+1), xmldoc.Timestamp(i+1), "item")
		for j := 1; j <= c.Leaves; j++ {
			b.Element(0, leafName(j), fmt.Sprintf("val-%d", rng.Intn(c.ValuePool)))
		}
		out[i] = b.Build()
	}
	return out
}
