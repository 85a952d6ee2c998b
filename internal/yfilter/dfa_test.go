package yfilter

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/workload"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// deepDoc builds an n-node document over the given names whose paths run
// deep: a node closes only one time in four, so most of the document is a
// few long chains, and the set of NFA states a path leaves active varies
// with the order of the names along it.
func deepDoc(rng *rand.Rand, n int, names []string) *xmldoc.Document {
	b := xmldoc.NewBuilder(1, 0, names[rng.Intn(len(names))])
	open := []xmldoc.NodeID{0}
	for i := 1; i < n; i++ {
		for len(open) > 1 && rng.Intn(4) == 0 {
			open = open[:len(open)-1]
		}
		open = append(open, b.Element(open[len(open)-1], names[rng.Intn(len(names))], ""))
	}
	return b.Build()
}

// TestWalkMemoBounded pushes the subset construction past memoLimit with
// the textbook blow-up: //x/*/*/*/*/*/*/*/* for each of four names x, whose
// active set at a node records the names on the eight levels above it, up
// to 4^8 sets. Over deep documents of those names the memo must never hold
// more than memoLimit entries after a document, must have been emptied and
// rebuilt, and every pattern's witnesses must equal MatchNaive's on every
// document.
func TestWalkMemoBounded(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	e := NewEngine()
	var ids []PatternID
	for _, x := range names {
		ids = append(ids, e.Register(xpath.MustParseBlock("S//"+x+"->u"+strings.Repeat("/*", 8)+"->v")))
	}
	sn := e.streams["S"]
	rng := rand.New(rand.NewSource(17))
	// Each document is large enough to fill a fresh memo on its own, so
	// the test does not depend on the pool handing the same result back.
	var steps, resets, prevResets int
	var prev *MatchResult
	for doc := 0; doc < 12; doc++ {
		d := deepDoc(rng, 3000, names)
		r := e.MatchDocument("S", d)
		steps += int(r.Steps())
		m := &r.memos[sn.id]
		if m.size() > memoLimit {
			t.Fatalf("doc %d: memo holds %d entries, bound %d", doc, m.size(), memoLimit)
		}
		if resets += m.resets; r == prev {
			resets -= prevResets
		}
		prev, prevResets = r, m.resets
		for _, id := range ids {
			checkAgainstNaive(t, "", r, id, e.Pattern(id), d)
		}
		r.Release()
	}
	t.Logf("%d steps, %d resets", steps, resets)
	if resets < 12 {
		t.Errorf("the memo was emptied %d times in 12 documents (%d steps): the test does not reach memoLimit", resets, steps)
	}
}

// TestWarmWalkAllocatesNothing pins the hit path: once the memo has seen a
// document's shapes, matching it and releasing the result allocate nothing
// and compute no transition. (Under the race detector sync.Pool drops
// results at random, so a walk may start cold.)
func TestWarmWalkAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops results at random under -race")
	}
	c := workload.DefaultDeepFeed()
	e := NewEngine()
	for _, q := range c.Queries(rand.New(rand.NewSource(1)), 1100) {
		for _, block := range []*xpath.Pattern{q.Left, q.Right} {
			if block != nil {
				bound, _ := block.NormalizedFullyBound()
				e.Register(bound)
			}
		}
	}
	d := c.Stream(rand.New(rand.NewSource(2)), 1)[0]
	runs, steps := 0, int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		r := e.MatchDocument("S", d)
		if runs++; runs > 1 {
			steps += r.Steps() // the first run, AllocsPerRun's warm-up, fills the memo
		}
		r.Release()
	})
	if allocs != 0 || steps != 0 {
		t.Errorf("warm walk: %.1f allocations per document and %d steps in 100, want 0 and 0", allocs, steps)
	}
}
