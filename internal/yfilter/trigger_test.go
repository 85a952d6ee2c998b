package yfilter

import (
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/workload"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
	"repro/internal/xscl"
)

// fullScan is what Triggered stands for: every live pattern of the result's
// stream, in id order, each of whose prefixes has a candidate.
func fullScan(e *Engine, r *MatchResult) []PatternID {
	var out []PatternID
	for id := range e.patterns {
		a := &e.asm[id]
		if !e.dead[id] && a.sn == r.sn && r.complete(a) {
			out = append(out, PatternID(id))
		}
	}
	return out
}

// TestTriggeredEqualsFullScan interleaves, at random, registrations on two
// streams, kills and revivals (SetLive) and documents of 2 to 300 nodes on
// either stream, all through one engine whose pooled results are reused
// across document sizes and streams: Triggered must name exactly the live
// patterns a scan of every pattern finds complete, and a released result
// must hold no candidate.
func TestTriggeredEqualsFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e := NewEngine()
	streams := []string{"S", "T"}
	var triggered, kills, revivals int
	for step := 0; step < 600; step++ {
		switch k := rng.Intn(10); {
		case k < 3 || e.NumPatterns() == 0:
			p := randomPattern(rng)
			s := streams[rng.Intn(len(streams))]
			e.Register(xpath.MustParseBlock(s + strings.TrimPrefix(p.String(), p.Stream)))
		case k < 5:
			id := PatternID(rng.Intn(e.NumPatterns()))
			if e.dead[id] {
				revivals++
			} else {
				kills++
			}
			e.SetLive(id, e.dead[id])
		default:
			var doc *xmldoc.Document
			if rng.Intn(4) == 0 {
				doc = randomTreeDoc(rng, 100+rng.Intn(201), []string{"a", "b", "c", "d"}, rng.Intn(2) == 0)
			} else {
				doc = randomDoc(rng, 2+rng.Intn(25))
			}
			r := e.MatchDocument(streams[rng.Intn(len(streams))], doc)
			if r == nil {
				continue
			}
			got := slices.Clone(r.Triggered())
			slices.Sort(got)
			if want := fullScan(e, r); !slices.Equal(got, want) {
				t.Fatalf("step %d: Triggered %v, full scan %v", step, got, want)
			}
			triggered += len(got)
			r.Release()
			for pid, list := range r.candList {
				if len(list) != 0 {
					t.Fatalf("step %d: prefix %d keeps %d candidates after Release", step, pid, len(list))
				}
			}
		}
	}
	if triggered == 0 || kills == 0 || revivals == 0 {
		t.Fatalf("test premise: %d triggered, %d kills, %d revivals", triggered, kills, revivals)
	}
}

// TestTriggerWorkFollowsHits is the trigger's cost on the deep_filter shape
// (workload.DeepFeed): with 4 400 filters none of whose topics a document
// carries added to 1 100 subscriptions, the same patterns are triggered and
// the counted trigger work — hit prefixes plus the watchers visited — stays
// within 10%. A trigger that visits every live pattern does five times the
// work. (A filter testing for two topics, one of which occurs, may watch the
// one that does; visiting it when a document hits that prefix is work the
// document asked for, so such filters are left out of the added set.)
func TestTriggerWorkFollowsHits(t *testing.T) {
	c := workload.DefaultDeepFeed()
	docs := c.Stream(rand.New(rand.NewSource(2)), 20)
	occurs := func(q *xscl.Query) bool {
		for _, n := range q.Left.Nodes {
			if k, err := strconv.Atoi(strings.TrimPrefix(n.Name, "t")); err == nil && k < c.Topics {
				return true
			}
		}
		return false
	}
	measure := func(never int) (work, triggered int64, patterns int) {
		e := NewEngine()
		register := func(q *xscl.Query) {
			for _, block := range []*xpath.Pattern{q.Left, q.Right} {
				if block != nil {
					bound, _ := block.NormalizedFullyBound()
					e.Register(bound)
				}
			}
		}
		rng := rand.New(rand.NewSource(1))
		for _, q := range c.Queries(rng, 1100) {
			register(q)
		}
		for i := 0; never > 0; i++ {
			if q := c.Filter(rng, c.Topics+i); !occurs(q) {
				register(q)
				never--
			}
		}
		for _, d := range docs {
			r := e.MatchDocument("S", d)
			triggered += int64(len(r.Triggered()))
			work += r.triggerWork
			r.Release()
		}
		n := int64(len(docs))
		return work / n, triggered / n, e.NumPatterns()
	}
	w1, t1, n1 := measure(0)
	w5, t5, n5 := measure(4400)
	t.Logf("%d patterns: %d triggered, trigger work %d per document; %d patterns: %d, %d", n1, t1, w1, n5, t5, w5)
	if t1 == 0 || t5 != t1 {
		t.Fatalf("test premise: %d then %d patterns triggered per document", t1, t5)
	}
	if 10*w5 > 11*w1 {
		t.Errorf("trigger work per document %d at %d patterns against %d at %d: over 10%% more", w5, n5, w1, n1)
	}
}
