package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/workload"
	"repro/internal/xmldoc"
	"repro/internal/xscl"
)

// twoLeafQuery builds a FOLLOWED BY query joining the given leaf on both
// sides; all such queries share one template, and queries on different
// leaves occupy different variable-vector groups within it.
func twoLeafQuery(leaf string, window int64) *xscl.Query {
	return xscl.MustParse(fmt.Sprintf(
		"S//r->v0[./%s->v1] FOLLOWED BY{v1=w1, %d} S//r->w0[./%s->w1]",
		leaf, window, leaf))
}

// classesOf returns g's window classes, the inline first one first.
func classesOf(g *vecGroup) []windowClass {
	out := []windowClass{g.first}
	if g.more != nil {
		out = append(out, *g.more...)
	}
	return out
}

// groupSize counts g's instances, over its window classes.
func groupSize(g *vecGroup) int {
	n := 0
	for _, c := range classesOf(g) {
		n += len(c.qids)
	}
	return n
}

// TestVectorGroupChurn exercises vector-group add/remove under
// subscription churn: instances sharing a variable vector collapse onto one
// group, a group whose last instance leaves is dropped, and the template
// itself is reclaimed with its last query; a re-registration of the same
// shape starts a fresh template.
func TestVectorGroupChurn(t *testing.T) {
	p := NewProcessor(Config{})
	qa1 := p.MustRegister(twoLeafQuery("l1", 10))
	qa2 := p.MustRegister(twoLeafQuery("l1", 20))
	qb := p.MustRegister(twoLeafQuery("l2", 10))

	if n := len(p.templateList); n != 1 {
		t.Fatalf("queries on one shape made %d templates", n)
	}
	tmpl := p.templateList[0]
	if n := len(tmpl.vecList); n != 2 {
		t.Fatalf("expected 2 vector groups (l1 shared, l2), got %d", n)
	}
	var shared *vecGroup
	for _, g := range tmpl.vecList {
		if groupSize(g) == 2 {
			shared = g
		}
	}
	if shared == nil {
		t.Fatal("no vector group holds both l1 instances")
	}
	if cs := classesOf(shared); len(cs) != 2 || cs[0].key.window != 10 || cs[1].key.window != 20 {
		t.Fatalf("shared group classes = %+v, want windows 10 and 20", cs)
	}

	// Removing one of two sharers shrinks the group but keeps it.
	p.MustUnregister(qa1)
	if n := len(tmpl.vecList); n != 2 {
		t.Fatalf("after partial removal: %d groups, want 2", n)
	}
	if n := groupSize(shared); n != 1 {
		t.Fatalf("shared group holds %d instances, want 1", n)
	}
	// Removing the last sharer drops the group entirely.
	p.MustUnregister(qa2)
	if n := len(tmpl.vecList); n != 1 {
		t.Fatalf("after draining l1: %d groups, want 1", n)
	}
	// Removing the last query reclaims the template...
	p.MustUnregister(qb)
	if n := len(p.templateList); n != 0 {
		t.Fatalf("template not reclaimed: %d live", n)
	}
	// ...and a re-registration of the same shape starts afresh.
	p.MustRegister(twoLeafQuery("l3", 10))
	if n := len(p.templateList); n != 1 {
		t.Fatalf("re-registration made %d templates", n)
	}
	if p.templateList[0] == tmpl {
		t.Error("re-registration revived the reclaimed template")
	}
	if n := len(p.templateList[0].vecList); n != 1 {
		t.Fatalf("re-registered template has %d groups, want 1", n)
	}
}

// TestVectorGroupChurnMatches verifies the compiled program walks exactly
// the surviving vector groups after churn: a churned processor, whose trie
// lost two groups and relinked a moved one, produces the same matches as a
// fresh processor holding only the surviving queries.
func TestVectorGroupChurnMatches(t *testing.T) {
	docs := func() []*xmldoc.Document {
		var out []*xmldoc.Document
		for i := 1; i <= 3; i++ {
			b := xmldoc.NewBuilder(xmldoc.DocID(i), xmldoc.Timestamp(i), "r")
			b.Element(0, "l1", "x")
			b.Element(0, "l2", "y")
			b.Element(0, "l3", "x")
			out = append(out, b.Build())
		}
		return out
	}

	churned := NewProcessor(Config{})
	dead1 := churned.MustRegister(twoLeafQuery("l1", 10))
	churned.MustRegister(twoLeafQuery("l2", 10))
	dead2 := churned.MustRegister(twoLeafQuery("l3", 10))
	churned.MustRegister(twoLeafQuery("l1", 20))
	churned.MustUnregister(dead1)
	churned.MustUnregister(dead2)

	fresh := NewProcessor(Config{})
	fresh.MustRegister(twoLeafQuery("l2", 10))
	fresh.MustRegister(twoLeafQuery("l1", 20))

	for i, d := range docs() {
		got := matchSet(churned.Process("S", d))
		// Query ids differ between the two processors (1→0, 3→1);
		// remap the fresh ids onto the churned ones.
		want := map[matchKey]bool{}
		for k := range matchSet(fresh.Process("S", d)) {
			remap := map[int64]int64{0: 1, 1: 3}
			want[matchKey{remap[k.q], k.ldoc, k.rdoc}] = true
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("doc %d: churned %v vs fresh %v", i+1, keys(got), keys(want))
		}
	}
}

// trieMismatch checks a template's trie against its vector groups and
// returns "" when they agree: the root-to-leaf paths are exactly the live
// groups' vectors in binding order, each leaf names the group it spells,
// every edge counts the groups below it, and the table holds no edge off
// those paths.
func trieMismatch(t *Template) string {
	type edge struct{ v, child, count int32 }
	out := map[int32][]edge{}
	for _, e := range t.trie.slots {
		if e.count != 0 {
			node := int32(e.key >> 32)
			out[node] = append(out[node], edge{int32(e.key), e.child, e.count})
		}
	}
	seen := make([]bool, len(t.vecList))
	path := make([]int32, t.N)
	edges := 0
	var visit func(node int32, level int) (int32, string)
	visit = func(node int32, level int) (groups int32, msg string) {
		for _, e := range out[node] {
			edges++
			path[t.levels[level]] = e.v
			below := int32(1)
			if level == len(t.levels)-1 {
				if e.child < 0 || int(e.child) >= len(t.vecList) {
					return 0, fmt.Sprintf("leaf %v names group %d of %d", path, e.child, len(t.vecList))
				}
				if g := t.vecList[e.child]; !slices.Equal(g.vars, path) {
					return 0, fmt.Sprintf("leaf %v names group %d, whose vector is %v", path, e.child, g.vars)
				}
				if seen[e.child] {
					return 0, fmt.Sprintf("group %d has two leaves", e.child)
				}
				seen[e.child] = true
			} else if below, msg = visit(e.child, level+1); msg != "" {
				return 0, msg
			}
			if e.count != below {
				var prefix []int32
				for _, p := range t.levels[:level+1] {
					prefix = append(prefix, path[p])
				}
				return 0, fmt.Sprintf("edge %v counts %d groups, %d lie below", prefix, e.count, below)
			}
			groups += below
		}
		return groups, ""
	}
	groups, msg := visit(0, 0)
	switch {
	case msg != "":
		return msg
	case int(groups) != len(t.vecList):
		return fmt.Sprintf("%d paths for %d live groups", groups, len(t.vecList))
	case edges != t.trie.n:
		return fmt.Sprintf("%d edges reachable of %d in the table", edges, t.trie.n)
	}
	return ""
}

// TestTrieEqualsVectorGroups holds every template's trie to its vector
// groups (trieMismatch) through random Register and Unregister churn on the
// RSS, paper-scale and random shapes, including revivals of unregistered
// queries; a template reclaimed with its last query, and every template once
// the last query is gone, must hold an empty trie.
func TestTrieEqualsVectorGroups(t *testing.T) {
	flat := workload.DefaultRandomFlat()
	rng := rand.New(rand.NewSource(5))
	var random []*xscl.Query
	for i := 0; i < 300; i++ {
		random = append(random, flat.Query(rng))
	}
	for name, queries := range map[string][]*xscl.Query{
		"rss":         workload.DefaultRSS().Queries(rand.New(rand.NewSource(1)), 400),
		"paper scale": workload.DefaultPaperScale().Queries(rand.New(rand.NewSource(2)), 400),
		"random":      random,
	} {
		t.Run(name, func(t *testing.T) {
			p := NewProcessor(Config{})
			rng := rand.New(rand.NewSource(9))
			seen := map[*Template]bool{}
			check := func(step int) {
				for _, tmpl := range p.templateList {
					seen[tmpl] = true
					if msg := trieMismatch(tmpl); msg != "" {
						t.Fatalf("step %d, template %s: %s", step, tmpl.Sig, msg)
					}
				}
				for tmpl := range seen {
					if tmpl.refs == 0 && (tmpl.trie.n != 0 || len(tmpl.vecList) != 0) {
						t.Fatalf("step %d: reclaimed template %s keeps %d edges and %d groups", step, tmpl.Sig, tmpl.trie.n, len(tmpl.vecList))
					}
				}
			}
			// Queries are drawn with replacement, so one registered again
			// while live joins its own group, and one registered after it
			// left revives its group, or its template.
			var live []QueryID
			for step := 0; step < 3*len(queries); step++ {
				if len(live) > 0 && rng.Intn(5) < 2 {
					k := rng.Intn(len(live))
					p.MustUnregister(live[k])
					live = slices.Delete(live, k, k+1)
				} else {
					live = append(live, p.MustRegister(queries[rng.Intn(len(queries))]))
				}
				check(step)
			}
			for _, id := range live {
				p.MustUnregister(id)
			}
			check(-1)
			if len(p.templateList) != 0 {
				t.Fatalf("%d templates live after the last query left", len(p.templateList))
			}
		})
	}
}

// FuzzTrieChurn applies a byte string as a sequence of vector-group
// registrations and removals to a three-level template and compares the
// trie and the groups' window classes with a map from vector to instances
// after every operation: each vector of the small alphabet must walk to its
// group, with the group's vector, or nowhere; no class may be empty, each
// class's queries must strictly ascend, and each group's (window key, query)
// multiset must be the map's. An instance's window key is drawn from a
// small alphabet too, so groups hold several classes that empty and refill.
func FuzzTrieChurn(f *testing.F) {
	f.Add([]byte{0, 2, 4, 1, 6, 3, 8, 1, 1})
	f.Add([]byte("the trie keeps exactly the vectors registered"))
	f.Add([]byte{0, 0x40, 0x80, 0xc0, 0x40, 1, 3, 0, 0x80, 5, 1, 1, 1})
	type entry struct {
		key windowKey
		qid QueryID
	}
	keys := [...]windowKey{
		{window: 10, op: xscl.OpFollowedBy},
		{window: 20, op: xscl.OpFollowedBy},
		{window: 10, op: xscl.OpJoin},
		{window: 10, op: xscl.OpJoin, swapped: true},
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		tmpl := &Template{N: 3, levels: []int{1, 2, 0}}
		ref := map[[3]int32][]entry{}
		var live []entry                  // registered instances
		groups := map[QueryID]*vecGroup{} // instance -> its group
		next := QueryID(0)
		for step, b := range ops {
			if b&1 == 0 || len(live) == 0 {
				v := [3]int32{int32(b>>1) % 4, int32(b>>3) % 4, int32(b>>5) % 3}
				e := entry{keys[int(b>>6)%len(keys)], next}
				groups[next] = tmpl.addVector(v[:], e.key, next)
				ref[v] = append(ref[v], e)
				live = append(live, e)
				next++
			} else {
				k := int(b>>1) % len(live)
				e := live[k]
				live = slices.Delete(live, k, k+1)
				g := groups[e.qid]
				v := [3]int32(g.vars)
				tmpl.removeVector(g, e.key, e.qid)
				delete(groups, e.qid)
				if ref[v] = removeFirst(ref[v], e); len(ref[v]) == 0 {
					delete(ref, v)
				}
			}
			if msg := trieMismatch(tmpl); msg != "" {
				t.Fatalf("op %d: %s", step, msg)
			}
			if len(tmpl.vecList) != len(ref) {
				t.Fatalf("op %d: %d groups, want %d", step, len(tmpl.vecList), len(ref))
			}
			for _, g := range tmpl.vecList {
				var got []entry
				for _, c := range classesOf(g) {
					if len(c.qids) == 0 {
						t.Fatalf("op %d: group %v holds an empty class %+v", step, g.vars, c.key)
					}
					for i, q := range c.qids {
						if i > 0 && q <= c.qids[i-1] {
							t.Fatalf("op %d: class %+v of group %v holds %v, not strictly ascending", step, c.key, g.vars, c.qids)
						}
						got = append(got, entry{c.key, q})
					}
				}
				want := slices.Clone(ref[[3]int32(g.vars)])
				byQuery := func(a, b entry) int { return cmp.Compare(a.qid, b.qid) }
				slices.SortFunc(got, byQuery)
				slices.SortFunc(want, byQuery)
				if !slices.Equal(got, want) {
					t.Fatalf("op %d: group %v holds %v, want %v", step, g.vars, got, want)
				}
			}
			for a := int32(0); a < 4; a++ {
				for b := int32(0); b < 4; b++ {
					for c := int32(0); c < 3; c++ {
						v := [3]int32{a, b, c}
						gi := tmpl.trie.walk(tmpl.levels, v[:])
						want, ok := ref[v]
						switch {
						case !ok && gi != -1:
							t.Fatalf("op %d: %v walks to group %d, registered by no instance", step, v, gi)
						case ok && gi < 0:
							t.Fatalf("op %d: %v of instances %v leaves the trie", step, v, want)
						case ok && !slices.Equal(tmpl.vecList[gi].vars, v[:]):
							t.Fatalf("op %d: %v walks to the group of %v", step, v, tmpl.vecList[gi].vars)
						}
					}
				}
			}
		}
	})
}

// collidingStream is the stream the witness side fans out on: n-leaf
// two-level documents that all carry the same values, one time unit apart,
// so under a short window every stored document joins the current one on
// every leaf.
func collidingStream(n, count int) []*xmldoc.Document {
	out := make([]*xmldoc.Document, count)
	for i := range out {
		b := xmldoc.NewBuilder(xmldoc.DocID(i+1), xmldoc.Timestamp(i+1), "r")
		for l := 1; l <= n; l++ {
			b.Element(0, fmt.Sprintf("l%d", l), fmt.Sprintf("value-%d", l))
		}
		out[i] = b.Build()
	}
	return out
}

// TestWitnessOrderCountedWork bounds the index entries Stage 2 visits per
// match — the compiled program walking the vector-group trie — on three
// shapes: colliding two-level documents, the paper-scale generator and the
// RSS stream. The readings are 5.1, 38.3 and 0.83 probes per match (128 and
// 2.0 on the last two without the trie); each bound is 1.25 times its
// reading, rounded, so a dead end the trie stopped cutting fails here. The
// match totals are pinned exactly: the replay is deterministic, and
// TestCompiledPlanMatchesReference and the differential harness check what
// the matches are.
func TestWitnessOrderCountedWork(t *testing.T) {
	if raceEnabled {
		t.Skip("one worker, no second goroutine: the race detector has nothing to see here and takes ten times as long")
	}
	tl := workload.TwoLevel{N: 4, Theta: 0.8, Window: 12}
	ps := workload.DefaultPaperScale()
	rss := workload.DefaultRSS()
	for _, tc := range []struct {
		name     string
		queries  []*xscl.Query
		stream   []*xmldoc.Document
		matches  int64
		perMatch float64
	}{
		{"colliding two-level", tl.Queries(rand.New(rand.NewSource(1)), 300), collidingStream(tl.N, 100), 41514, 6.4},
		{"paper scale", ps.Queries(rand.New(rand.NewSource(1)), 800), ps.Stream(rand.New(rand.NewSource(8)), 300), 369008, 48},
		{"rss", rss.Queries(rand.New(rand.NewSource(1)), 1000), rss.Stream(rand.New(rand.NewSource(8)), 2000), 86030, 1.05},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewProcessor(Config{})
			for _, q := range tc.queries {
				p.MustRegister(q)
			}
			var matches int64
			for _, d := range tc.stream {
				matches += int64(len(p.Process("S", d)))
			}
			if matches != tc.matches {
				t.Fatalf("%d matches, want %d", matches, tc.matches)
			}
			probes := p.Stats().CQProbes
			perMatch := float64(probes) / float64(matches)
			t.Logf("%d matches; %d probes (%.2f per match)", matches, probes, perMatch)
			if perMatch > tc.perMatch {
				t.Errorf("visited %.2f index entries per match, want <= %.2f", perMatch, tc.perMatch)
			}
		})
	}
}

// TestMatchRunsPerMatch bounds Stage 2's output work per match on the
// Figure-16 shape — 10 000 unbounded-window feed subscriptions on five
// templates, where one frame stands for about 150 instances — at ROADMAP
// item 2's 0.2 runs per match: Stage 2 writes one run per frame and window
// class (Stats.MatchRuns), not one match per instance. The windowed feed
// shape of the benchmark's rss_window is logged beside it.
func TestMatchRunsPerMatch(t *testing.T) {
	if raceEnabled {
		t.Skip("one worker, no second goroutine: the race detector has nothing to see here and takes ten times as long")
	}
	rss := workload.DefaultRSS()
	stream := rss.Stream(rand.New(rand.NewSource(8)), 2600)
	for _, tc := range []struct {
		name   string
		window int64 // 0 keeps the generator's unbounded window
		bound  float64
	}{
		{"figure 16", 0, 0.2},
		{"windowed", 500, 0.2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewProcessor(Config{})
			for _, q := range rss.Queries(rand.New(rand.NewSource(1)), 10000) {
				if tc.window > 0 {
					q.Window = tc.window
				}
				p.MustRegister(q)
			}
			for _, d := range stream {
				p.Consume(p.RunStage1("S", d))
			}
			st := p.Stats()
			perMatch := float64(st.MatchRuns) / float64(st.Matches)
			t.Logf("%d runs for %d matches over %d documents: %.4f runs per match, %.1f matches per run",
				st.MatchRuns, st.Matches, len(stream), perMatch, 1/perMatch)
			if st.Matches == 0 || perMatch > tc.bound {
				t.Errorf("%.4f runs per match, want <= %.2f", perMatch, tc.bound)
			}
		})
	}
}
