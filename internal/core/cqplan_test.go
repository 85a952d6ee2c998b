package core

import (
	"cmp"
	"fmt"
	"math"
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

// TestTrieEqualsVectorGroups holds every template's trie and the join index
// to the vector groups (trieMismatch, headMismatch) through random Register
// and Unregister churn on the RSS, paper-scale and random shapes, including
// revivals of unregistered queries; a template reclaimed with its last query, and every template once
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
				if msg := headMismatch(&p.joins, p.templateList); msg != "" {
					t.Fatalf("step %d, join index: %s", step, msg)
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

// headMismatch checks the join index against the templates' vector groups
// and returns "" when they agree: every head key is found where it lies, and
// the entries are exactly one per group, under the group's head key, each
// carrying its tuple's first key, found where it lies and naming the node the
// template's trie reaches below the head key.
func headMismatch(joins *joinIndex, tmpls []*Template) string {
	type group struct {
		t *Template
		g int32
	}
	want := map[group]bool{}
	for _, t := range tmpls {
		for g := range t.vecList {
			want[group{t, int32(g)}] = true
		}
	}
	n, keys := 0, 0
	for i, slot := range joins.slots {
		if len(slot.entries) == 0 {
			continue
		}
		keys++
		if joins.slot(slot.key) != i {
			return fmt.Sprintf("head key %v in slot %d is not found there", slot.key, i)
		}
		for j, e := range slot.entries {
			n++
			id := group{e.t, e.group}
			if !want[id] {
				return fmt.Sprintf("an entry of %v names group %d of template %s, which is not live or was named twice", slot.key, e.group, e.t.Sig)
			}
			delete(want, id)
			vars := e.g.vars
			if e.g != e.t.vecList[e.group] {
				return fmt.Sprintf("the entry of group %d of template %s names another group, of vector %v", e.group, e.t.Sig, vars)
			}
			// The head key's classes take the trie's first levels.
			depth := 0
			for _, p := range e.t.key {
				if p >= 0 {
					depth++
				}
			}
			switch node := e.t.trie.walk(e.t.levels[:depth], vars); {
			case depth != e.t.keyDepth:
				return fmt.Sprintf("template %s has a head key of %d classes and a key depth of %d", e.t.Sig, depth, e.t.keyDepth)
			case e.t.headKey(vars) != slot.key || e.t.firstKey(vars) != e.first:
				return fmt.Sprintf("group %v of template %s lies under %v with first key %v", vars, e.t.Sig, slot.key, e.first)
			case e.node != node:
				return fmt.Sprintf("group %v of template %s names node %d, its trie %d", vars, e.t.Sig, e.node, node)
			}
			if fi, fj := joins.find(e.t, vars, e.group); fi != i || fj != j {
				return fmt.Sprintf("the entry of group %v of template %s at %d/%d is found at %d/%d", vars, e.t.Sig, i, j, fi, fj)
			}
		}
	}
	if len(want) != 0 || keys != joins.n {
		return fmt.Sprintf("%d live groups have no entry; the index holds %d entries under %d keys and counts %d keys", len(want), n, keys, joins.n)
	}
	return ""
}

// FuzzTrieChurn applies a byte string as a sequence of vector-group
// registrations and removals to two templates sharing one join index and
// compares their tries, the groups' window classes and the index with a map
// from vector to instances after every operation: each vector of the small
// alphabet must walk to its group, with the group's vector, or nowhere; no
// class may be empty, each class's queries must strictly ascend, each
// group's (window key, query) multiset must be the map's, and the join
// index must equal one rebuilt from the groups (headMismatch). The first
// byte picks the shape: a three-position template on a block root whose head
// key ends at the group, so removals relink it; a four-position headed one
// (no query compiles to one, the index keeps it exact all the same); a
// five-position headed one; a six-position headed one with a second view
// join, whose key tuple leaves one position out, so groups share a head key
// and a first key and are told apart by their index, which removals move;
// a root–root one of two single-node sides; a root–inner one whose inner
// endpoint lies two edges below its block root; or the x=z AND y=w shape,
// joined on two block roots of larger sides, whose head key is all noParent
// and anyClass, so every group lies under it, ordered by its view join's
// key. An instance's window key is drawn from a small alphabet too, so
// groups hold several classes that empty and refill.
func FuzzTrieChurn(f *testing.F) {
	f.Add([]byte{0, 0, 2, 4, 1, 6, 3, 8, 1, 1})
	f.Add([]byte("the trie keeps exactly the vectors registered"))
	f.Add([]byte{0, 0, 0x40, 0x80, 0xc0, 0x40, 1, 3, 0, 0x80, 5, 1, 1, 1})
	f.Add([]byte{1, 0, 2, 4, 6, 8, 0x0a, 0x0c, 0x0e, 1, 3, 0x42, 0x86, 1, 5, 1, 1, 1})
	f.Add([]byte{2, 0, 0x10, 2, 0x12, 4, 0x14, 0x46, 0x20, 3, 7, 1, 0x8a, 1, 1, 1})
	f.Add([]byte{3, 0, 0x40, 0x10, 0x50, 0x08, 0x48, 3, 0x20, 0x60, 5, 1, 0x42, 1, 3, 1, 1, 1})
	f.Add([]byte{4, 0, 2, 4, 6, 0x0a, 0x42, 1, 0x86, 3, 1, 5, 1, 1})
	f.Add([]byte{5, 0, 0x10, 2, 0x14, 0x46, 0x20, 0x12, 3, 1, 0x8a, 5, 1, 1, 1})
	f.Add([]byte{6, 0, 0x40, 0x10, 0x50, 0x08, 0x48, 0x0c, 3, 0x20, 0x60, 5, 1, 0x42, 1, 3, 1, 1, 1})
	type entry struct {
		key windowKey
		qid QueryID
	}
	// vec is a vector of the small alphabet; positions past a shape's
	// stay 0.
	type vec [6]int32
	radix := vec{4, 4, 3, 2, 2, 2}
	keys := [...]windowKey{
		{window: 10, op: xscl.OpFollowedBy},
		{window: 20, op: xscl.OpFollowedBy},
		{window: 10, op: xscl.OpJoin},
		{window: 10, op: xscl.OpJoin, swapped: true},
	}
	shapes := [...]struct {
		levels []int
		key    [4]int
		tuple  [][4]int
	}{
		{[]int{1, 2, 0}, [4]int{noParent, 1, 2, 0}, nil},
		{[]int{0, 1, 2, 3}, [4]int{0, 1, 2, 3}, nil},
		{[]int{4, 0, 2, 1, 3}, [4]int{4, 0, 2, 1}, nil},
		{[]int{4, 0, 2, 1, 3, 5}, [4]int{4, 0, 2, 1}, [][4]int{{4, 3, 2, 1}}},
		{[]int{0, 1}, [4]int{noParent, 0, noParent, 1}, nil},
		{[]int{0, 2, 3, 1}, [4]int{noParent, 0, 2, 3}, nil},
		{[]int{0, 1, 2, 3}, [4]int{noParent, anyClass, noParent, anyClass}, [][4]int{{0, 1, 2, 3}}},
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		shape := shapes[int(ops[0])%len(shapes)]
		ops = ops[1:]
		var joins joinIndex
		var tmpls []*Template
		depth := 0
		for _, p := range shape.key {
			if p >= 0 {
				depth++
			}
		}
		for i := 0; i < 2; i++ {
			tmpls = append(tmpls, &Template{Sig: fmt.Sprint(i), N: len(shape.levels), levels: shape.levels, key: shape.key, tuple: shape.tuple, keyDepth: depth})
		}
		type inst struct {
			entry
			ti int
		}
		ref := map[int]map[vec][]entry{0: {}, 1: {}}
		var live []inst                   // registered instances
		groups := map[QueryID]*vecGroup{} // instance -> its group
		next := QueryID(0)
		for step, b := range ops {
			if b&1 == 0 || len(live) == 0 {
				v := vec{int32(b>>1) % 4, int32(b>>3) % 4, int32(b>>5) % 3, int32(b>>2) % 2, int32(b>>4) % 2, int32(b>>6) % 2}
				n := len(shape.levels)
				clear(v[n:])
				in := inst{entry{keys[int(b>>6)%len(keys)], next}, step % 2}
				groups[next] = tmpls[in.ti].addVector(&joins, v[:n], in.key, next)
				ref[in.ti][v] = append(ref[in.ti][v], in.entry)
				live = append(live, in)
				next++
			} else {
				k := int(b>>1) % len(live)
				in := live[k]
				live = slices.Delete(live, k, k+1)
				g := groups[in.qid]
				var v vec
				copy(v[:], g.vars)
				tmpls[in.ti].removeVector(&joins, g, in.key, in.qid)
				delete(groups, in.qid)
				if ref[in.ti][v] = removeFirst(ref[in.ti][v], in.entry); len(ref[in.ti][v]) == 0 {
					delete(ref[in.ti], v)
				}
			}
			if msg := headMismatch(&joins, tmpls); msg != "" {
				t.Fatalf("op %d: join index: %s", step, msg)
			}
			for ti, tmpl := range tmpls {
				if msg := trieMismatch(tmpl); msg != "" {
					t.Fatalf("op %d, template %d: %s", step, ti, msg)
				}
				if len(tmpl.vecList) != len(ref[ti]) {
					t.Fatalf("op %d, template %d: %d groups, want %d", step, ti, len(tmpl.vecList), len(ref[ti]))
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
					var v vec
					copy(v[:], g.vars)
					want := slices.Clone(ref[ti][v])
					byQuery := func(a, b entry) int { return cmp.Compare(a.qid, b.qid) }
					slices.SortFunc(got, byQuery)
					slices.SortFunc(want, byQuery)
					if !slices.Equal(got, want) {
						t.Fatalf("op %d: group %v holds %v, want %v", step, g.vars, got, want)
					}
				}
				// Every vector of the alphabet, as an odometer over the
				// shape's positions.
				n := len(shape.levels)
				for v := (vec{}); ; {
					gi := tmpl.trie.walk(tmpl.levels, v[:n])
					want, ok := ref[ti][v]
					switch {
					case !ok && gi != -1:
						t.Fatalf("op %d: %v walks to group %d, registered by no instance", step, v[:n], gi)
					case ok && gi < 0:
						t.Fatalf("op %d: %v of instances %v leaves the trie", step, v[:n], want)
					case ok && !slices.Equal(tmpl.vecList[gi].vars, v[:n]):
						t.Fatalf("op %d: %v walks to the group of %v", step, v[:n], tmpl.vecList[gi].vars)
					}
					p := 0
					for ; p < n; p++ {
						if v[p]++; v[p] < radix[p] {
							break
						}
						v[p] = 0
					}
					if p == n {
						break
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
// match — the pair build, the join index and the compiled programs walking
// the vector-group trie — on three shapes: colliding two-level documents,
// the paper-scale generator and the RSS stream. The readings are 2.40, 4.14
// and 0.28 probes per match since every value join reads one pair relation,
// its later ones by state slot and key shape (3.31, 4.88 and 0.30 while view
// joins read RL and RR and side-root ones Rvj and their endpoints' rows,
// every template entering through the join index only where the pairs of
// every value join of one of its groups share a previous document's state
// slot modulo 64; 3.30, 17.66 and 0.28 when
// side-root templates ran whole and a key tuple had only to be present in
// the document; 4.98, 19.45 and 0.72
// when the head key alone chose the templates entered; 5.10, 38.30 and 0.83
// when every template scanned RL and probed RR itself; 128 and 2.0 on the
// last two without the trie). Each bound is 1.25 times its reading, rounded,
// or the earlier bound where that is lower (colliding and RSS read a little
// more since the pair build reads each endpoint's rows once for all
// templates), so a dead end the trie or the join index stopped cutting fails
// here. The match totals are pinned exactly: the replay is deterministic, and
// TestCompiledPlanMatchesReference and the differential harness check what
// the matches are. The gate-regime case is the benchmark's paper_scale shape
// (paperScaleSlice, 600 documents): 56 templates, 32.7 matches, 37.4 probes
// and 1.00 program entered per document (35.1 and 1.00 while view joins
// read RL and RR; 127.6 and 7.3 when side-root
// templates ran whole; 269.6 and 32.5 when the head key alone chose the
// templates; 575.2 and 55.0 without the head join), each bounded at 1.25
// times its reading.
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
		{"colliding two-level", tl.Queries(rand.New(rand.NewSource(1)), 300), collidingStream(tl.N, 100), 41514, 4.1},
		{"paper scale", ps.Queries(rand.New(rand.NewSource(1)), 800), ps.Stream(rand.New(rand.NewSource(8)), 300), 369008, 6.1},
		{"rss", rss.Queries(rand.New(rand.NewSource(1)), 1000), rss.Stream(rand.New(rand.NewSource(8)), 2000), 86030, 0.35},
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
	t.Run("paper scale gate regime", func(t *testing.T) {
		const probeBound, enteredBound = 44.0, 1.25
		p, docs := paperScaleSlice(600)
		before := p.Stats()
		for _, d := range docs {
			p.Process("S", d)
		}
		st := p.Stats()
		n := float64(len(docs))
		matches := st.Matches - before.Matches
		probes := float64(st.CQProbes-before.CQProbes) / n
		entered := float64(st.WitnessPlans-before.WitnessPlans) / n
		t.Logf("%d templates; per document %.1f matches, %.1f probes, %.2f programs entered (%d matches)",
			p.NumTemplates(), float64(matches)/n, probes, entered, matches)
		if probes > probeBound {
			t.Errorf("%.1f probes per document, want <= %.0f", probes, probeBound)
		}
		if entered > enteredBound {
			t.Errorf("%.2f programs entered per document, want <= %.2f", entered, enteredBound)
		}
	})
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

// TestMatchWalkStepsPerClass bounds the result walk's heap steps (Stretch
// calls) per document on the feed shape of TestMatchRunsPerMatch, windowed
// as the benchmark's rss_window and unbounded as Figure 16. A document's
// runs there are mostly frames of one window class, sharing its ~160 query
// ids, and the walk hands out a range of the class's queries times all of
// its frames in one step: 1.91 and 7.38 steps per document, bounded at 1.25
// times that. A walk whose unit is the run switches source at every query
// of such a document instead, and fails both bounds by far: 108 and 431
// steps per document here, ≈ 129 on the benchmark's rss_window stream.
func TestMatchWalkStepsPerClass(t *testing.T) {
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
		{"windowed", 500, 2.4},
		{"figure 16", 0, 9.2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewProcessor(Config{})
			for _, q := range rss.Queries(rand.New(rand.NewSource(1)), 10000) {
				if tc.window > 0 {
					q.Window = tc.window
				}
				p.MustRegister(q)
			}
			steps, runs, matches := 0, 0, 0
			for _, d := range stream {
				ms := p.Consume(p.RunStage1("S", d))
				ms.Start()
				for {
					if _, _, _, ok := ms.Stretch(); !ok {
						break
					}
					steps++
				}
				runs += len(ms.runs)
				matches += ms.Len()
			}
			perDoc := float64(steps) / float64(len(stream))
			t.Logf("%d steps, %d runs, %d matches over %d documents: %.2f steps per document",
				steps, runs, matches, len(stream), perDoc)
			if matches == 0 || perDoc > tc.bound {
				t.Errorf("%.2f steps per document, want <= %.2f", perDoc, tc.bound)
			}
		})
	}
}

// TestPairBuildReadsLiveEndKinds pins that Stage 2's pair build reads only
// the endpoint rows the live templates' key shapes take. The deep-feed joins
// compile to side-root templates, whose keys take no Rbin end: no pair
// carries one, and the build visits fewer rows than that of a processor made
// to read every kind of end, whose matches are the same document by
// document — each value join's step takes only pairs of its own shape. A
// template joining two nodes with parents turns the Rbin ends on, and
// unregistering it turns them off again.
func TestPairBuildReadsLiveEndKinds(t *testing.T) {
	c := workload.DefaultDeepFeed()
	queries := c.Queries(rand.New(rand.NewSource(5)), 330)
	docs := c.Stream(rand.New(rand.NewSource(6)), 160)
	p, forced := NewProcessor(Config{}), NewProcessor(Config{})
	for _, q := range queries {
		p.MustRegister(q)
		forced.MustRegister(q)
	}
	// binShapes counts p's live templates with a key that has an Rbin end.
	binShapes := func() (n int) {
		for sh, c := range p.keyShapes {
			if sh/3 == 1 || sh%3 == 1 {
				n += c
			}
		}
		return n
	}
	if n := binShapes(); n != 0 {
		t.Fatalf("premise: the deep-feed templates join side roots only, %d keys have an Rbin end", n)
	}
	for sh := range forced.keyShapes {
		forced.keyShapes[sh]++
	}
	publish := func(docs []*xmldoc.Document) (binPairs, matches int) {
		for _, d := range docs {
			got, want := p.Process("S", d), forced.Process("S", d)
			if g, w := renderMatches(got), renderMatches(want); g != w {
				t.Fatalf("doc %d: matches differ from the processor that reads every end:\ngot:\n%swant:\n%s", d.ID, g, w)
			}
			for i := range int32(len(p.pre.vals) / pairWidth) {
				if row := stride(p.pre.vals, pairWidth, i); row[pairL+rbinVar1] >= 0 || row[pairR+rbinVar1] >= 0 {
					binPairs++
				}
			}
			matches += len(got)
		}
		return binPairs, matches
	}
	binPairs, matches := publish(docs[:100])
	if binPairs != 0 {
		t.Errorf("side roots only: %d pairs with an Rbin end built, want none", binPairs)
	}
	if matches == 0 {
		t.Fatal("premise: the documents match")
	}
	if got, all := p.stats.CQProbes, forced.stats.CQProbes; got >= all {
		t.Errorf("side roots only: Stage 2 visited %d rows and entries, reading every end kind %d", got, all)
	}

	twoParent := xscl.MustParse("S//entry->e[./id->x][./title->t] FOLLOWED BY{x=y AND t=u, 200} S//entry->f[./ref->y][./title->u]")
	qid, forcedQid := p.MustRegister(twoParent), forced.MustRegister(twoParent)
	if n := binShapes(); n != 1 {
		t.Fatalf("after a two-parent template: %d keys with an Rbin end, want 1", n)
	}
	if binPairs, _ = publish(docs[100:130]); binPairs == 0 {
		t.Error("a two-parent template is live and no pair with an Rbin end was built")
	}
	p.MustUnregister(qid)
	forced.MustUnregister(forcedQid)
	if n := binShapes(); n != 0 {
		t.Errorf("after unregistering the two-parent template: %d keys with an Rbin end, want 0", n)
	}
	if binPairs, _ = publish(docs[130:]); binPairs != 0 {
		t.Errorf("after unregistering the two-parent template: %d pairs with an Rbin end built, want none", binPairs)
	}
}

// TestPairBufferGrowsGeometrically: a document with many more value-join
// pairs than the floor builds them, from an empty pair buffer, with a
// logarithmic number of allocations (the nodes it holds and the index keep
// their storage): a buffer that grew one row at a time past some size
// would show here as thousands of allocations, and append's 1.25x steps as
// 28 against a bound of 20. The pair buffer, its index and the key table
// such a document grew fall back to the floor after 2·retainDocs calm
// documents.
func TestPairBufferGrowsGeometrically(t *testing.T) {
	const side = 120 // side*side pairs, well over the floor
	doc := func(id, n int, name string) *xmldoc.Document {
		b := xmldoc.NewBuilder(xmldoc.DocID(id), xmldoc.Timestamp(id), "r")
		for range n {
			b.Element(0, name, "v")
		}
		return b.Build()
	}
	p := NewProcessor(Config{})
	p.MustRegister(xscl.MustParse("S//a->x FOLLOWED BY{x=y, 1000} S//b->y"))
	p.Process("S", doc(1, side, "a"))
	r := p.RunStage1("S", doc(2, side, "b"))
	p.state.resolve(r)
	ex := &p.ex
	ex.p, ex.cur, ex.d, ex.pre = p, &r.rec, r.doc, &p.pre
	if !ex.buildPairs() || len(p.pre.vals)/pairWidth != side*side {
		t.Fatalf("premise: %d pairs built, want %d", len(p.pre.vals)/pairWidth, side*side)
	}
	allocs := testing.AllocsPerRun(5, func() {
		p.pre.vals = nil
		ex.buildPairs()
	})
	// Doubling from one row to side*side rows reallocates about
	// log2(side*side) = 14 times; the row index over the pairs adds a few.
	if bound := 1.5 * math.Log2(side*side); allocs > bound {
		t.Errorf("%d pairs: %.0f allocations per build, want at most %.0f", side*side, allocs, bound)
	}
	t.Logf("%d pairs: %.0f allocations per build", side*side, allocs)

	held := func() (vals, next, keys int) {
		return max(cap(p.pre.vals), cap(p.pre.bySlot.rows)), cap(ex.next), len(ex.present.slots)
	}
	p.Process("S", doc(3, side, "b"))
	if vals, next, keys := held(); vals <= retainFloor || next <= retainFloor || keys <= retainFloor {
		t.Fatalf("premise: a document of %d pairs grew the buffers to %d values or index entries, %d chained pairs and %d key slots", side*side, vals, next, keys)
	}
	// Each calm document after the first pairs with the one before it alone.
	for id := 4; id <= 4+2*retainDocs; id++ {
		b := xmldoc.NewBuilder(xmldoc.DocID(id), xmldoc.Timestamp(id), "r")
		b.Element(0, "a", fmt.Sprint(id))
		b.Element(0, "b", fmt.Sprint(id-1))
		p.Process("S", b.Build())
	}
	if vals, next, keys := held(); vals > retainFloor || next > retainFloor || keys > retainFloor {
		t.Errorf("%d calm documents after a burst: %d values or index entries, %d chained pairs and %d key slots kept", 2*retainDocs, vals, next, keys)
	}
}
