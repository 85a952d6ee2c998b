package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sym"
	"repro/internal/workload"
	"repro/internal/xmldoc"
	"repro/internal/xscl"
	"repro/internal/yfilter"
)

// Column is one column of a row schema: its name and whether its values are
// symbols (join-value ids) or plain integers. A row is a pointer-free
// []int64, and what a number is belongs to its column: whoever reads a
// symbol column asks the schema once (Schema.SymCol).
type Column struct {
	Name string
	Sym  bool
}

// Int declares an integer column.
func Int(name string) Column { return Column{Name: name} }

// Sym declares a symbol column.
func Sym(name string) Column { return Column{Name: name, Sym: true} }

// Schema is an ordered list of columns.
type Schema []Column

// Col returns the position of the named column, or panics: every name passed
// here is a literal in a test, so a mismatch is a bug in the test.
func (s Schema) Col(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	panic(fmt.Sprintf("core: column %q not in schema %v", name, s))
}

// SymCol is Col for a column read as a symbol: reading a symbol out of a
// non-symbol column is a bug, caught here.
func (s Schema) SymCol(name string) int {
	c := s.Col(name)
	if !s[c].Sym {
		panic(fmt.Sprintf("core: column %q of schema %v is not a symbol column", name, s))
	}
	return c
}

// The schemas of the witness relations as the paper states them: Rbin with a
// parent, Rdoc, and Rroot, the projection of Rbin's parentless rows (the
// roots of single-node sides) on their class and node.
var (
	rbinSchema  = Schema{Int("var1"), Int("var2"), Int("node1"), Int("node2")}
	rdocSchema  = Schema{Int("node"), Sym("strVal")}
	rrootSchema = Schema{Int("var"), Int("node")}
)

// TestWitnessColumns holds the engine's column constants to the schemas.
func TestWitnessColumns(t *testing.T) {
	for _, c := range []struct {
		got, want int
	}{
		{rbinVar1, rbinSchema.Col("var1")}, {rbinVar2, rbinSchema.Col("var2")},
		{rbinNode1, rbinSchema.Col("node1")}, {rbinNode2, rbinSchema.Col("node2")},
		{rbinWidth, len(rbinSchema)},
		{rdocNode, rdocSchema.Col("node")}, {rdocStrVal, rdocSchema.SymCol("strVal")},
		{rdocWidth, len(rdocSchema)},
	} {
		if c.got != c.want {
			t.Errorf("column constant %d, schema position %d", c.got, c.want)
		}
	}
}

// Relation is a schema with its rows: the form the interpreted evaluator
// (EvalConjunctive) takes its atoms in and the reference derivations here
// read the join state as. It holds no operator: the paper hands each
// template's conjunctive query to a SQL engine, and the engine here compiles
// it (cqplan.go).
type Relation struct {
	Schema Schema
	Rows   [][]int64
}

// newRelation creates an empty relation with the given columns.
func newRelation(cols ...Column) *Relation {
	return &Relation{Schema: cols}
}

// Insert appends vals as one row, without copying it. The number of values
// must match the schema.
func (r *Relation) Insert(vals ...int64) {
	if len(vals) != len(r.Schema) {
		panic(fmt.Sprintf("relation: inserting %d values into %d-column schema %v", len(vals), len(r.Schema), r.Schema))
	}
	r.Rows = append(r.Rows, vals)
}

// Len returns the number of rows.
func (r *Relation) Len() int { return len(r.Rows) }

// String renders the relation as a table, rows sorted. Symbol columns render
// as the internal/sym string of their id — the tests that render a relation
// write its symbols there, not in a join state's dictionary — so the text
// does not depend on the ids a process happened to hand out.
func (r *Relation) String() string {
	names := make([]string, len(r.Schema))
	for i, c := range r.Schema {
		names[i] = c.Name
	}
	rows := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		parts := make([]string, len(row))
		for c, v := range row {
			if r.Schema[c].Sym {
				parts[c] = sym.Name(sym.ID(v))
			} else {
				parts[c] = strconv.FormatInt(v, 10)
			}
		}
		rows[i] = strings.Join(parts, " | ")
	}
	sort.Strings(rows)
	return strings.Join(append([]string{strings.Join(names, " | ")}, rows...), "\n")
}

func TestInsertAndSchema(t *testing.T) {
	r := newRelation(Int("docid"), Int("node"), Sym("strVal"))
	r.Insert(1, 2, int64(sym.Intern("Danny Ayers")))
	if r.Len() != 1 {
		t.Fatalf("len = %d", r.Len())
	}
	if r.Schema.Col("node") != 1 {
		t.Errorf("col(node) = %d", r.Schema.Col("node"))
	}
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch did not panic")
		}
	}()
	r.Insert(1)
}

// TestSymValueKind: whether a value is a symbol is its column's to say. String
// renders a symbol column as the interned text and an integer column as the
// number, even where the two hold the same int64; SymCol gives the position of
// a symbol column and refuses an integer one (and, like Col, an unknown name).
func TestSymValueKind(t *testing.T) {
	id := sym.Intern("relation-test-val")
	r := newRelation(Int("n"), Sym("s"))
	r.Insert(int64(id), int64(id))
	if want := fmt.Sprintf("n | s\n%d | relation-test-val", id); r.String() != want {
		t.Errorf("String = %q, want %q", r.String(), want)
	}
	if c := r.Schema.SymCol("s"); c != 1 {
		t.Errorf("SymCol(s) = %d, want 1", c)
	}
	for _, name := range []string{"n", "absent"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SymCol(%q) did not panic", name)
				}
			}()
			r.Schema.SymCol(name)
		}()
	}
}

// referenceMatches evaluates every live template's conjunctive query CQ_T
// for the current document d the way the paper states it (Section 4.4,
// Template.Datalog) — one atom per value join side, structural edge, root
// binding and the query relation RT, handed to the interpreted evaluator
// EvalConjunctive (evalconjunctive_test.go), which picks its own join order —
// and applies the Algorithm-3 window test to the RoutT rows. It reads no
// Stage-1 row: cur is the document's reference rows and prev those of every
// earlier document (demandRows, taken when each was published), looked up
// for the documents the join state holds, and join values are compared as
// strings. It shares nothing with the compiled programs but the
// registration and the state's window bookkeeping.
func referenceMatches(p *Processor, cur rowSets, prev map[xmldoc.DocID]rowSets, d *xmldoc.Document) []Match {
	v := func(i int) string { return fmt.Sprintf("v%d", i) }
	n := func(i int) string { return fmt.Sprintf("n%d", i) }
	var out []Match
	values := map[string]int64{}
	value := func(s string) int64 {
		if _, ok := values[s]; !ok {
			values[s] = int64(len(values))
		}
		return values[s]
	}
	// The relations as witnessRelations and stateRelations lay out Stage 1's,
	// a state row behind its slot.
	relations := func(rs rowSets, slot []int64) (rbin, rdoc, rroot *Relation) {
		lead := Schema{}
		if slot != nil {
			lead = Schema{Int("slot")}
		}
		with := func(s Schema) *Relation { return newRelation(append(slices.Clone(lead), s...)...) }
		rbin, rdoc, rroot = with(rbinSchema), with(rdocSchema), with(rrootSchema)
		for row := range rs.bin {
			if row[rbinVar1] == noParent {
				rroot.Insert(append(slices.Clone(slot), row[rbinVar2], row[rbinNode2])...)
			} else {
				rbin.Insert(append(slices.Clone(slot), row[:]...)...)
			}
		}
		for row := range rs.doc {
			rdoc.Insert(append(slices.Clone(slot), row.n, value(row.s))...)
		}
		return rbin, rdoc, rroot
	}
	rbinW, rdocW, rrootW := relations(cur, nil)
	rbin, rdoc, rroot := relations(rowSets{}, []int64{0})
	for _, slot := range p.state.order {
		b, dc, rt := relations(prev[p.state.recs[slot].id], []int64{int64(slot)})
		rbin.Rows, rdoc.Rows, rroot.Rows = append(rbin.Rows, b.Rows...), append(rdoc.Rows, dc.Rows...), append(rroot.Rows, rt.Rows...)
	}
	for _, t := range p.templateList {
		var atoms []Atom
		for k, e := range t.VJ {
			s := fmt.Sprintf("s%d", k)
			atoms = append(atoms,
				Atom{Name: "Rdoc", Rel: rdoc, Vars: []string{"slot", n(e[0]), s}},
				Atom{Name: "RdocW", Rel: rdocW, Vars: []string{n(e[1]), s}})
		}
		for _, e := range t.StructEdges(Left) {
			atoms = append(atoms, Atom{Name: "Rbin", Rel: rbin,
				Vars: []string{"slot", v(e[0]), v(e[1]), n(e[0]), n(e[1])}})
		}
		for _, e := range t.StructEdges(Right) {
			atoms = append(atoms, Atom{Name: "RbinW", Rel: rbinW,
				Vars: []string{v(e[0]), v(e[1]), n(e[0]), n(e[1])}})
		}
		if t.SingleLeft {
			atoms = append(atoms, Atom{Name: "Rroot", Rel: rroot,
				Vars: []string{"slot", v(t.LeftRoot), n(t.LeftRoot)}})
		}
		if t.SingleRight {
			atoms = append(atoms, Atom{Name: "RrootW", Rel: rrootW,
				Vars: []string{v(t.RightRoot), n(t.RightRoot)}})
		}
		// An RT row is one instance: its query, its window key (by index
		// into keys) and its variable vector.
		rtCols, head := []string{"qid", "key"}, []string{"qid", "key", "slot"}
		for i := 0; i < t.N; i++ {
			rtCols, head = append(rtCols, v(i)), append(head, n(i))
		}
		rt := newRelation(intCols(rtCols...)...)
		var keys []windowKey
		for _, g := range t.vecList {
			for _, c := range classesOf(g) {
				keys = append(keys, c.key)
				for _, qid := range c.qids {
					row := []int64{int64(qid), int64(len(keys) - 1)}
					for _, v := range g.vars {
						row = append(row, int64(v))
					}
					rt.Insert(row...)
				}
			}
		}
		atoms = append(atoms, Atom{Name: "RT", Rel: rt, Vars: rtCols})

		for _, row := range EvalConjunctive(atoms, head).Rows {
			key := keys[row[1]]
			prev := &p.state.recs[row[2]]
			if !p.windowOK(key, prev, d) {
				continue
			}
			bindings := make([]xmldoc.NodeID, t.N)
			for i := range bindings {
				bindings[i] = xmldoc.NodeID(row[3+i])
			}
			var m Match
			orientKey(&m, t, key.swapped, prev.id, prev.ts, bindings, d)
			m.Query = QueryID(row[0])
			out = append(out, m)
		}
	}
	sortMatches(out)
	return out
}

// sortMatches is the reference for the canonical order: the matches
// themselves sorted under matchCmp.
func sortMatches(ms []Match) {
	slices.SortFunc(ms, func(a, b Match) int { return matchCmp(&a, &b) })
}

// churnTrace turns a query list and a document stream into a replayable
// trace: the first half of the queries is subscribed up front, and every
// third document is preceded by unsubscribing the oldest live query and
// subscribing the next unused one, so vector groups, live variable pairs and
// the state indexes all churn between documents.
func churnTrace(queries []*xscl.Query, docs []*xmldoc.Document) workload.Trace {
	half := len(queries) / 2
	tr := workload.Trace{Initial: queries[:half]}
	oldest, next := 0, half
	for i, d := range docs {
		ev := workload.TraceEvent{Doc: d}
		if i%3 == 2 && next < len(queries) {
			ev.Unsubscribe = []int{oldest}
			ev.Subscribe = []*xscl.Query{queries[next]}
			oldest, next = oldest+1, next+1
		}
		tr.Events = append(tr.Events, ev)
	}
	return tr
}

// TestCompiledPlanMatchesReference holds the compiled Stage-2 programs over
// Stage 1's rows to the interpreted reference over rows derived without
// Stage 1 (replayAgainstReference), which never reads the vector-group trie,
// document by document, with Stage 1 run ahead on 1 and 4 goroutines
// (stage1Ahead; under the race detector, Stage-1 workers beside the ordered
// Consume). The traces cover multi-value-join templates with shared
// endpoints (workload.PaperScale), single-node sides (the k=1 queries of
// workload.RandomWorkload), deep sides, JOIN instances in both orientations,
// ROWS and time windows, a value join on the root of a multi-node side, a
// first value join below a branch node, and Register/Unregister between
// documents.
func TestCompiledPlanMatchesReference(t *testing.T) {
	flat := workload.DefaultRandomFlat()
	shapes := []*xscl.Query{
		xscl.MustParse("S//item->x[.//a->v][.//b->u] FOLLOWED BY{v=w AND u=z, ROWS 3} S//item->y[.//c->w][.//d->z]"),
		xscl.MustParse("S//item->x[.//a->v] JOIN{v=w, ROWS 2} S//item->y[.//b->w]"),
		xscl.MustParse("S//a->v FOLLOWED BY{v=w AND v=z, 30} S//item->y[.//c->w][.//d->z]"),
		xscl.MustParse("S//item->y[.//c->w][.//d->z] JOIN{w=v AND z=v, 30} S//a->v"),
		xscl.MustParse("S//item->x[.//a->v] FOLLOWED BY{x=y AND v=w, 40} S//item->y[.//b->w]"),
		xscl.MustParse("S//item->x[.//a->v] JOIN{x=w, ROWS 4} S//item->y[.//b->w]"),
	}
	traces := map[string]workload.Trace{}

	rng := rand.New(rand.NewSource(17))
	tr := flat.Trace(rng, 12, 40, true)
	tr.Initial = append(tr.Initial, shapes...)
	traces["flat"] = tr

	rng = rand.New(rand.NewSource(18))
	traces["deep"] = workload.DefaultRandomDeep().Trace(rng, 10, 30, true)

	// A template whose first value join lies below a branch node under the
	// block root, so the head join is followed by that node's structural
	// atom, over documents that carry both branches.
	rng = rand.New(rand.NewSource(20))
	branch := workload.Trace{Initial: []*xscl.Query{xscl.MustParse(
		"S//item->x[./m0->a[./l0->v][./l1->u]][./m1->b[./l0->o][./l1->k]] " +
			"FOLLOWED BY{v=w AND u=z AND o=g AND k=h, 30} S//item->y[.//l0->w][.//l1->z][.//l0->g][.//l1->h]")}}
	for i := 1; i <= 24; i++ {
		b := xmldoc.NewBuilder(xmldoc.DocID(i), xmldoc.Timestamp(i), "item")
		for _, m := range []string{"m0", "m1"} {
			mid := b.Element(0, m, "")
			for _, l := range []string{"l0", "l1"} {
				b.Element(mid, l, fmt.Sprint("val", rng.Intn(2)))
			}
		}
		branch.Events = append(branch.Events, workload.TraceEvent{Doc: b.Build()})
	}
	traces["branch"] = branch

	ps := workload.PaperScale{Leaves: 5, MaxK: 4, Theta: 0.2, Window: 6, ValuePool: 5}
	rng = rand.New(rand.NewSource(19))
	traces["paperscale"] = churnTrace(ps.Queries(rng, 60), ps.Stream(rng, 36))

	for name, tr := range traces {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/%s", name, comboName(workers)), func(t *testing.T) {
				rows := replayAgainstReference(t, workers, tr)
				if rows == 0 {
					t.Fatal("the trace produced no RoutT row: nothing was compared")
				}
			})
		}
	}

	// The traces must reach every way a program starts: a head key of
	// two-parent endpoints, on a template that anchors a branch node below
	// its block root right after the first value join, and a head key on a
	// side root. No query makes a four-position template with a two-parent
	// head key: a two-node side keeps its root only when the root is
	// joined, and the canonical order puts the left root first, so that
	// join is the template's first and it is on a side root. The count is
	// logged; FuzzTrieChurn builds one.
	p := NewProcessor(Config{})
	for _, tr := range traces {
		for _, q := range tr.Initial {
			p.MustRegister(q)
		}
		for _, ev := range tr.Events {
			for _, q := range ev.Subscribe {
				p.MustRegister(q)
			}
		}
	}
	kinds := map[string]int{}
	for _, tmpl := range p.templateList {
		l, r := tmpl.VJ[0][0], tmpl.VJ[0][1]
		switch {
		case tmpl.Parent[l] < 0 || tmpl.Parent[r] < 0:
			kinds["side-root key"]++
		case tmpl.N == len(headKey{}):
			kinds["two-parent key, four positions"]++
		case tmpl.Parent[tmpl.Parent[l]] >= 0 || tmpl.Parent[tmpl.Parent[r]] >= 0:
			kinds["two-parent key, anchor after the head"]++
		default:
			kinds["two-parent key on the block roots"]++
		}
	}
	t.Logf("%d templates: %v", len(p.templateList), kinds)
	for _, k := range []string{"two-parent key, anchor after the head", "side-root key"} {
		if kinds[k] == 0 {
			t.Errorf("no template with a %s in the traces", k)
		}
	}
}

// replayAgainstReference replays tr through a processor, comparing each
// document's matches with referenceMatches computed from reference rows the
// processor's Stage 1 never wrote: the live demands' projections of the
// naive matcher's witnesses of their blocks (demandRows, over a registry
// rebuilt from the live queries after churn), which Stage 1's rows must
// contain. Stage 1 of each churn-free run of events runs ahead on workers
// goroutines. It returns the number of matches compared.
func replayAgainstReference(t *testing.T, workers int, tr workload.Trace) int {
	p := NewProcessor(Config{})
	var ids []QueryID
	live := map[QueryID]*xscl.Query{}
	register := func(q *xscl.Query) {
		ids = append(ids, p.MustRegister(q))
		live[ids[len(ids)-1]] = q
	}
	for _, q := range tr.Initial {
		register(q)
	}
	prev := map[xmldoc.DocID]rowSets{}
	total := 0
	for i := 0; i < len(tr.Events); {
		for _, u := range tr.Events[i].Unsubscribe {
			p.MustUnregister(ids[u])
			delete(live, ids[u])
		}
		for _, q := range tr.Events[i].Subscribe {
			register(q)
		}
		var qs []*xscl.Query
		for _, id := range ids {
			if q := live[id]; q != nil {
				qs = append(qs, q)
			}
		}
		ref := refOf(t, qs)
		docs := []*xmldoc.Document{tr.Events[i].Doc}
		for j := i + 1; j < len(tr.Events) && len(tr.Events[j].Unsubscribe)+len(tr.Events[j].Subscribe) == 0; j++ {
			docs = append(docs, tr.Events[j].Doc)
		}
		for k, r := range stage1Ahead(p, "S", docs, workers) {
			d := docs[k]
			cur := demandRows(p, ref, d)
			if rows, _ := recordRows(r); !rows.contains(cur) {
				t.Fatalf("event %d (doc %d): Stage 1's rows %v lack some of the demanded %v", i+k, d.ID, rows, cur)
			}
			want := harnessRecs(referenceMatches(p, cur, prev, d))
			got := harnessRecs(p.Consume(r).Slice())
			prev[d.ID] = cur
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("event %d (doc %d): compiled program diverges from the reference\ngot:  %v\nwant: %v",
					i+k, d.ID, got, want)
			}
			total += len(got)
		}
		i += len(docs)
	}
	return total
}

// TestValueJoinOnSideRootUnderViewMat is the regression test for a panic the
// interpreted Section-5 rewriting had: a value join on the root of a
// multi-node side has no edge to fold into RL/RR (index out of range [-1]
// building the atoms). The compiled program serves such a join from the pair
// relation instead.
func TestValueJoinOnSideRootUnderViewMat(t *testing.T) {
	p := NewProcessor(Config{})
	p.MustRegister(xscl.MustParse("S//a->x[./b->y] FOLLOWED BY{x=z AND y=w, 100} S//c->z[./d->w]"))
	d1, err := xmldoc.ParseString("<r><a>k<b>v</b></a></r>", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := xmldoc.ParseString("<r><c>k<d>v</d></c></r>", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	p.Process("S", d1)
	if ms := p.Process("S", d2); len(ms) != 1 {
		t.Errorf("%d matches, want 1", len(ms))
	}
}

// paperScaleSlice is the fixed input of the counted-work ceilings: the
// benchmark's paper_scale shape (2 000 subscriptions over 8-leaf items,
// value pool 3 000, window 200) from the in-tree generator, window full.
func paperScaleSlice(measured int) (*Processor, []*xmldoc.Document) {
	c := workload.PaperScale{Leaves: 8, MaxK: 5, Theta: 0.2, Window: 200, ValuePool: 3000}
	rng := rand.New(rand.NewSource(1))
	p := NewProcessor(Config{})
	for _, q := range c.Queries(rng, 2000) {
		p.MustRegister(q)
	}
	docs := c.Stream(rng, int(c.Window)+measured)
	for _, d := range docs[:c.Window] {
		p.Process("S", d)
	}
	return p, docs[c.Window:]
}

// TestCompiledPlanCountedWorkCeiling bounds the compiled programs' counted
// work on paperScaleSlice: index entries visited per RoutT row produced. The
// programs, which walk the vector-group trie behind one build of every
// value join's pairs and enter a template only where the pairs of every
// value join of one of its groups share a previous document's state slot
// modulo 64, read 1.13 per row (2 225 probes for 1 977 rows; the pair build
// counts the endpoint rows it reads and the pairs it keeps), 1.07 while
// view joins read RL and RR (3.9 when side-root templates ran
// whole and a key tuple had only to be present in the document, 8.3 when
// every template the head key named was entered, 17.6 when each template
// walked its own first join) and must stay within 1.25 times that: 1.3. The
// interpreted evaluator
// the programs replaced key-encoded 10 478 rows into its hash joins per row
// on the same slice (measured at its last commit by counting in
// hashJoinArena, probeJoin and BuildIndex). The counts
// repeat exactly for a fixed input, so the test pins that too.
func TestCompiledPlanCountedWorkCeiling(t *testing.T) {
	// ceiling is the bound on probes per row.
	const ceiling = 1.3
	t.Run(comboName(0), func(t *testing.T) {
		count := func() (probes, rows int64) {
			p, docs := paperScaleSlice(60)
			before := p.Stats()
			for _, d := range docs {
				p.Process("S", d)
			}
			after := p.Stats()
			return after.CQProbes - before.CQProbes, after.CQRows - before.CQRows
		}
		probes, rows := count()
		if rows == 0 {
			t.Fatal("no RoutT row produced")
		}
		perRow := float64(probes) / float64(rows)
		t.Logf("%d probes for %d rows: %.1f per row", probes, rows, perRow)
		if perRow > ceiling {
			t.Errorf("%d probes for %d rows: %.1f per row, want <= %.1f", probes, rows, perRow, float64(ceiling))
		}
		if p2, r2 := count(); p2 != probes || r2 != rows {
			t.Errorf("counts do not repeat: %d/%d then %d/%d", probes, rows, p2, r2)
		}
	})
}

// TestPublishAllocCeiling bounds the allocations per document of the publish
// path, as a count and — on every case but "rss stage1" — as bytes.
// Both are the same on every machine, so a regression fails here and not in a
// timing comparison. Each case runs its stream (generator seeds 1 and 8)
// through a processor that has processed a pass already, so
// templates, join state, Stage-2 buffers and pools are warm; stage1 measures
// RunStage1 alone, the others RunStage1 and Consume, which is the whole path
// up to the ordered result: writing it out is its reader's one allocation (the
// engine facade's, under TestEnginePublishAllocCeiling in the root package),
// and an intermediate copy made here would show. The deep case is the
// benchmark's deep_filter shape — 546 single-block filters and 54 joins over
// 265-node feeds, of which a document triggers a few percent — so a Stage 1
// whose cost follows the registered count fails here. The cases with the
// generators' own windows replay one stream and expire nothing in the
// measured pass (the RSS queries use INF, the paper-scale window outlasts its
// 150 items); a replayed document keeps its id and timestamp and is merged as
// a document of its own; "rss window" is the plateau regime of the benchmark's
// rss_window — every query's window cut to 100, the warm pass and the
// measured pass consecutive 400-item segments of one stream — so the state
// merge and window expiry (State.GC, at least three collections in the pass)
// are inside the ceiling. "paper heavy" is DefaultPaperScale with its window
// full: 300 subscriptions, five warm passes of 100 documents, then 100 more,
// each building more value-join pairs (about 5 000) than the floor of
// retained storage, so every buffer Stage 2 keeps across documents is past
// the floor and must follow the workload (retention): dropped after each
// document, they cost 32.4 allocations and 2.0 MB per document. The
// both-stage cases consume every document, so the
// records are recycled (Merge hands each result the storage of a freed slot)
// and cost nothing; the stage1 cases drop their results, and each document
// pays for a record of its own. Both passes run under GOMAXPROCS(1): a pooled object put back
// on a processor that a later GOMAXPROCS(1) retires is found by no Get, and a
// case would log one of two readings. The cases log 19.0, 7.7, 5.0, 6.9, 37.9
// and 7.2 allocations and 2.29, 1.01, 0.11, 10.8, 19.0 and 7.3 KB per
// document ("rss window" copies about 3.8 join values per document into the
// state's dictionary, whatever an earlier run saw); a ceiling is at most 1.25
// times what its case logged when the ceiling was set.
func TestPublishAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not fixed under the race detector (race_test.go)")
	}
	type generator interface {
		Queries(*rand.Rand, int) []*xscl.Query
		Stream(*rand.Rand, int) []*xmldoc.Document
	}
	for _, tc := range []struct {
		name           string
		gen            generator
		queries, items int
		window         int64 // 0: as generated
		warm           int   // warm passes (windowed cases; 0: one)
		pairs          int   // premise: each measured document builds more value-join pairs
		stage1         bool
		ceiling        float64
		bytesCeiling   float64 // 0: count only
	}{
		{"rss stage1", workload.DefaultRSS(), 300, 400, 0, 0, 0, true, 35, 0},
		{"rss per-document", workload.DefaultRSS(), 300, 400, 0, 0, 0, false, 13, 2160},
		{"rss window per-document", workload.DefaultRSS(), 300, 400, 100, 0, 0, false, 5, 700},
		{"scale per-document", workload.DefaultPaperScale(), 800, 150, 0, 0, 0, false, 12, 15360},
		{"deep stage1", workload.DefaultDeepFeed(), 600, 60, 0, 0, 0, true, 48, 30950},
		{"paper heavy per-document", workload.DefaultPaperScale(), 300, 100, 500, 5, retainFloor, false, 9, 9140},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewProcessor(Config{})
			for _, q := range tc.gen.Queries(rand.New(rand.NewSource(1)), tc.queries) {
				if tc.window > 0 {
					q.Window = tc.window
				}
				p.MustRegister(q)
			}
			// A windowed case's passes are consecutive segments of the
			// stream (timestamps keep rising); the others replay one.
			warm, segments := max(1, tc.warm), 1
			if tc.window > 0 {
				segments = warm + 1
			}
			stream := tc.gen.Stream(rand.New(rand.NewSource(8)), segments*tc.items)
			next, pairs := 0, 0 // pairs: the fewest a document of the pass built
			pass := func() {
				pairs = math.MaxInt
				for _, d := range stream[next : next+tc.items] {
					p.Consume(p.RunStage1("S", d))
					pairs = min(pairs, len(p.pre.vals)/pairWidth)
				}
				next = (next + tc.items) % len(stream)
			}
			if tc.stage1 {
				pass()
				pass = func() {
					for _, d := range stream {
						p.RunStage1("S", d)
					}
				}
			}
			// As testing.AllocsPerRun measures, with the bytes beside the
			// count. One processor from the warm pass on, so the pools the
			// measured pass draws from are the ones the warm pass filled.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			for range warm {
				pass()
			}
			gcsBefore := p.Stats().WindowGCs
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			pass()
			runtime.ReadMemStats(&after)
			allocs := float64(after.Mallocs-before.Mallocs) / float64(tc.items)
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(tc.items)
			t.Logf("%.1f allocations, %.0f bytes per document", allocs, bytes)
			if tc.pairs > 0 && pairs <= tc.pairs {
				t.Fatalf("test premise: a measured document built %d value-join pairs, want more than %d", pairs, tc.pairs)
			}
			if allocs > tc.ceiling {
				t.Errorf("%.1f allocations per document, want <= %.0f", allocs, tc.ceiling)
			}
			if tc.bytesCeiling > 0 && bytes > tc.bytesCeiling {
				t.Errorf("%.0f bytes allocated per document, want <= %.0f", bytes, tc.bytesCeiling)
			}
			if gcs := p.Stats().WindowGCs - gcsBefore; tc.window > 0 && gcs < 3 {
				t.Errorf("%d window collections in the measured pass, want >= 3", gcs)
			}
		})
	}
}

// BenchmarkPublishPaperHeavy times a publish, RunStage1 then Consume, on the
// shape of TestPublishAllocCeiling's "paper heavy" case: 300
// DefaultPaperScale subscriptions, whose 500-unit window is full after the
// 500 documents run before the clock starts, so every timed document builds
// about 5 000 value-join pairs, past the floor of retained storage, and
// expires one document. No document is replayed.
func BenchmarkPublishPaperHeavy(b *testing.B) {
	const warm = 500
	c := workload.DefaultPaperScale()
	p := NewProcessor(Config{})
	for _, q := range c.Queries(rand.New(rand.NewSource(1)), 300) {
		p.MustRegister(q)
	}
	stream := c.Stream(rand.New(rand.NewSource(8)), warm+b.N)
	for _, d := range stream[:warm] {
		p.Consume(p.RunStage1("S", d))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, d := range stream[warm:] {
		p.Consume(p.RunStage1("S", d))
	}
}

// TestStage1WorkFollowsTriggeredPatterns pins what Stage 1 pays for: on the
// deep_filter shape, registering ten times more filters whose topic never
// occurs in a document moves neither the counted assembly work
// (Stats.PatternsTriggered, Stats.WitnessProbes) nor the allocations of
// RunStage1. Counts, so no clock; the allocation comparison allows 5% for a
// pooled match result lost to a collection during one of the two passes.
// (internal/yfilter's TestAssemblyWorkBound bounds the probes themselves by
// the triggered patterns' candidates and witnesses.)
func TestStage1WorkFollowsTriggeredPatterns(t *testing.T) {
	c := workload.DefaultDeepFeed()
	stream := c.Stream(rand.New(rand.NewSource(8)), 40)
	measure := func(never int) (triggered, probes int64, allocs float64) {
		p := NewProcessor(Config{})
		rng := rand.New(rand.NewSource(1))
		for _, q := range c.Queries(rng, 600) {
			p.MustRegister(q)
		}
		for i := 0; i < never; i++ {
			p.MustRegister(c.Filter(rng, c.Topics+i))
		}
		for _, d := range stream {
			p.Process("S", d)
		}
		st := p.Stats()
		allocs = testing.AllocsPerRun(1, func() {
			for _, d := range stream {
				p.RunStage1("S", d)
			}
		}) / float64(len(stream))
		return st.PatternsTriggered, st.WitnessProbes, allocs
	}
	tr1, pr1, al1 := measure(0)
	tr10, pr10, al10 := measure(6000)
	t.Logf("600 subscriptions: %d triggered, %d probes, %.1f allocations per document; with 6 000 never-matching filters more: %d, %d, %.1f",
		tr1, pr1, al1, tr10, pr10, al10)
	if tr1 == 0 || pr1 == 0 {
		t.Fatal("test premise: some pattern is triggered")
	}
	if tr10 != tr1 || pr10 != pr1 {
		t.Errorf("counted Stage-1 work moved with the registered set: %d/%d triggered, %d/%d probes", tr1, tr10, pr1, pr10)
	}
	if al10 > 1.05*al1 && !raceEnabled {
		t.Errorf("%.1f allocations per document with 6 600 patterns against %.1f with 600", al10, al1)
	}
}

// TestStage1RowsInRegistrationOrder holds RunStage1, which visits only the
// triggered patterns, to a scan of every live pattern in registration order
// (the order the witness relations' rows — item registration order — and the
// single-block matches come in), after churn has revived patterns under
// their old Stage-1 ids: on the deep_filter shape, where nearly every
// triggered pattern carries single-block queries, and on the paper-scale
// shape, where every pattern is a row item's.
func TestStage1RowsInRegistrationOrder(t *testing.T) {
	deep, ps := workload.DefaultDeepFeed(), workload.DefaultPaperScale()
	for _, tc := range []struct {
		name    string
		queries []*xscl.Query
		stream  []*xmldoc.Document
	}{
		{"deep feed", deep.Queries(rand.New(rand.NewSource(1)), 600), deep.Stream(rand.New(rand.NewSource(8)), 40)},
		{"paper scale", ps.Queries(rand.New(rand.NewSource(1)), 600), ps.Stream(rand.New(rand.NewSource(8)), 40)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewProcessor(Config{})
			var qids []QueryID
			for _, q := range tc.queries {
				qids = append(qids, p.MustRegister(q))
			}
			for i := 0; i < len(tc.queries); i += 3 {
				p.MustUnregister(qids[i])
			}
			for i := 0; i < len(tc.queries); i += 6 {
				p.MustRegister(tc.queries[i])
			}
			live := livePatterns(p)
			rows := 0
			for _, d := range tc.stream {
				got := p.RunStage1("S", d)
				res := p.xp.MatchDocument("S", d)
				want := buildRec(d, func(r *Stage1Result) {
					for _, pi := range live {
						r.addWitnesses(pi, res)
					}
				})
				res.Release()
				for i, rel := range [][2][][]int64{{binRows(&got.rec), binRows(&want.rec)}, {docRows(&got.rec), docRows(&want.rec)}} {
					if !slices.EqualFunc(rel[0], rel[1], slices.Equal) {
						t.Fatalf("document %d, relation %d: rows\n%v\nfull scan in registration order\n%v", d.ID, i, rel[0], rel[1])
					}
					rows += len(rel[0])
				}
				// Element by element: a pooled result's empty list is not
				// nil, and a fresh one's is.
				if !slices.EqualFunc(got.singles, want.singles, func(a, b Match) bool { return reflect.DeepEqual(a, b) }) {
					t.Fatalf("document %d: single-block matches %v, full scan %v", d.ID, got.singles, want.singles)
				}
			}
			if rows == 0 {
				t.Fatal("test premise: the documents produce witness rows")
			}
		})
	}
}

// BenchmarkTriggeredOrder orders 185 triggered patterns — what a document of
// the benchmark's paper_scale script triggered while Stage 1 assembled every
// block pattern — by registration number:
// packed integer keys (triggerOrder) against the comparator that looks both
// patterns up per comparison.
func BenchmarkTriggeredOrder(b *testing.B) {
	const n = 185
	rng := rand.New(rand.NewSource(1))
	p := &Processor{byYID: make([]*patternInfo, 4*n)}
	for i, seq := range rng.Perm(len(p.byYID)) {
		p.byYID[i] = &patternInfo{seq: int64(seq)}
	}
	trig := make([]yfilter.PatternID, n)
	for i, yid := range rng.Perm(len(p.byYID))[:n] {
		trig[i] = yfilter.PatternID(yid)
	}
	work := make([]yfilter.PatternID, n)
	b.Run("packed keys", func(b *testing.B) {
		var keys []uint64
		for i := 0; i < b.N; i++ {
			keys = p.triggerOrder(keys, trig)
		}
	})
	b.Run("comparator", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(work, trig)
			slices.SortFunc(work, func(a, b yfilter.PatternID) int { return cmp.Compare(p.byYID[a].seq, p.byYID[b].seq) })
		}
	})
}
