package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/xmldoc"
	"repro/internal/xpath"
	"repro/internal/xscl"
)

// MustUnregister is Unregister, panicking on error.
func (p *Processor) MustUnregister(qid QueryID) {
	if err := p.Unregister(qid); err != nil {
		panic(err)
	}
}

// assertFreshProcessor checks the lifecycle invariant: a processor whose
// queries have all been unregistered is observationally identical to a fresh
// one — templates, queries, patterns, indexes, Stage-2 scratch, join state
// and stats all reclaimed.
func assertFreshProcessor(t *testing.T, p *Processor) {
	t.Helper()
	if n := p.NumQueries(); n != 0 {
		t.Errorf("NumQueries = %d, want 0", n)
	}
	if n := p.NumTemplates(); n != 0 {
		t.Errorf("NumTemplates = %d, want 0", n)
	}
	if len(p.templates) != 0 {
		t.Errorf("template map not empty: %d sigs", len(p.templates))
	}
	if len(p.patterns) != 0 || slices.ContainsFunc(p.byYID, func(pi *patternInfo) bool { return pi != nil }) {
		t.Errorf("pattern registry not empty: %d by key, %v by Stage-1 id", len(p.patterns), p.byYID)
	}
	if len(p.queries) != 0 {
		t.Errorf("%d queries still registered", len(p.queries))
	}
	if p.keyShapes != [numShapes]int{} {
		t.Errorf("live key shapes counted: %v, want none", p.keyShapes)
	}
	if !reflect.DeepEqual(p.joins, joinIndex{}) {
		t.Errorf("join index not reclaimed: %d entries", p.joins.n)
	}
	if !reflect.DeepEqual(p.pre, stage2Shared{}) {
		t.Errorf("Stage-2 scratch not reclaimed: %d pair values kept", cap(p.pre.vals))
	}
	st := p.state
	if bin, doc, root := st.Rows(); st.NumDocs() != 0 || bin != 0 || doc != 0 || root != 0 {
		t.Errorf("join state not reclaimed: %d docs, Rbin %d, Rdoc %d, Rroot %d", st.NumDocs(), bin, doc, root)
	}
	if len(st.recs) != 0 || len(st.lists) != 0 || st.values.n != 0 || st.nextSeq != 0 {
		t.Errorf("join-state records and posting lists not reclaimed")
	}
	if p.stats != (Stats{}) {
		t.Errorf("stats not reclaimed: %+v", p.stats)
	}
	if p.maxFiniteWindow != 0 || p.maxCountWindow != 0 || p.anyInfWindow {
		t.Errorf("window maxima not reclaimed: finite=%d count=%d inf=%v",
			p.maxFiniteWindow, p.maxCountWindow, p.anyInfWindow)
	}
}

// TestUnregisterAllRestoresFreshProcessor subscribes a mixed query set
// (JOIN, FOLLOWED BY, single-block, shared templates), processes documents,
// unregisters everything, and requires the processor to be observationally
// identical to a fresh one — including producing byte-identical output for a
// subsequently re-registered workload.
func TestUnregisterAllRestoresFreshProcessor(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	leafNames := []string{"a", "b", "c"}
	mkQueries := func() []*xscl.Query {
		r := rand.New(rand.NewSource(42))
		qs := []*xscl.Query{
			xscl.MustParse("S//item->x[.//a->v]"), // single-block
		}
		for i := 0; i < 8; i++ {
			op := []string{"FOLLOWED BY", "JOIN"}[i%2]
			qs = append(qs, randomFlatQuery(r, leafNames, 3, int64(5+r.Intn(30)), op))
		}
		return qs
	}
	var docs []*xmldoc.Document
	ts := xmldoc.Timestamp(0)
	for i := 0; i < 60; i++ {
		ts += xmldoc.Timestamp(rng.Intn(3))
		docs = append(docs, randomFlatDoc(rng, xmldoc.DocID(i+1), ts, leafNames, 2))
	}

	p := NewProcessor(Config{})
	var ids []QueryID
	for _, q := range mkQueries() {
		ids = append(ids, p.MustRegister(q))
	}
	for _, d := range docs {
		p.Process("S", d)
	}
	for _, id := range ids {
		p.MustUnregister(id)
	}
	assertFreshProcessor(t, p)

	// Behavioral half of the invariant: the reclaimed processor and a
	// genuinely fresh one must produce byte-identical output for the
	// same subsequent workload. Query ids are never reused, so the
	// comparison normalizes them to registration order.
	fresh := NewProcessor(Config{})
	ord := map[QueryID]QueryID{}
	freshOrd := map[QueryID]QueryID{}
	for i, q := range mkQueries() {
		ord[p.MustRegister(q)] = QueryID(i)
		freshOrd[fresh.MustRegister(q)] = QueryID(i)
	}
	// Template ids are not reused either, so the render keys the
	// template by its canonical signature instead of its ordinal.
	norm := func(ms []Match, m map[QueryID]QueryID) string {
		var sb strings.Builder
		for _, match := range ms {
			sig := ""
			if match.Template != nil {
				sig = match.Template.Sig
			}
			fmt.Fprintf(&sb, "q%d l%d@%d r%d@%d roots(%d,%d) t%q b%v\n",
				m[match.Query], match.LeftDoc, match.LeftTS, match.RightDoc, match.RightTS,
				match.LeftRoot, match.RightRoot, sig, match.Bindings)
		}
		return sb.String()
	}
	for di, d := range docs {
		got := norm(p.Process("S", d), ord)
		want := norm(fresh.Process("S", d), freshOrd)
		if got != want {
			t.Fatalf("reclaimed processor diverges from fresh on doc %d:\nreclaimed:\n%sfresh:\n%s",
				di+1, got, want)
		}
	}
}

// TestUnregisterSharedTemplateKeepsSurvivor removes one of two queries
// sharing a canonical template: the template must survive with only the
// survivor's RT row, and the survivor's matches must equal a fresh
// processor's.
func TestUnregisterSharedTemplateKeepsSurvivor(t *testing.T) {
	// rtRows counts the template's RT rows: one per instance, across its
	// vector groups.
	rtRows := func(tmpl *Template) int {
		n := 0
		for _, g := range tmpl.vecList {
			n += groupSize(g)
		}
		return n
	}
	q1 := xscl.MustParse("S//book->x[.//author->a] FOLLOWED BY{a=b, 1000} S//blog->y[.//author->b]")
	q2 := xscl.MustParse("S//book->x[.//title->a] FOLLOWED BY{a=b, 1000} S//blog->y[.//title->b]")

	p := NewProcessor(Config{})
	id1 := p.MustRegister(q1)
	id2 := p.MustRegister(q2)
	if p.NumTemplates() != 1 {
		t.Fatalf("queries do not share a template: %d", p.NumTemplates())
	}
	tmpl := p.templateList[0]
	if got := rtRows(tmpl); got != 2 {
		t.Fatalf("RT rows = %d, want 2", got)
	}

	p.MustUnregister(id2)
	if p.NumTemplates() != 1 {
		t.Fatalf("shared template reclaimed while a member query survives")
	}
	if got := rtRows(tmpl); got != 1 {
		t.Errorf("RT rows after unregister = %d, want 1", got)
	}
	if p.NumQueries() != 1 {
		t.Errorf("NumQueries = %d, want 1", p.NumQueries())
	}

	fresh := NewProcessor(Config{})
	fid := fresh.MustRegister(q1)
	if fid != 0 || id1 != 0 {
		t.Fatalf("query id mismatch: %d vs %d", id1, fid)
	}
	d1 := xmldoc.PaperD1(1, 100)
	d2 := xmldoc.PaperD2(2, 200)
	p.Process("S", d1)
	fresh.Process("S", d1)
	got := renderMatches(p.Process("S", d2))
	want := renderMatches(fresh.Process("S", d2))
	if got != want || got == "" {
		t.Errorf("survivor output diverges (or is empty):\nchurned:\n%sfresh:\n%s", got, want)
	}
}

// TestUnregisterReclaimsTemplateAndPatterns removes the only query of a
// template: template, vector groups and pattern demands must all be
// reclaimed while unrelated queries are untouched.
func TestUnregisterReclaimsTemplateAndPatterns(t *testing.T) {
	p := NewProcessor(Config{})
	keep := p.MustRegister(xscl.MustParse("S//book->x[.//author->a] FOLLOWED BY{a=b, 1000} S//blog->y[.//author->b]"))
	// Two predicates: a different template and an extra pattern demand.
	drop := p.MustRegister(xscl.MustParse("S//book->x[.//author->a][.//title->t] JOIN{a=b AND t=u, 1000} S//blog->y[.//author->b][.//title->u]"))

	if p.NumTemplates() != 2 {
		t.Fatalf("templates = %d, want 2", p.NumTemplates())
	}
	patternsBefore := len(p.patterns)
	p.MustUnregister(drop)
	if p.NumTemplates() != 1 {
		t.Errorf("templates after unregister = %d, want 1", p.NumTemplates())
	}
	if len(p.patterns) >= patternsBefore {
		t.Errorf("pattern demands not narrowed: %d -> %d", patternsBefore, len(p.patterns))
	}
	_ = keep
}

// TestRegisterFailureLeavesNoTrace checks registration atomicity: a failed
// Register must leave NumTemplates/NumQueries (and everything else
// observable) unchanged, and the rollback path — registerInstance followed
// by unregisterInstance — must restore the exact pre-registration shape.
func TestRegisterFailureLeavesNoTrace(t *testing.T) {
	p := NewProcessor(Config{})
	p.MustRegister(xscl.MustParse("S//book->x[.//author->a] FOLLOWED BY{a=b, 1000} S//blog->y[.//author->b]"))

	type snapshot struct {
		queries, templates, patterns, rt0 int
	}
	snap := func() snapshot {
		rt0 := 0
		for _, tmpl := range p.templateList {
			for _, g := range tmpl.vecList {
				rt0 += groupSize(g)
			}
		}
		return snapshot{
			queries: p.NumQueries(), templates: p.NumTemplates(),
			patterns: len(p.patterns), rt0: rt0,
		}
	}
	before := snap()

	bad := xscl.MustParse("S//item->x[.//a->v] JOIN{v=w, 10} S//item->y[.//a->w]")
	bad.Preds[0].LeftVar = "nope"
	if _, err := p.Register(bad); err == nil {
		t.Fatal("Register accepted a predicate on an unbound variable")
	}
	if after := snap(); after != before {
		t.Errorf("failed Register left a trace: %+v -> %+v", before, after)
	}

	// The rollback path itself: register one instance the way Register
	// does, then tear it down, and require the exact pre-registration
	// shape back (this is what a second-orientation failure triggers).
	good := xscl.MustParse("S//item->x[.//a->v] FOLLOWED BY{v=w, 10} S//item->y[.//a->w]")
	var lf, rf xpath.NormalForm
	lf.Compute(good.Left)
	rf.Compute(good.Right)
	inst, err := p.registerInstance(good, QueryID(999), &lf, &rf, false)
	if err != nil {
		t.Fatal(err)
	}
	p.unregisterInstance(QueryID(999), inst)
	if after := snap(); after != before {
		t.Errorf("registerInstance rollback left a trace: %+v -> %+v", before, after)
	}
}

// TestUnregisterErrors checks id validation and double-unregister.
func TestUnregisterErrors(t *testing.T) {
	p := NewProcessor(Config{})
	id := p.MustRegister(xscl.MustParse("S//a->x FOLLOWED BY{x=y, 10} S//b->y"))
	if err := p.Unregister(QueryID(99)); err == nil {
		t.Error("unknown id accepted")
	}
	if err := p.Unregister(QueryID(-1)); err == nil {
		t.Error("negative id accepted")
	}
	if err := p.Unregister(id); err != nil {
		t.Fatal(err)
	}
	if err := p.Unregister(id); err == nil {
		t.Error("double unregister accepted")
	}
}

// TestUnregisterRecomputesWindows requires the GC window maxima to be
// re-derived from the survivors, so churn does not pin GC to the most
// generous window ever subscribed.
func TestUnregisterRecomputesWindows(t *testing.T) {
	p := NewProcessor(Config{})
	small := p.MustRegister(xscl.MustParse("S//a->x FOLLOWED BY{x=y, 10} S//b->y"))
	big := p.MustRegister(xscl.MustParse("S//a->x FOLLOWED BY{x=y, 100000} S//b->y"))
	inf := p.MustRegister(xscl.MustParse("S//a->x FOLLOWED BY{x=y, INF} S//b->y"))
	rows := p.MustRegister(xscl.MustParse("S//a->x FOLLOWED BY{x=y, ROWS 50} S//b->y"))

	if !p.anyInfWindow || p.maxFiniteWindow != 100000 || p.maxCountWindow != 50 {
		t.Fatalf("maxima: finite=%d count=%d inf=%v", p.maxFiniteWindow, p.maxCountWindow, p.anyInfWindow)
	}
	p.MustUnregister(inf)
	if p.anyInfWindow {
		t.Error("anyInfWindow survives the INF query")
	}
	p.MustUnregister(big)
	if p.maxFiniteWindow != 10 {
		t.Errorf("maxFiniteWindow = %d, want 10", p.maxFiniteWindow)
	}
	p.MustUnregister(rows)
	if p.maxCountWindow != 0 {
		t.Errorf("maxCountWindow = %d, want 0", p.maxCountWindow)
	}
	_ = small
}

// TestChurnDeterminism is the lifecycle determinism requirement: a stream
// processed with publish → GC → publish interleaved with Subscribe and
// Unsubscribe churn must produce, after the churn, byte-identical per-
// document output to a fresh processor holding only the surviving query set.
func TestChurnDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	leafNames := []string{"a", "b", "c", "d"}
	var surviving, churned []*xscl.Query
	for i := 0; i < 6; i++ {
		op := []string{"FOLLOWED BY", "JOIN"}[i%2]
		surviving = append(surviving, randomFlatQuery(rng, leafNames, 3, int64(5+rng.Intn(20)), op))
		churned = append(churned, randomFlatQuery(rng, leafNames, 3, int64(5+rng.Intn(40)), op))
	}
	var docs []*xmldoc.Document
	ts := xmldoc.Timestamp(0)
	for i := 0; i < 160; i++ {
		ts += xmldoc.Timestamp(rng.Intn(3)) // small windows + dense stream: GC active
		docs = append(docs, randomFlatDoc(rng, xmldoc.DocID(i+1), ts, leafNames, 2))
	}
	const churnAt = 80

	// Reference: a fresh sequential processor holding only the
	// surviving queries, fed the whole stream.
	fresh := NewProcessor(Config{})
	for _, q := range surviving {
		fresh.MustRegister(q)
	}
	var ref []string
	for _, d := range docs {
		ref = append(ref, renderMatches(fresh.Process("S", d)))
	}

	p := NewProcessor(Config{})
	for _, q := range surviving {
		p.MustRegister(q)
	}
	var churnIDs []QueryID
	for _, q := range churned {
		churnIDs = append(churnIDs, p.MustRegister(q))
	}
	for _, d := range docs[:churnAt] {
		p.Process("S", d)
	}
	for _, id := range churnIDs {
		p.MustUnregister(id)
	}
	if p.NumQueries() != len(surviving) {
		t.Fatalf("NumQueries = %d, want %d", p.NumQueries(), len(surviving))
	}
	for di, d := range docs[churnAt:] {
		if got := renderMatches(p.Process("S", d)); got != ref[churnAt+di] {
			t.Fatalf("churned processor diverges from fresh on doc %d:\nchurned:\n%sfresh:\n%s",
				churnAt+di+1, got, ref[churnAt+di])
		}
	}
}
