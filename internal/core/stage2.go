package core

import (
	"cmp"
	"slices"
	"sort"
	"strings"
	"time"
)

// Stage 2 runs on the goroutine that calls Consume: one executor (the
// processor's cqExec) evaluates the live templates against read-only inputs
// — the join state, the current document's record, the per-document views
// (stage2Shared), the head index and the templates' compiled programs and
// vector groups — writing one run per frame and passing window class into
// the processor's result. The result is read as a merge of the sorted runs
// and the sorted single-block matches (Matches), and is written once, by
// whoever reads it.

// evalTemplates evaluates the live templates against the document, the
// per-template tail of Algorithm 4: the head join for the headed templates,
// the whole program for the others. The runs stay in the processor's result
// for Matches.collect, which sorts them, so the order templates are entered
// in never reaches the output. Its phases are timed from start; it returns
// the last clock reading.
//
//mmqjp:nondet wall-clock stats timing (output-invisible)
func (p *Processor) evalTemplates(r *Stage1Result, start time.Time) time.Time {
	if len(p.templateList) == 0 {
		return start
	}
	pre := &p.pre
	pre.reset()
	t0, ok := p.prepareViews(r, pre, start)
	if !ok {
		return t0
	}
	// The pair relation is built before CQ's clock starts, so its one-time
	// build lands in Stats.Rvj, not in CQ.
	for _, t := range p.templateList {
		if t.needRvj {
			t0 = pre.sharedRvj(p.state, &r.rec, &p.stats, t0)
			break
		}
	}
	ex := &p.ex
	ex.p, ex.cur, ex.d, ex.pre = p, &r.rec, r.doc, pre
	ex.probes, ex.rows, ex.plans = 0, 0, 0
	ex.doc++
	ex.runHeads(&p.heads)
	for _, t := range p.templateList {
		if !t.headed {
			ex.enter(t)
			ex.step(0)
		}
	}
	t1 := time.Now()
	p.stats.CQ += t1.Sub(t0)
	p.stats.CQProbes += ex.probes
	p.stats.CQRows += ex.rows
	p.stats.MatchRuns += int64(len(p.result.runs))
	p.stats.WitnessPlans += ex.plans
	// The executor outlives the document; its inputs must not.
	ex.cur, ex.d, ex.pre = nil, nil, nil
	return t1
}

// collect completes the document's result from the runs Stage 2 wrote and
// the single-block matches: each sorted, ready to be merged by whoever reads
// them.
func (ms *Matches) collect(singles []Match) *Matches {
	slices.SortFunc(ms.runs, func(a, b matchRun) int { return keyCmp(&a.key, &b.key) })
	slices.SortFunc(singles, func(a, b Match) int {
		if c := cmp.Compare(a.Query, b.Query); c != 0 {
			return c
		}
		return cmp.Compare(a.LeftRoot, b.LeftRoot)
	})
	ms.singles = singles
	ms.n = len(singles)
	for i := range ms.runs {
		ms.n += len(ms.runs[i].qids)
	}
	return ms
}

// Matches is one document's result in the canonical total order, before
// anyone has written it out: a merge of sorted sources. Stage 2 writes one
// run per frame and passing window class — the class's query ids and the
// frame's match without its query — and the document's single-block matches
// are one more source. It belongs to the processor that returned it and is
// valid until that processor's next Consume, Register or Unregister (the
// runs alias the window classes); a reader walks it once, Start then Stretch
// until done, into the representation it needs (the engine facade its
// compact matches, Slice a []Match), which is the only time the result is
// materialised.
//
// The walk keeps a heap of one head per source ordered by (query, source):
// the runs are sorted by keyCmp and each run's queries ascend, two singles
// of one query differ at most in their root, and no query is in both a run
// and the singles, so the walk is matchCmp's order (DESIGN.md, "Stage 2 per
// document"). The order is total down to the binding vector, so it is a
// pure function of match content. The walk hands out stretches — a source's
// matches before the next head of another source, found by binary search —
// so it pays a heap step per stretch, not per match.
type Matches struct {
	runs    []matchRun
	singles []Match // sorted by (query, root)
	n       int
	heap    []sourceHead
}

// matchRun is the matches of one frame and one window class: one per query
// id in qids, each equal to key with that query (key.Query is not read).
type matchRun struct {
	qids []QueryID
	key  Match
}

// sourceHead is a source's next match in a walk: its query and where it
// lies — run src, or the singles when src is len(runs) — at pos.
type sourceHead struct {
	q        QueryID
	src, pos int32
}

// Len returns the number of matches.
func (ms *Matches) Len() int { return ms.n }

// Start starts a walk of the matches in canonical order; Stretch reads it.
func (ms *Matches) Start() {
	h := ms.heap[:0]
	for src := int32(0); int(src) <= len(ms.runs); src++ {
		if q, ok := ms.query(src, 0); ok {
			h = append(h, sourceHead{q, src, 0})
		}
	}
	ms.heap = h
	for i := len(h)/2 - 1; i >= 0; i-- {
		ms.down(i)
	}
}

// Stretch returns the walk's next matches, as many as one source holds
// before any other source's next match, and moves the walk past them; ok is
// false once the walk is done. The source is src: for a run, qids holds the
// stretch's queries, each match being Frame(src) with that query; for the
// singles, singles holds the matches. The slices are into the result: read
// them, do not keep them.
func (ms *Matches) Stretch() (src int, qids []QueryID, singles []Match, ok bool) {
	if len(ms.heap) == 0 {
		return 0, nil, nil, false
	}
	h := &ms.heap[0]
	// The stretch is the source's matches before the least other head.
	var next *sourceHead
	if len(ms.heap) > 1 {
		next = &ms.heap[1]
		if len(ms.heap) > 2 && ms.heap[2].before(*next) {
			next = &ms.heap[2]
		}
	}
	before := func(q QueryID) bool { return next == nil || sourceHead{q: q, src: h.src}.before(*next) }
	var end int32
	if int(h.src) == len(ms.runs) {
		rest := ms.singles[h.pos:]
		k := sort.Search(len(rest), func(i int) bool { return !before(rest[i].Query) })
		singles, end = rest[:k], h.pos+int32(k)
	} else {
		rest := ms.runs[h.src].qids[h.pos:]
		k := sort.Search(len(rest), func(i int) bool { return !before(rest[i]) })
		qids, end = rest[:k], h.pos+int32(k)
	}
	src = int(h.src)
	if q, more := ms.query(h.src, end); more {
		h.q, h.pos = q, end
	} else {
		ms.pop()
	}
	ms.down(0)
	return src, qids, singles, true
}

// Sources returns the number of sources the walk merges — one per run, then
// one for the singles if any — and Frame a match of source src: all of a
// source's matches name the same two documents at the same timestamps.
func (ms *Matches) Sources() int {
	if len(ms.singles) > 0 {
		return len(ms.runs) + 1
	}
	return len(ms.runs)
}

func (ms *Matches) Frame(src int) *Match {
	if src == len(ms.runs) {
		return &ms.singles[0]
	}
	return &ms.runs[src].key
}

// query returns the query of source src's match at pos, false past the
// source's end.
func (ms *Matches) query(src, pos int32) (QueryID, bool) {
	if int(src) == len(ms.runs) {
		if int(pos) < len(ms.singles) {
			return ms.singles[pos].Query, true
		}
		return 0, false
	}
	if qids := ms.runs[src].qids; int(pos) < len(qids) {
		return qids[pos], true
	}
	return 0, false
}

// pop replaces the exhausted head with the heap's last entry.
func (ms *Matches) pop() {
	last := len(ms.heap) - 1
	ms.heap[0] = ms.heap[last]
	ms.heap = ms.heap[:last]
}

// down restores the heap order below entry i.
func (ms *Matches) down(i int) {
	h := ms.heap
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

func (a sourceHead) before(b sourceHead) bool {
	return a.q < b.q || a.q == b.q && a.src < b.src
}

// Slice copies the matches, in order, into a new slice the caller owns (nil
// when there are none).
func (ms *Matches) Slice() []Match {
	if ms.n == 0 {
		return nil
	}
	out := make([]Match, 0, ms.n)
	ms.Start()
	for {
		src, qids, singles, ok := ms.Stretch()
		if !ok {
			return out
		}
		out = append(out, singles...)
		m := *ms.Frame(src)
		for _, q := range qids {
			m.Query = q
			out = append(out, m)
		}
	}
}

// reset empties the result for the next document. A runs or heap buffer a
// burst document grew past recKeep entries goes with it.
func (ms *Matches) reset() {
	clear(ms.runs)
	if cap(ms.runs) > recKeep {
		ms.runs = nil
	}
	if cap(ms.heap) > recKeep {
		ms.heap = nil
	}
	ms.runs, ms.heap = ms.runs[:0], ms.heap[:0]
	ms.singles, ms.n = nil, 0
}

// stage2Shared carries the per-document views the compiled programs read,
// computed once per document and read-only during template evaluation, so
// every template probes the same indexes: the shared views RL (by slot) and
// RR (by string) and the value-join pair relation by previous document's
// slot. The current document's own rows are read through its record, whose
// node indexes Stage 1 built (docRec.seal). The processor keeps one
// (Processor.pre) and resets it for each document, so its slices and
// indexes are reused.
type stage2Shared struct {
	// rvj is the value-join pair relation (rvjSchema) of the current
	// document — Rdoc ⋈ RdocW on the string value, read off the state's
	// posting lists — its values laid out in rvjVals, with its rows grouped
	// by slot. Only templates with a value join on a side root read it, so
	// it is built only when one is live.
	rvj      [][]int64
	rvjVals  []int64
	rvjByDoc rowIndex

	// rl and rr are the views RL (rlSchema) and RR (rlSchema without the
	// slot), their values laid out in rlVals and rrVals.
	rl, rr         [][]int64
	rlVals, rrVals []int64
	rlByDoc        rowIndex
	rrBySym        rowIndex

	ids []int32 // prepareViews' scratch: the common values
}

// reset empties pre for the next document. Its row lists drop what they
// pointed at (the previous document's rows); one that a burst document grew
// past recKeep rows goes, and so does a value buffer grown past as many rows
// of the views.
func (pre *stage2Shared) reset() {
	for _, rows := range [...]*[][]int64{&pre.rvj, &pre.rl, &pre.rr} {
		if clear(*rows); cap(*rows) > recKeep {
			*rows = nil
		}
		*rows = (*rows)[:0]
	}
	for _, vals := range [...]*[]int64{&pre.rvjVals, &pre.rlVals, &pre.rrVals} {
		if cap(*vals) > recKeep*len(rlSchema) {
			*vals = nil
		}
		*vals = (*vals)[:0]
	}
}

// headRows points rows at vals, width values to a row.
func headRows(rows [][]int64, vals []int64, width int) [][]int64 {
	rows = resize(rows, len(vals)/width)
	for i := range rows {
		rows[i] = vals[i*width : (i+1)*width : (i+1)*width]
	}
	return rows
}

// sharedRvj builds the document's value-join pair relation, charging the
// build since t0 to stats and returning the clock reading that ends it. A
// pair takes its slot from the posting list that named the previous
// document's row.
//
//mmqjp:nondet wall-clock stats timing (output-invisible)
func (pre *stage2Shared) sharedRvj(s *State, cur *docRec, stats *Stats, t0 time.Time) time.Time {
	vals := pre.rvjVals
	for _, row := range cur.rdoc {
		for _, ref := range s.postings(int32(row[rdocStrVal])) {
			dt := s.recs[ref.slot].rdoc[ref.row]
			vals = append(vals, int64(ref.slot), dt[rdocNode], row[rdocNode], dt[rdocStrVal])
		}
	}
	pre.rvjVals = vals
	pre.rvj = headRows(pre.rvj, vals, len(rvjSchema))
	pre.rvjByDoc.build(pre.rvj, 0)
	t1 := time.Now()
	stats.Rvj += t1.Sub(t0)
	return t1
}

// prepareViews computes the shared prefix of Algorithm 4 into pre for the
// document Stage 1 gave r, its values resolved. RL is read off the join
// state: for each common value in id order, its posting list and each
// record's Rbin index by node2. The ids are the state's (State.resolve), so
// the order follows the state's history — a restored state may number its
// values differently — and only enumeration order depends on it: the output
// leaves in the canonical order regardless. It reports false when no value is
// shared with the join state (no template can match). RL and RR are built
// only while a live template reads them (Processor.viewReaders). Timed from
// t0; it returns the last clock reading.
//
//mmqjp:nondet wall-clock stats timing (output-invisible)
func (p *Processor) prepareViews(r *Stage1Result, pre *stage2Shared, t0 time.Time) (time.Time, bool) {
	// STR: distinct string values common to RdocW and Rdoc (line 2).
	s := p.state
	ids := pre.ids[:0]
	for _, row := range r.rec.rdoc {
		if id := int32(row[rdocStrVal]); s.HasValue(id) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	pre.ids = ids
	t1 := time.Now()
	p.stats.Rvj += t1.Sub(t0)
	if len(ids) == 0 {
		return t1, false
	}
	if p.viewReaders == 0 {
		return t1, true
	}

	// RL: per string s, σ_strVal=s(Rdoc) ⋈_{node=node2} Rbin (lines 3-7).
	vals := pre.rlVals
	for _, id := range ids {
		vals = s.appendRL(vals, id)
	}
	pre.rlVals = vals
	pre.rl = headRows(pre.rl, vals, len(rlSchema))
	pre.rlByDoc.build(pre.rl, 0)
	t2 := time.Now()
	p.stats.RL += t2.Sub(t1)

	// RR: σ_strVal∈STR(RdocW) ⋈ RbinW on node2 (line 8). A node's string
	// value is in STR when the state holds it.
	vals = pre.rrVals
	for _, row := range r.rec.bin {
		if id, ok := r.docValue(row[rbinNode2]); ok && s.HasValue(id) {
			vals = append(append(vals, row...), int64(id))
		}
	}
	pre.rrVals = vals
	pre.rr = headRows(pre.rr, vals, len(rlSchema)-1)
	pre.rrBySym.build(pre.rr, rrStrVal)
	t3 := time.Now()
	p.stats.RR += t3.Sub(t2)
	return t3, true
}

// matchCmp is the canonical total order: the output is identical regardless
// of the order templates and patterns were evaluated in. Ties are broken down
// to the binding vector; fully equal matches are interchangeable.
func matchCmp(a, b *Match) int {
	if c := cmp.Compare(a.Query, b.Query); c != 0 {
		return c
	}
	return keyCmp(a, b)
}

// keyCmp is matchCmp below the query: the order of a result's runs.
func keyCmp(a, b *Match) int {
	if c := cmp.Compare(a.LeftDoc, b.LeftDoc); c != 0 {
		return c
	}
	if c := cmp.Compare(a.RightDoc, b.RightDoc); c != 0 {
		return c
	}
	if c := cmp.Compare(a.LeftRoot, b.LeftRoot); c != 0 {
		return c
	}
	if c := cmp.Compare(a.RightRoot, b.RightRoot); c != 0 {
		return c
	}
	if c := strings.Compare(templateSig(a.Template), templateSig(b.Template)); c != 0 {
		return c
	}
	return slices.Compare(a.Bindings, b.Bindings)
}

// templateSig is the template tie-break key. The canonical signature — not
// Template.ID — because ids follow allocation order: a template created
// earlier by an unrelated, since unsubscribed query shifts every later id,
// so ids would make the order depend on registration history (and a restored
// snapshot re-registers in a different history than the engine it resumes).
// Signatures are a function of the query alone. nil (a single-block match)
// sorts first.
func templateSig(t *Template) string {
	if t == nil {
		return ""
	}
	return t.Sig
}
