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
// — the join state, the current document's record, the document's
// value-join pairs (stage2Shared), the join index and the templates'
// compiled programs and vector groups — writing one run per frame and
// passing window class into the processor's result. The result is read as a
// merge of the window classes, each with its runs, and the sorted
// single-block matches (Matches), and is written once, by whoever reads it.

// evalTemplates evaluates the live templates against the document, the
// per-template tail of Algorithm 4: it builds the document's value-join
// pairs, and every template is entered through the join index from the
// pairs of its first value join. The runs stay in the processor's result
// for Matches.collect, which sorts them, so the order templates are entered
// in never reaches the output. Its two phases, the pair build (Stats.Rvj)
// and CQ, are timed from start, one clock reading each; it returns the
// last.
//
//mmqjp:nondet wall-clock stats timing (output-invisible)
func (p *Processor) evalTemplates(r *Stage1Result, start time.Time) time.Time {
	if len(p.templateList) == 0 {
		return start
	}
	ex := &p.ex
	ex.p, ex.cur, ex.d, ex.pre = p, &r.rec, r.doc, &p.pre
	ex.probes, ex.rows, ex.plans = 0, 0, 0
	ex.doc++
	paired := ex.buildPairs()
	t0 := time.Now()
	p.stats.Rvj += t0.Sub(start)
	t1 := t0
	if paired {
		ex.runHeads(&p.joins)
		t1 = time.Now()
		p.stats.CQ += t1.Sub(t0)
	}
	p.stats.CQProbes += ex.probes
	p.stats.CQRows += ex.rows
	p.stats.MatchRuns += int64(len(p.result.runs))
	p.stats.WitnessPlans += ex.plans
	// The executor outlives the document; its inputs must not.
	ex.cur, ex.d, ex.pre = nil, nil, nil
	return t1
}

// collect completes the document's result from the runs Stage 2 wrote and
// the single-block matches: each sorted, and the runs listed by window
// class, ready to be merged by whoever reads them.
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
	// Each class's runs, in the runs' order: a counting sort by class.
	order := slices.Grow(ms.order[:0], len(ms.runs))[:len(ms.runs)]
	for i := range ms.runs {
		ms.classes[ms.runs[i].class].nRuns++
	}
	at := 0
	for i := range ms.classes {
		c := &ms.classes[i]
		c.runs = order[at : at : at+c.nRuns]
		at += c.nRuns
		ms.n += len(c.qids) * c.nRuns
	}
	for i := range ms.runs {
		c := &ms.classes[ms.runs[i].class]
		c.runs = append(c.runs, int32(i))
	}
	ms.order = order
	return ms
}

// Matches is one document's result in the canonical total order, before
// anyone has written it out: a merge of sorted sources. Stage 2 writes one
// run per frame and passing window class — the frame's match without its
// query, standing for one match per query id of the class — and the merge
// takes each window class with its runs as one source; the document's
// single-block matches are one more. It belongs to the processor that
// returned it and is valid until that processor's next Consume, Register or
// Unregister (the classes alias the window classes' query ids); a reader
// walks it once, Start then Stretch until done, into the representation it
// needs (the engine facade its compact matches, Slice a []Match), which is
// the only time the result is materialised.
//
// The walk keeps a heap of one head per source ordered by (query, run): the
// runs are sorted by keyCmp, a class's queries ascend, two singles of one
// query differ at most in their root, and no query is in both a run and the
// singles. The matches of one query within one class differ only in their
// key, so a class hands out a range of its queries times all of its runs,
// query-major and run-minor, and that is matchCmp's order (DESIGN.md,
// "Stage 2 per document"). A query may lie in two classes — a JOIN's normal
// and swapped orientations — and there the walk goes run by run, each run
// in its keyCmp rank, so the order never assumes classes are disjoint. The
// order is total down to the binding vector, so it is a pure function of
// match content. The walk hands out stretches — a source's matches before
// the next head of another source, found by binary search — so it pays a
// heap step per stretch, not per match, and a class's frames take one.
type Matches struct {
	runs []matchRun
	// classes are the window classes with a run, in the order Stage 2 first
	// wrote to them (which the walk never reads); order backs their run
	// lists.
	classes []runClass
	order   []int32
	singles []Match // sorted by (query, root)
	n       int
	heap    []sourceHead
	// singlesPos is the walk's place in the singles.
	singlesPos int
	keep       retention // follows the runs
}

// matchRun is the matches of one frame and one window class: one per query
// id of the class, each equal to key with that query (key.Query is not
// read).
type matchRun struct {
	class int32 // in Matches.classes
	key   Match
}

// runClass is a window class that passed the window for at least one frame
// of the document: its query ids, ascending, and its runs, ascending (in
// keyCmp order). pos and r are the walk's place in them: the query at pos,
// and at that query, the run at r.
type runClass struct {
	qids   []QueryID
	runs   []int32
	nRuns  int
	pos, r int32
}

// sourceHead is a source's next match in a walk: its query, its run src
// (len(runs) for the singles) and the source, class index at, or
// len(classes) for the singles.
type sourceHead struct {
	q       QueryID
	src, at int32
}

// Len returns the number of matches.
func (ms *Matches) Len() int { return ms.n }

// Start starts a walk of the matches in canonical order; Stretch reads it.
func (ms *Matches) Start() {
	h := ms.heap[:0]
	for i := range ms.classes {
		c := &ms.classes[i]
		c.pos, c.r = 0, 0
		h = append(h, sourceHead{c.qids[0], c.runs[0], int32(i)})
	}
	if ms.singlesPos = 0; len(ms.singles) > 0 {
		h = append(h, sourceHead{ms.singles[0].Query, int32(len(ms.runs)), int32(len(ms.classes))})
	}
	ms.heap = h
	for i := len(h)/2 - 1; i >= 0; i-- {
		ms.down(i)
	}
}

// Stretch returns the walk's next matches, as many as one source holds
// before any other source's next match, and moves the walk past them; ok is
// false once the walk is done. For a class, the matches are qids × srcs,
// query-major: for each query of qids, Frame(src) with that query for each
// src of srcs. For the singles, singles holds the matches. The slices are
// into the result: read them, do not keep them.
func (ms *Matches) Stretch() (qids []QueryID, srcs []int32, singles []Match, ok bool) {
	if len(ms.heap) == 0 {
		return nil, nil, nil, false
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
	if int(h.at) == len(ms.classes) {
		rest := ms.singles[ms.singlesPos:]
		k := sort.Search(len(rest), func(i int) bool {
			return next != nil && !(sourceHead{q: rest[i].Query, src: h.src}).before(*next)
		})
		singles = rest[:k]
		if ms.singlesPos += k; ms.singlesPos < len(ms.singles) {
			h.q = ms.singles[ms.singlesPos].Query
		} else {
			ms.pop()
		}
		ms.down(0)
		return nil, nil, singles, true
	}
	c := &ms.classes[h.at]
	if c.r == 0 && (next == nil || h.q < next.q) {
		// Every run of the class, for its queries below the next head's.
		rest := c.qids[c.pos:]
		k := len(rest)
		if next != nil {
			k, _ = slices.BinarySearch(rest, next.q)
		}
		qids, srcs = rest[:k], c.runs
		c.pos += int32(k)
	} else {
		// The query lies in another source too: the class's runs at it
		// that come before that source's next match.
		j := c.r + 1
		for int(j) < len(c.runs) && (next == nil || h.q < next.q || c.runs[j] < next.src) {
			j++
		}
		qids, srcs = c.qids[c.pos:c.pos+1], c.runs[c.r:j]
		if int(j) < len(c.runs) {
			h.src, c.r = c.runs[j], j
			ms.down(0)
			return qids, srcs, nil, true
		}
		c.pos, c.r = c.pos+1, 0
	}
	if int(c.pos) < len(c.qids) {
		h.q, h.src = c.qids[c.pos], c.runs[0]
	} else {
		ms.pop()
	}
	ms.down(0)
	return qids, srcs, nil, true
}

// Sources returns the number of sources a reader writes a frame for — one
// per run, then one for the singles if any — and Frame a match of source
// src: all of a source's matches name the same two documents at the same
// timestamps.
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
		qids, srcs, singles, ok := ms.Stretch()
		if !ok {
			return out
		}
		out = append(out, singles...)
		for _, q := range qids {
			for _, src := range srcs {
				m := ms.runs[src].key
				m.Query = q
				out = append(out, m)
			}
		}
	}
}

// reset empties the result for the next document. Its buffers are no longer
// than its runs, plus one, so the runs are the need they are kept by.
func (ms *Matches) reset() {
	clear(ms.runs)
	clear(ms.classes)
	ms.runs, ms.classes = reuse(&ms.keep, ms.runs), kept(&ms.keep, ms.classes)
	ms.order, ms.heap = kept(&ms.keep, ms.order), kept(&ms.keep, ms.heap)
	ms.singles, ms.n = nil, 0
}

// stage2Shared is the document's value-join pair relation, built once per
// document for every template (cqExec.buildPairs) and read-only while the
// templates are evaluated: its rows laid out in vals, pairWidth values a row
// (the pair columns, cqplan.go), and indexed by the previous document's
// state slot and their key shape (pairSlotShape). The current document's own
// rows are read through its record, whose node index Stage 1 built
// (docRec.seal). The processor keeps one (Processor.pre) and resets it for
// each document, so its slices and index are reused.
type stage2Shared struct {
	vals   []int64
	bySlot rowIndex

	held [][2]int64   // buildPairs' scratch: the current nodes' shared values
	keep [2]retention // follows vals and held
}

// reset empties pre for the next document, keeping storage as far as keep
// does; the index goes with the pairs.
func (pre *stage2Shared) reset() {
	pre.vals, pre.held = reuse(&pre.keep[0], pre.vals), reuse(&pre.keep[1], pre.held)
	if pre.vals == nil && cap(pre.bySlot.rows) > 0 {
		pre.bySlot = rowIndex{}
	}
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
