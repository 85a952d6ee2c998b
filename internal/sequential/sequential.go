// Package sequential implements the paper's baseline: one-query-at-a-time
// evaluation of the FOLLOWED BY / JOIN operators ("Sequential" in the
// figures of Section 6).
//
// The baseline shares Stage 1 with MMQJP — the experiments of the paper
// measure join processing cost, so both systems consume the same witnesses —
// but Stage 2 is a nested-loop strategy whose outer loop iterates over every
// registered query and whose inner loops pair the current document's
// witnesses with every stored witness of the query's other block, checking
// each value-join predicate by string comparison. There is no sharing of
// storage or computation between queries beyond the witness store itself.
package sequential

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/xmldoc"
	"repro/internal/xpath"
	"repro/internal/xscl"
	"repro/internal/yfilter"
)

// QueryID identifies a registered query.
type QueryID int64

// Match mirrors core.Match for the fields the baseline produces.
type Match struct {
	Query               QueryID
	LeftDoc, RightDoc   xmldoc.DocID
	LeftTS, RightTS     xmldoc.Timestamp
	LeftRoot, RightRoot xmldoc.NodeID
}

// storedWitness is one witness of one pattern in one past document.
type storedWitness struct {
	doc      xmldoc.DocID
	ts       xmldoc.Timestamp
	seq      int64 // arrival index, for tuple-based windows
	bindings []xmldoc.NodeID
	// strVals[i] is the string value of bindings[i] (pattern node i),
	// captured at processing time so past documents need not be retained.
	strVals []string
}

// queryPlan is the per-query evaluation plan: the pattern ids of its blocks
// and, per predicate, the pattern node indexes whose string values must be
// equal.
type queryPlan struct {
	id         QueryID
	op         xscl.OpKind
	window     int64
	windowKind xscl.WindowKind
	left       yfilter.PatternID
	right      yfilter.PatternID
	leftVJ     []int32 // pattern node index per predicate, left block
	rightVJ    []int32 // pattern node index per predicate, right block
}

// Processor is the sequential baseline engine.
type Processor struct {
	xp *yfilter.Engine
	// queries lists the live queries in id order; nextID is the id the next
	// Register issues (ids are never reused).
	queries []*queryPlan
	nextID  QueryID
	// plansByP refcounts, per distinct pattern, the live join-query block
	// references; the witness store of a pattern whose count reaches zero
	// is reclaimed.
	plansByP map[yfilter.PatternID]int

	// store holds, per distinct pattern, the witnesses of all previous
	// documents.
	store map[yfilter.PatternID][]storedWitness

	maxFiniteWindow int64
	maxCountWindow  int64
	anyInfWindow    bool
	nextSeq         int64

	joinTime time.Duration
	matches  int64
	docs     int64
}

// NewProcessor returns an empty baseline processor.
func NewProcessor() *Processor {
	return &Processor{
		xp:       yfilter.NewEngine(),
		plansByP: map[yfilter.PatternID]int{},
		store:    map[yfilter.PatternID][]storedWitness{},
	}
}

// NumQueries returns the number of live (registered, not unregistered)
// queries.
func (p *Processor) NumQueries() int { return len(p.queries) }

// JoinTime returns the cumulative wall-clock time spent in per-query join
// evaluation (the quantity the paper's figures report for Sequential).
func (p *Processor) JoinTime() time.Duration { return p.joinTime }

// NumDocs returns the number of documents processed since the last
// ResetStats.
func (p *Processor) NumDocs() int64 { return p.docs }

// NumMatches returns the number of matches emitted since the last
// ResetStats.
func (p *Processor) NumMatches() int64 { return p.matches }

// ResetStats zeroes the timers and counters.
func (p *Processor) ResetStats() { p.joinTime = 0; p.matches = 0; p.docs = 0 }

// Register adds a query.
func (p *Processor) Register(q *xscl.Query) (QueryID, error) {
	qid := p.nextID
	p.nextID++
	if q.Op == xscl.OpNone {
		lp, _ := q.Left.NormalizedFullyBound()
		p.queries = append(p.queries, &queryPlan{
			id: qid, op: q.Op, left: p.xp.Register(lp), right: -1,
		})
		return qid, nil
	}
	lp, lmap := q.Left.NormalizedFullyBound()
	rp, rmap := q.Right.NormalizedFullyBound()
	plan := &queryPlan{
		id: qid, op: q.Op, window: q.Window, windowKind: q.WindowKind,
		left:  p.xp.Register(lp),
		right: p.xp.Register(rp),
	}
	for _, pr := range q.Preds {
		ln := q.Left.VarNode(pr.LeftVar)
		rn := q.Right.VarNode(pr.RightVar)
		plan.leftVJ = append(plan.leftVJ, int32(lmap[ln.Index]))
		plan.rightVJ = append(plan.rightVJ, int32(rmap[rn.Index]))
	}
	p.queries = append(p.queries, plan)
	p.plansByP[plan.left]++
	p.plansByP[plan.right]++
	p.noteWindow(q.Window, q.WindowKind)
	return qid, nil
}

// noteWindow folds one join query's window into the GC maxima (shared by
// Register and the Unregister recompute).
func (p *Processor) noteWindow(window int64, kind xscl.WindowKind) {
	switch {
	case window == xscl.WindowInf:
		p.anyInfWindow = true
	case kind == xscl.WindowCount:
		if window > p.maxCountWindow {
			p.maxCountWindow = window
		}
	default:
		if window > p.maxFiniteWindow {
			p.maxFiniteWindow = window
		}
	}
}

// MustRegister is Register, panicking on error.
func (p *Processor) MustRegister(q *xscl.Query) QueryID {
	id, err := p.Register(q)
	if err != nil {
		panic(err)
	}
	return id
}

// Unregister removes a query. The witness store of a pattern no surviving
// join query reads is reclaimed, window maxima are recomputed from the
// survivors, and unregistering the last query empties the store entirely.
// Query ids are never reused.
func (p *Processor) Unregister(id QueryID) error {
	i, ok := slices.BinarySearchFunc(p.queries, id, func(pl *queryPlan, id QueryID) int { return cmp.Compare(pl.id, id) })
	if !ok {
		return fmt.Errorf("sequential: unknown query id %d", id)
	}
	plan := p.queries[i]
	p.queries = slices.Delete(p.queries, i, i+1)
	if plan.op != xscl.OpNone {
		for _, pid := range []yfilter.PatternID{plan.left, plan.right} {
			if p.plansByP[pid]--; p.plansByP[pid] == 0 {
				delete(p.plansByP, pid)
				delete(p.store, pid)
			}
		}
	}
	p.maxFiniteWindow, p.maxCountWindow, p.anyInfWindow = 0, 0, false
	for _, pl := range p.queries {
		if pl.op != xscl.OpNone {
			p.noteWindow(pl.window, pl.windowKind)
		}
	}
	return nil
}

// Process evaluates all queries against the incoming document, one query at
// a time, and appends the document's witnesses to the store.
func (p *Processor) Process(stream string, d *xmldoc.Document) []Match {
	p.docs++
	res := p.xp.MatchDocument(stream, d)
	// Every witness is copied out of the result, so it goes back to the
	// pool, and its walk memo with it, when the document is done.
	defer res.Release()

	// Current witnesses per pattern (computed once; Stage 1 is shared).
	cur := map[yfilter.PatternID][]xpath.Witness{}
	witnessesOf := func(id yfilter.PatternID) []xpath.Witness {
		if id < 0 {
			return nil
		}
		if ws, ok := cur[id]; ok {
			return ws
		}
		// The slab is the match result's scratch: keep a copy.
		slab, n := res.Bindings(id)
		ws := make([]xpath.Witness, n)
		if n > 0 {
			nv := len(slab) / n
			bindings := slices.Clone(slab)
			for i := range ws {
				ws[i].Bindings = bindings[i*nv : (i+1)*nv : (i+1)*nv]
			}
		}
		cur[id] = ws
		return ws
	}

	var out []Match
	t0 := time.Now()
	for _, plan := range p.queries {
		if plan.op == xscl.OpNone {
			for _, w := range witnessesOf(plan.left) {
				out = append(out, Match{
					Query:   plan.id,
					LeftDoc: d.ID, RightDoc: d.ID,
					LeftTS: d.Timestamp, RightTS: d.Timestamp,
					LeftRoot: w.Bindings[0], RightRoot: w.Bindings[0],
				})
			}
			continue
		}
		// Current document as the right block: pair with stored left
		// witnesses.
		rws := witnessesOf(plan.right)
		if len(rws) > 0 {
			for _, sw := range p.store[plan.left] {
				if !p.windowOK(plan, sw, d) {
					continue
				}
				for _, rw := range rws {
					if p.predsMatch(plan, sw, rw, d) {
						out = append(out, Match{
							Query:   plan.id,
							LeftDoc: sw.doc, RightDoc: d.ID,
							LeftTS: sw.ts, RightTS: d.Timestamp,
							LeftRoot: sw.bindings[0], RightRoot: rw.Bindings[0],
						})
					}
				}
			}
		}
		// For the symmetric JOIN, also pair the current document as
		// the left block with stored right-block witnesses.
		if plan.op == xscl.OpJoin {
			lws := witnessesOf(plan.left)
			if len(lws) > 0 {
				for _, sw := range p.store[plan.right] {
					if !p.windowOK(plan, sw, d) {
						continue
					}
					for _, lw := range lws {
						if p.predsMatchSwapped(plan, lw, sw, d) {
							out = append(out, Match{
								Query:   plan.id,
								LeftDoc: d.ID, RightDoc: sw.doc,
								LeftTS: d.Timestamp, RightTS: sw.ts,
								LeftRoot: lw.Bindings[0], RightRoot: sw.bindings[0],
							})
						}
					}
				}
			}
		}
	}
	// The loops above emit each query's matches in witness-store order,
	// which is arrival order; the document's result leaves in the join
	// processor's canonical order — query, then left and right document id,
	// then the block roots — so the two agree whatever order the caller's
	// document ids arrive in.
	slices.SortStableFunc(out, matchCmp)
	p.joinTime += time.Since(t0)
	p.matches += int64(len(out))

	// Store the current document's witnesses for every pattern that any
	// join query reads.
	for pid := range p.plansByP {
		for _, w := range witnessesOf(pid) {
			sw := storedWitness{
				doc: d.ID, ts: d.Timestamp, seq: p.nextSeq,
				bindings: w.Bindings,
				strVals:  make([]string, len(w.Bindings)),
			}
			for i, b := range w.Bindings {
				sw.strVals[i] = d.StringValue(b)
			}
			p.store[pid] = append(p.store[pid], sw)
		}
	}
	p.nextSeq++
	p.gc(d.Timestamp)
	return out
}

// matchCmp orders matches by query, left and right document id and block
// roots.
func matchCmp(a, b Match) int {
	if c := cmp.Compare(a.Query, b.Query); c != 0 {
		return c
	}
	if c := cmp.Compare(a.LeftDoc, b.LeftDoc); c != 0 {
		return c
	}
	if c := cmp.Compare(a.RightDoc, b.RightDoc); c != 0 {
		return c
	}
	if c := cmp.Compare(a.LeftRoot, b.LeftRoot); c != 0 {
		return c
	}
	return cmp.Compare(a.RightRoot, b.RightRoot)
}

// windowOK applies the per-query window constraint: Δ is the timestamp
// difference for time windows, the arrival-index difference for tuple
// windows.
func (p *Processor) windowOK(plan *queryPlan, sw storedWitness, d *xmldoc.Document) bool {
	var delta int64
	if plan.windowKind == xscl.WindowCount {
		delta = p.nextSeq - sw.seq
	} else {
		delta = int64(d.Timestamp - sw.ts)
	}
	if plan.op == xscl.OpJoin {
		return 0 <= delta && delta <= plan.window
	}
	return 0 < delta && delta <= plan.window
}

// predsMatch checks every value-join predicate of the plan between a stored
// left witness and a current right witness.
func (p *Processor) predsMatch(plan *queryPlan, sw storedWitness, rw xpath.Witness, d *xmldoc.Document) bool {
	for i := range plan.leftVJ {
		if sw.strVals[plan.leftVJ[i]] != d.StringValue(rw.Bindings[plan.rightVJ[i]]) {
			return false
		}
	}
	return true
}

// predsMatchSwapped checks predicates with the current document as the left
// block and a stored witness as the right block.
func (p *Processor) predsMatchSwapped(plan *queryPlan, lw xpath.Witness, sw storedWitness, d *xmldoc.Document) bool {
	for i := range plan.leftVJ {
		if d.StringValue(lw.Bindings[plan.leftVJ[i]]) != sw.strVals[plan.rightVJ[i]] {
			return false
		}
	}
	return true
}

// gc drops every stored witness that fell out of every window (both the time
// and the tuple dimension), wherever it sits in the store, on every document:
// the store holds exactly the witnesses no cutoff has passed, as the join
// state holds exactly the documents, so a late document finds the same
// partners in both.
func (p *Processor) gc(now xmldoc.Timestamp) {
	if p.anyInfWindow || (p.maxFiniteWindow == 0 && p.maxCountWindow == 0) {
		return
	}
	cutoffTS := xmldoc.Timestamp(int64(math.MaxInt64))
	if p.maxFiniteWindow > 0 {
		cutoffTS = now - xmldoc.Timestamp(p.maxFiniteWindow)
	}
	cutoffSeq := int64(math.MaxInt64)
	if p.maxCountWindow > 0 {
		cutoffSeq = p.nextSeq - p.maxCountWindow
	}
	for pid, sws := range p.store {
		p.store[pid] = slices.DeleteFunc(sws, func(sw storedWitness) bool {
			return sw.ts < cutoffTS && sw.seq < cutoffSeq
		})
	}
}
