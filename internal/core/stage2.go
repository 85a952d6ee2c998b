package core

import (
	"cmp"
	"slices"
	"strings"
	"time"

	"repro/internal/relation"
	"repro/internal/sym"
	"repro/internal/xmldoc"
)

// Stage 2 runs on the goroutine that calls Consume: one executor (the
// processor's cqExec) evaluates every live template in registration order
// against read-only inputs — the join state, the current witness, the
// per-document indexes (stage2Shared) and the templates' compiled programs
// and vector groups — emitting into one buffer. The result orders that
// buffer and the single-block matches under a total order — a radix sort of
// keys that point into them, ties finished by matchCmp (Matches) — and is
// written once, by whoever reads it.

// emitKeep is the emit-buffer capacity, in matches, the executor keeps
// across documents (≈ 350 KB); a document that grew the buffer beyond it
// takes the buffer with it, so one burst does not stay resident.
const emitKeep = 4096

// keysKeep is the same bound for a result's sort keys and the radix sort's
// second buffer, each key a quarter of a match's size.
const keysKeep = 4 * emitKeep

// evalTemplates evaluates the live templates against the document: per
// template, the compiled program runs in witness-driven order, or RT-driven
// when that plan is forced (Algorithm 1; under view materialization the
// programs read the shared views, which is the per-template tail of
// Algorithm 4). The matches stay in the executor's emit buffer for
// collectMatches.
//
//mmqjp:nondet wall-clock stats timing (output-invisible)
func (p *Processor) evalTemplates(w *CurrentWitness, d *xmldoc.Document) {
	if len(p.templateList) == 0 {
		return
	}
	pre := p.prepareStage2(w)
	if pre == nil {
		return
	}
	ex := &p.ex
	ex.p, ex.w, ex.d, ex.pre = p, w, d, pre
	ex.probes, ex.rows = 0, 0
	// The pair relation is built before the clock starts, so its one-time
	// build lands in Stats.Rvj, not in CQ.
	for _, t := range p.templateList {
		if t.needRvj {
			pre.sharedRvj(p.state, w, &p.stats)
			break
		}
	}
	plan := 0
	if p.cfg.Plan == PlanRTDriven {
		plan = 1
	}
	t0 := time.Now()
	for _, t := range p.templateList {
		ex.run(t.progs[plan])
		t.runs[plan]++
	}
	p.stats.CQ += time.Since(t0)
	p.stats.CQProbes += ex.probes
	p.stats.CQRows += ex.rows
	if plan == 1 {
		p.stats.RTPlans += int64(len(p.templateList))
	} else {
		p.stats.WitnessPlans += int64(len(p.templateList))
	}
	// The executor outlives the document; its inputs must not.
	ex.w, ex.d, ex.pre = nil, nil, nil
}

// resetEmit empties the emit buffer and the result view for the next
// document.
func (p *Processor) resetEmit() {
	p.result.reset()
	if cap(p.ex.out) > emitKeep {
		p.ex.out = nil
	}
	p.ex.out = p.ex.out[:0]
}

// collectMatches builds the document's result: the single-block matches and
// the emit buffer, ordered where they lie.
func (p *Processor) collectMatches(singles []Match) *Matches {
	ms := &p.result
	ms.keys = slices.Grow(ms.keys, len(singles)+len(p.ex.out))
	ms.add(singles)
	ms.add(p.ex.out)
	ms.sort()
	return ms
}

// Matches is one document's result in the canonical total order, before
// anyone has written it out: ordered keys over the buffers the matches were
// emitted into. It belongs to the processor that returned it and is valid
// until that processor consumes its next document; a reader walks it once —
// At(0) to At(Len()-1) — into the representation it needs (the engine facade
// its public matches, Slice a []Match), which is the only time the result is
// materialised.
//
// The order is total down to the binding vector (matchCmp), so it is a pure
// function of match content.
type Matches struct {
	keys []orderKey
	tmp  []orderKey // the radix sort's second buffer
	bufs [][]Match
	// vary has a bit set wherever some key's leftDoc (vary[0]) or query
	// (vary[1]) differs from the first key's: the bytes the radix sort
	// passes over. add accumulates it, so finding them costs no pass.
	vary [2]uint64
}

// orderKey is the pointer-free sort key of one match: the two leading fields
// of the canonical order and where the match lies. The radix sort reads only
// the first two; only keys that tie on both read the matches themselves.
type orderKey struct {
	query    QueryID
	leftDoc  xmldoc.DocID
	buf, idx int32
}

// digit is byte shift/8 of the key's leftDoc (field 0) or query (field 1),
// sign bit flipped so that unsigned byte order is the signed order.
func (k *orderKey) digit(field int, shift uint) byte {
	v := uint64(k.leftDoc)
	if field == 1 {
		v = uint64(k.query)
	}
	return byte((v ^ 1<<63) >> shift)
}

// Len returns the number of matches.
func (ms *Matches) Len() int { return len(ms.keys) }

// At returns the i-th match in canonical order. The pointer is into the
// processor's buffers: read it, do not keep it.
func (ms *Matches) At(i int) *Match {
	k := ms.keys[i]
	return &ms.bufs[k.buf][k.idx]
}

// Slice copies the matches, in order, into a new slice the caller owns (nil
// when there are none).
func (ms *Matches) Slice() []Match {
	if len(ms.keys) == 0 {
		return nil
	}
	out := make([]Match, len(ms.keys))
	for i := range out {
		out[i] = *ms.At(i)
	}
	return out
}

func (ms *Matches) reset() {
	if cap(ms.keys) > keysKeep {
		ms.keys = nil
	}
	if cap(ms.tmp) > keysKeep {
		ms.tmp = nil
	}
	ms.keys = ms.keys[:0]
	clear(ms.bufs)
	ms.bufs = ms.bufs[:0]
	ms.vary = [2]uint64{}
}

// add appends buf's matches, unordered.
func (ms *Matches) add(buf []Match) {
	b := int32(len(ms.bufs))
	ms.bufs = append(ms.bufs, buf)
	for i := range buf {
		m := &buf[i]
		ms.keys = append(ms.keys, orderKey{m.Query, m.LeftDoc, b, int32(i)})
		first := &ms.keys[0]
		ms.vary[0] |= uint64(m.LeftDoc ^ first.leftDoc)
		ms.vary[1] |= uint64(m.Query ^ first.query)
	}
}

// sort applies the canonical total order to the keys: a least-significant-
// digit radix sort on the bytes of (query, leftDoc), leftDoc's low byte
// first, skipping every byte on which all keys agree, then matchCmp on each
// run of keys that tie on both fields. Each pass is stable, so the passes
// compose into the order on the pair. A document whose matches span a few
// hundred queries and documents takes four counting passes. A byte's digits
// differ from the first key's only in the byte's varying bits, so they lie
// in [lo, lo|vary], and only those counters are cleared and summed.
func (ms *Matches) sort() {
	n := len(ms.keys)
	if n < 2 {
		return
	}
	src, dst := ms.keys, slices.Grow(ms.tmp[:0], n)[:n]
	var count [256]uint32
	for d := uint(0); d < 16; d++ {
		field, shift := int(d/8), 8*(d%8)
		vary := byte(ms.vary[field] >> shift)
		if vary == 0 {
			continue
		}
		lo := int(src[0].digit(field, shift) &^ vary)
		used := count[lo : lo+int(vary)+1]
		clear(used)
		for i := range src {
			count[src[i].digit(field, shift)]++
		}
		at := uint32(0)
		for b, c := range used {
			used[b] = at
			at += c
		}
		for i := range src {
			c := &count[src[i].digit(field, shift)]
			dst[*c] = src[i]
			*c++
		}
		src, dst = dst, src
	}
	ms.keys, ms.tmp = src, dst

	tie := func(a, b orderKey) int {
		return matchCmp(&ms.bufs[a.buf][a.idx], &ms.bufs[b.buf][b.idx])
	}
	keys := ms.keys
	for i := 0; i < n; {
		j := i + 1
		for j < n && keys[j].query == keys[i].query && keys[j].leftDoc == keys[i].leftDoc {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(keys[i:j], tie)
		}
		i = j
	}
}

// stage2Shared carries the per-document inputs of the compiled programs,
// computed once per document and read-only during template evaluation, so
// every template probes the same indexes instead of re-indexing the
// document's relations: the current witness by node, the value-join pair
// relation by previous document's slot and, under view materialization, the
// shared views RL (by slot) and RR (by string). The processor keeps one
// (Processor.pre) and resets it for each document, so its slices and indexes
// are reused.
type stage2Shared struct {
	// RbinW by node2 and RrootW by node.
	binWByNode2 rowIndex
	rootWByNode rowIndex

	// rvj is the value-join pair relation (rvjSchema) of the current
	// document — Rdoc ⋈ RdocW on the string value, read off the state's
	// posting lists — with its rows grouped by slot. The
	// basic path builds it up front. Under view materialization only
	// templates with a value join on a side root read it, so it is built
	// on first use (rvjBuilt).
	rvjBuilt bool
	rvj      [][]int64
	rvjByDoc rowIndex
	arena    relation.Arena // this document's rvj rows

	rl      [][]int64 // rlSchema
	rlByDoc rowIndex
	rr      [][]int64 // rlSchema without the slot
	rrBySym rowIndex

	syms []sym.ID // prepareViewMat's scratch: the common strings
}

// reset empties pre for the next document. Its row lists drop what they
// pointed at (the previous document's arena rows, the cached slices' rows);
// one that a burst document grew past witnessKeep goes.
func (pre *stage2Shared) reset() {
	pre.rvjBuilt = false
	pre.arena.Reset()
	for _, rows := range [...]*[][]int64{&pre.rvj, &pre.rl} {
		if clear(*rows); cap(*rows) > witnessKeep {
			*rows = nil
		}
		*rows = (*rows)[:0]
	}
	pre.rr = nil
}

// sharedRvj builds the document's value-join pair relation on first call,
// charging the build to stats.
//
//mmqjp:nondet wall-clock stats timing (output-invisible)
func (pre *stage2Shared) sharedRvj(s *State, w *CurrentWitness, stats *Stats) {
	if pre.rvjBuilt {
		return
	}
	pre.rvjBuilt = true
	t0 := time.Now()
	for _, row := range w.RdocW.Rows {
		for _, ref := range s.postings(sym.ID(row[rdocWStrVal])) {
			dt := s.recs[ref.slot].rdoc[ref.row]
			t := pre.arena.Row(len(rvjSchema))
			t[0], t[1], t[2], t[3] = dt[0], dt[1], row[0], dt[2]
			pre.rvj = append(pre.rvj, t)
		}
	}
	pre.rvjByDoc.build(pre.rvj, 0)
	stats.Rvj += time.Since(t0)
}

// prepareStage2 computes the per-document inputs on the coordinator. It
// returns nil when the document shares no string value with the join state,
// so no template can match.
//
//mmqjp:nondet wall-clock stats timing (output-invisible)
func (p *Processor) prepareStage2(w *CurrentWitness) *stage2Shared {
	pre := &p.pre
	pre.reset()
	if p.cfg.ViewMaterialization {
		if !p.prepareViewMat(w, pre) {
			return nil
		}
	} else {
		pre.sharedRvj(p.state, w, &p.stats)
		if len(pre.rvj) == 0 {
			return nil
		}
	}
	t0 := time.Now()
	pre.binWByNode2.build(w.RbinW.Rows, 3)
	pre.rootWByNode.build(w.RrootW.Rows, 1)
	p.stats.CQ += time.Since(t0)
	return pre
}

// prepareViewMat computes the shared prefix of Algorithm 4 into pre. The
// per-string RL slices come from the view cache, or are computed and cached
// on a miss; the union is concatenated in sorted-symbol order (symbol ids are
// process-global, so the order is identical for every engine configuration
// within a process — only enumeration order depends on it, the output leaves
// through Matches.sort regardless). It reports false when no string is shared
// with the join state (no template can match).
//
//mmqjp:nondet wall-clock stats timing (output-invisible)
func (p *Processor) prepareViewMat(w *CurrentWitness, pre *stage2Shared) bool {
	// STR: distinct string values common to RdocW and Rdoc (line 2).
	t0 := time.Now()
	syms := pre.syms[:0]
	for _, row := range w.RdocW.Rows {
		if id := sym.ID(row[rdocWStrVal]); p.state.HasSym(id) {
			syms = append(syms, id)
		}
	}
	slices.Sort(syms)
	syms = slices.Compact(syms)
	pre.syms = syms
	p.stats.Rvj += time.Since(t0)
	if len(syms) == 0 {
		return false
	}

	// RL slices (lines 3-7).
	t1 := time.Now()
	for _, id := range syms {
		slice, ok := p.cache.Get(id)
		if !ok {
			slice = p.state.SliceEL(id)
			p.cache.Put(id, slice)
		}
		pre.rl = append(pre.rl, slice.Rows...)
	}
	pre.rlByDoc.build(pre.rl, 0)
	p.stats.RL += time.Since(t1)

	// RR: σ_strVal∈STR(RdocW) ⋈ RbinW on node2 (line 8). A node's string
	// value is in STR when the state holds it.
	t2 := time.Now()
	rr := w.rr
	for _, row := range w.RbinW.Rows {
		id, ok := w.docSym(row[3])
		if !ok || !p.state.HasSym(id) {
			continue
		}
		w.arena.Insert(rr, row[0], row[1], row[2], row[3], int64(id))
	}
	w.rrSlices = rr
	pre.rr = rr.Rows
	pre.rrBySym.build(rr.Rows, rrStrVal)
	p.stats.RR += time.Since(t2)

	return true
}

// matchCmp is the canonical total order: the output is identical regardless
// of the order templates and patterns were evaluated in. Ties are broken down
// to the binding vector; fully equal matches are interchangeable.
func matchCmp(a, b *Match) int {
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
