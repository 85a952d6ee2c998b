package core

import (
	"cmp"
	"slices"
	"strings"
	"time"

	"repro/internal/sym"
	"repro/internal/xmldoc"
)

// Stage 2 runs on the goroutine that calls Consume: one executor (the
// processor's cqExec) evaluates every live template in registration order
// against read-only inputs — the join state, the current document's record,
// the per-document views (stage2Shared) and the templates' compiled programs
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
// template, its compiled program runs over the shared views, the
// per-template tail of Algorithm 4. The matches stay in the executor's emit
// buffer for collectMatches.
//
//mmqjp:nondet wall-clock stats timing (output-invisible)
func (p *Processor) evalTemplates(r *Stage1Result) {
	if len(p.templateList) == 0 {
		return
	}
	pre := &p.pre
	pre.reset()
	if !p.prepareViews(r, pre) {
		return
	}
	ex := &p.ex
	ex.p, ex.cur, ex.d, ex.pre = p, &r.rec, r.doc, pre
	ex.probes, ex.rows = 0, 0
	// The pair relation is built before the clock starts, so its one-time
	// build lands in Stats.Rvj, not in CQ.
	for _, t := range p.templateList {
		if t.needRvj {
			pre.sharedRvj(p.state, &r.rec, &p.stats)
			break
		}
	}
	t0 := time.Now()
	for _, t := range p.templateList {
		ex.run(t.prog)
		t.runs++
	}
	p.stats.CQ += time.Since(t0)
	p.stats.CQProbes += ex.probes
	p.stats.CQRows += ex.rows
	p.stats.WitnessPlans += int64(len(p.templateList))
	// The executor outlives the document; its inputs must not.
	ex.cur, ex.d, ex.pre = nil, nil, nil
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

	syms []sym.ID // prepareViews' scratch: the common strings
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
// build to stats. A pair takes its slot from the posting list that named
// the previous document's row.
//
//mmqjp:nondet wall-clock stats timing (output-invisible)
func (pre *stage2Shared) sharedRvj(s *State, cur *docRec, stats *Stats) {
	t0 := time.Now()
	vals := pre.rvjVals
	for _, row := range cur.rdoc {
		for _, ref := range s.postings(sym.ID(row[rdocStrVal])) {
			dt := s.recs[ref.slot].rdoc[ref.row]
			vals = append(vals, int64(ref.slot), dt[rdocNode], row[rdocNode], dt[rdocStrVal])
		}
	}
	pre.rvjVals = vals
	pre.rvj = headRows(pre.rvj, vals, len(rvjSchema))
	pre.rvjByDoc.build(pre.rvj, 0)
	stats.Rvj += time.Since(t0)
}

// prepareViews computes the shared prefix of Algorithm 4 into pre for the
// document Stage 1 gave r. RL is read off the join state: for each common
// string in sorted-symbol order, its posting list and each record's Rbin
// index by node2 (symbol ids are process-global, so the order is identical
// for every engine configuration within a process — only enumeration order
// depends on it, the output leaves through Matches.sort regardless). It
// reports false when no string is shared with the join state (no template
// can match).
//
//mmqjp:nondet wall-clock stats timing (output-invisible)
func (p *Processor) prepareViews(r *Stage1Result, pre *stage2Shared) bool {
	// STR: distinct string values common to RdocW and Rdoc (line 2).
	t0 := time.Now()
	s := p.state
	syms := pre.syms[:0]
	for _, row := range r.rec.rdoc {
		if id := sym.ID(row[rdocStrVal]); s.HasSym(id) {
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

	// RL: per string s, σ_strVal=s(Rdoc) ⋈_{node=node2} Rbin (lines 3-7).
	t1 := time.Now()
	vals := pre.rlVals
	for _, id := range syms {
		vals = s.appendRL(vals, id)
	}
	pre.rlVals = vals
	pre.rl = headRows(pre.rl, vals, len(rlSchema))
	pre.rlByDoc.build(pre.rl, 0)
	p.stats.RL += time.Since(t1)

	// RR: σ_strVal∈STR(RdocW) ⋈ RbinW on node2 (line 8). A node's string
	// value is in STR when the state holds it.
	t2 := time.Now()
	vals = pre.rrVals
	for _, row := range r.rec.bin {
		if id, ok := r.docSym(row[rbinNode2]); ok && s.HasSym(id) {
			vals = append(append(vals, row...), int64(id))
		}
	}
	pre.rrVals = vals
	pre.rr = headRows(pre.rr, vals, len(rlSchema)-1)
	pre.rrBySym.build(pre.rr, rrStrVal)
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
