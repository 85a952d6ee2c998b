package core

import (
	"slices"

	"repro/internal/xpath"
)

// A pattern is dormant when Stage 1 need not assemble it: it has no
// single-block query, and every item it demands — a structural edge (the
// root of a single-node side is a parentless one), a string-value node — a
// strictly smaller live pattern of its
// family (the patterns with its root's step path) demands too, under the same
// class names, at a node some homomorphism maps onto the pattern's. A
// homomorphism h from Q to P maps Q's nodes to P's keeping step paths and
// parents, so every witness of P restricted through h is a witness of Q. A
// row is its class names and its nodes: Q writes the item's row for the
// restricted witness under the names P would, so Q writes every row P would,
// and by induction on pattern size every row is still written by a pattern
// that is awake. A demand of Q in another filter class names its rows
// differently and covers nothing of P's. Whether a pattern is dormant is a
// function of the live patterns and their demands alone — a pattern with no
// demand yet is dormant — and it is monotone: an item x gains can only wake x
// and put larger patterns of its family to sleep, an item it loses only the
// reverse. settle re-derives exactly those before the next document.

// settle re-derives the dormancy a change to x's demand items can move: x's
// own, when x is live, and that of each larger pattern of its family whose
// signature holds x's.
func (p *Processor) settle(x *patternInfo, gained bool) {
	for _, pi := range p.families[x.pathIDs[0]] {
		if pi == x && pi.dormant == gained ||
			pi != x && pi.dormant != gained && len(pi.singles) == 0 && len(pi.pathIDs) > len(x.pathIDs) && x.sig&^pi.sig == 0 {
			p.setDormant(pi, p.coverable(pi))
		}
	}
}

// setDormant takes a pattern out of the Stage-1 engine or puts it back.
func (p *Processor) setDormant(pi *patternInfo, dormant bool) {
	if pi.dormant == dormant {
		return
	}
	pi.dormant = dormant
	p.xp.SetLive(pi.yid, !dormant)
	if dormant {
		p.dormant++
	} else {
		p.dormant--
	}
}

// joinFamily files a new pattern, dormant until it has a demand or a
// single-block query, under its root's path id; leaveFamily takes a
// removed one out. A removed pattern demands nothing (its last demand's
// release settled the patterns it covered), so nothing else moves.
func (p *Processor) joinFamily(pi *patternInfo) {
	for _, id := range pi.pathIDs {
		pi.sig |= 1 << (uint64(id) * 0x9e3779b97f4a7c15 >> 58)
	}
	p.families[pi.pathIDs[0]] = append(p.families[pi.pathIDs[0]], pi)
	p.setDormant(pi, true)
}

func (p *Processor) leaveFamily(pi *patternInfo) {
	root := pi.pathIDs[0]
	if fam := removeFirst(p.families[root], pi); len(fam) > 0 {
		p.families[root] = fam
	} else {
		delete(p.families, root)
	}
	if pi.dormant {
		p.dormant--
	}
}

// coverable reports whether pi may be dormant: it has no single-block query
// and each of its demand items is covered. Equal ids of an edge's parents
// put both at one step path, so mapping the children maps the parents; a
// parentless edge has noParent for both, and mapping its node is the rule.
func (p *Processor) coverable(pi *patternInfo) bool {
	if len(pi.singles) > 0 {
		return false
	}
	for _, e := range pi.edges {
		if !p.covered(pi, func(q *patternInfo) bool {
			return slices.ContainsFunc(q.edges, func(f binItem) bool { return f.id == e.id && mapsOnto(q, f.n[1], pi, e.n[1]) })
		}) {
			return false
		}
	}
	for _, n := range pi.strNodes {
		if !p.covered(pi, func(q *patternInfo) bool {
			return slices.ContainsFunc(q.strNodes, func(m int32) bool { return mapsOnto(q, m, pi, n) })
		}) {
			return false
		}
	}
	return true
}

// covered reports whether a strictly smaller pattern of pi's family
// demands the item.
func (p *Processor) covered(pi *patternInfo, demands func(q *patternInfo) bool) bool {
	for _, q := range p.families[pi.pathIDs[0]] {
		if len(q.pathIDs) < len(pi.pathIDs) && q.sig&^pi.sig == 0 && demands(q) {
			return true
		}
	}
	return false
}

// mapsOnto reports whether a homomorphism from q to pi takes q's node qn to
// pi's node pn. Equal path ids put both at the same depth and fix the path
// above them; each other child of a node on that path must map somewhere
// under its image.
func mapsOnto(q *patternInfo, qn int32, pi *patternInfo, pn int32) bool {
	if !embeds(q, q.pat.Nodes[qn], pi, pi.pat.Nodes[pn]) {
		return false
	}
	for qn != 0 {
		qp, pp := q.pat.Nodes[qn].ParentIndex, pi.pat.Nodes[pn].ParentIndex
		for _, c := range q.pat.Nodes[qp].Children {
			if c.Index != int(qn) && !embedsUnder(q, c, pi, pi.pat.Nodes[pp]) {
				return false
			}
		}
		qn, pn = int32(qp), int32(pp)
	}
	return true
}

// embeds reports whether q's subtree at qn maps into pi's subtree at pn with
// qn onto pn; embedsUnder whether it maps onto some child of pn.
func embeds(q *patternInfo, qn *xpath.PatternNode, pi *patternInfo, pn *xpath.PatternNode) bool {
	if q.pathIDs[qn.Index] != pi.pathIDs[pn.Index] {
		return false
	}
	for _, c := range qn.Children {
		if !embedsUnder(q, c, pi, pn) {
			return false
		}
	}
	return true
}

func embedsUnder(q *patternInfo, qn *xpath.PatternNode, pi *patternInfo, pn *xpath.PatternNode) bool {
	return slices.ContainsFunc(pn.Children, func(c *xpath.PatternNode) bool { return embeds(q, qn, pi, c) })
}
