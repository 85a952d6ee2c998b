package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/relation"
	"repro/internal/sym"
	"repro/internal/xmldoc"
)

// Stage-2 evaluation is template-sharded: each new template is assigned to
// the currently least-loaded shard (lowest shard id on ties — round-robin
// while no template has ever been reclaimed), and each shard owns every
// piece of mutable per-template state — the query relations RT, their hash
// indexes, the view cache entries of the strings it owns, and the phase
// stats. Unregistering a template frees its shard slot, and because
// assignment always fills the emptiest shard first, subscription churn
// compacts the assignment instead of skewing it. Workers therefore share no
// mutable data during a Process call: the join state and the current witness
// are read-only inputs, and each worker evaluates only its own shard's
// templates. Matches from all shards are merged under a total order
// (sortMatches), so the output is identical for every worker count,
// including Workers = 1.

// shard is one unit of Stage-2 parallelism.
type shard struct {
	id int
	//mmqjp:shardowned
	templates []*Template // owned templates, in registration order

	//mmqjp:shardowned
	rt map[TemplateID]*relation.Relation // RT per owned template
	//mmqjp:shardowned
	rtIndex map[TemplateID]*relation.Index // index on RT var columns
	//mmqjp:shardowned
	rtDirty map[TemplateID]bool

	// cache holds the Section-5 RL slices of the strings this shard owns
	// (shardOfSym); ownership is stable, so Algorithm-5 maintenance
	// and lookups always land on the same shard.
	//
	//mmqjp:shardowned
	cache *ViewCache

	//mmqjp:shardowned
	stats Stats // Stage-2 phase timings and plan counts for this shard
}

func newShard(id int) *shard {
	return &shard{
		id:      id,
		rt:      map[TemplateID]*relation.Relation{},
		rtIndex: map[TemplateID]*relation.Index{},
		rtDirty: map[TemplateID]bool{},
		cache:   NewViewCache(),
	}
}

// assignShard picks the home shard of a newly created template — the shard
// currently owning the fewest templates, lowest id on ties — and records the
// assignment. With no churn this degenerates to round-robin; under churn it
// refills reclaimed slots, keeping the shards balanced.
//
//mmqjp:shardaccess registration-quiesced; assignment happens inside Register
func (p *Processor) assignShard(t *Template) *shard {
	best := p.shards[0]
	for _, sh := range p.shards[1:] {
		if len(sh.templates) < len(best.templates) {
			best = sh
		}
	}
	p.tmplShard[t.ID] = best.id
	return best
}

// shardOf returns the shard owning a template.
func (p *Processor) shardOf(t *Template) *shard {
	return p.shards[p.tmplShard[t.ID]]
}

// shardOfSym returns the shard owning an interned string's view-cache entry
// (FNV-1a over the 4 id bytes). Symbol ids are stable for the process
// lifetime, so ownership is stable across documents; it need not be stable
// across processes — view caches are never snapshotted.
func (p *Processor) shardOfSym(id sym.ID) *shard {
	if len(p.shards) == 1 {
		return p.shards[0]
	}
	u := uint32(id)
	h := uint32(2166136261)
	for i := 0; i < 4; i++ {
		h ^= (u >> (8 * i)) & 0xff
		h *= 16777619
	}
	return p.shards[h%uint32(len(p.shards))]
}

// runShards invokes f once per shard, concurrently when more than one shard
// is configured. f must touch only its shard's state plus read-only inputs.
func (p *Processor) runShards(f func(*shard)) {
	if len(p.shards) == 1 {
		f(p.shards[0])
		return
	}
	var wg sync.WaitGroup
	for _, sh := range p.shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			f(sh)
		}(sh)
	}
	wg.Wait()
}

// rtAtom returns the RT atom of an owned template, (re)building its index
// when the relation changed since the last document.
func (sh *shard) rtAtom(t *Template) relation.Atom {
	rt := sh.rt[t.ID]
	vcols := make([]string, t.N)
	vars := make([]string, 0, t.N+2)
	vars = append(vars, "qid")
	for i := 0; i < t.N; i++ {
		vcols[i] = fmt.Sprintf("v%d", i)
		vars = append(vars, vcols[i])
	}
	vars = append(vars, "wl")
	if sh.rtDirty[t.ID] || sh.rtIndex[t.ID] == nil {
		sh.rtIndex[t.ID] = rt.BuildIndex(vcols...)
		sh.rtDirty[t.ID] = false
	}
	return relation.Atom{Name: "RT", Rel: rt, Vars: vars, Idx: sh.rtIndex[t.ID], IdxVars: vcols}
}

// evalTemplates fans Stage-2 template evaluation out over the shards and
// merges the matches deterministically.
func (p *Processor) evalTemplates(w *CurrentWitness, d *xmldoc.Document) []Match {
	if len(p.templateList) == 0 {
		return nil
	}
	var pre *stage2Shared
	if p.cfg.ViewMaterialization {
		pre = p.prepareViewMat(w)
		if pre == nil {
			return nil
		}
	}
	results := make([][]Match, len(p.shards))
	p.runShards(func(sh *shard) {
		if pre != nil {
			results[sh.id] = p.evalShardViewMat(sh, w, d, pre)
		} else {
			results[sh.id] = p.evalShardBasic(sh, w, d)
		}
	})
	var out []Match
	for _, r := range results {
		out = append(out, r...)
	}
	sortMatches(out)
	return out
}

// stage2Shared carries the cross-shard inputs of the Section-5 path,
// computed once per document and read-only during shard evaluation: the
// common string set STR, the shared left/right views RL and RR, and the
// per-document fan-out of RL used for plan choice.
type stage2Shared struct {
	syms   []sym.ID
	seen   map[sym.ID]bool
	rl     *relation.Relation
	rr     *relation.Relation
	perDoc map[xmldoc.DocID]int

	// rvj is the value-join pair relation (docid, nodeL, nodeR, strVal)
	// of the current document, needed only by RT-driven templates. It is
	// built on first use and shared across shards — the computation is
	// identical for every shard, so duplicating it per worker would burn
	// the parallel speedup.
	rvjOnce sync.Once
	rvj     *relation.Relation
}

// sharedRvj returns the document's value-join pair relation, computing it
// exactly once across all shards. The build cost is attributed to the
// shard that happened to get there first.
//
//mmqjp:nondet wall-clock stats timing (output-invisible)
//mmqjp:shardaccess called by the evaluating worker with its own shard (cost attribution)
func (pre *stage2Shared) sharedRvj(p *Processor, w *CurrentWitness, sh *shard) *relation.Relation {
	pre.rvjOnce.Do(func() {
		t0 := time.Now()
		var ar relation.Arena
		rvj := relation.New("docid", "nodeL", "nodeR", "strVal")
		for _, row := range w.RdocW.Rows {
			for _, ri := range p.state.rdocBySym[row[1].SymID()] {
				dt := p.state.Rdoc.Rows[ri]
				ar.Insert(rvj, dt[0], dt[1], row[0], dt[2])
			}
		}
		pre.rvj = rvj
		sh.stats.Rvj += time.Since(t0)
	})
	return pre.rvj
}

// prepareViewMat computes the shared prefix of Algorithm 4. The per-string
// RL slices are computed by the shard owning each string (hitting that
// shard's cache), in parallel; the union is concatenated in sorted-symbol
// order, so its row order is independent of the worker count (symbol ids
// are process-global, so the order is also identical for every engine
// configuration within a process — only intermediate row order depends on
// it, the output leaves through sortMatches regardless). Returns nil when
// no string is shared with the join state (no template can match).
//
//mmqjp:nondet wall-clock stats timing (output-invisible)
//mmqjp:shardaccess per-shard closures run on the owning shard's worker
func (p *Processor) prepareViewMat(w *CurrentWitness) *stage2Shared {
	// STR: distinct string values common to RdocW and Rdoc (line 2).
	t0 := time.Now()
	var syms []sym.ID
	seen := map[sym.ID]bool{}
	for _, row := range w.RdocW.Rows {
		id := row[1].SymID()
		if !seen[id] && p.state.HasSym(id) {
			seen[id] = true
			syms = append(syms, id)
		}
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i] < syms[j] })
	p.stats.Rvj += time.Since(t0)
	if len(syms) == 0 {
		return nil
	}

	// RL slices (lines 3-7), sharded by string ownership. Ownership is
	// resolved once on the coordinator so workers neither rescan nor
	// rehash the full symbol list.
	ownedIdx := make([][]int, len(p.shards))
	for i, id := range syms {
		sh := p.shardOfSym(id)
		ownedIdx[sh.id] = append(ownedIdx[sh.id], i)
	}
	slices := make([]*relation.Relation, len(syms))
	p.runShards(func(sh *shard) {
		t := time.Now()
		for _, i := range ownedIdx[sh.id] {
			id := syms[i]
			slice, ok := sh.cache.Get(id)
			if !ok {
				slice = p.state.SliceEL(id)
				sh.cache.Put(id, slice)
			}
			slices[i] = slice
		}
		sh.stats.RL += time.Since(t)
	})
	t1 := time.Now()
	rl := relation.New("docid", "var1", "var2", "node1", "node2", "strVal")
	for _, slice := range slices {
		rl.UnionInPlace(slice)
	}
	p.stats.RL += time.Since(t1)

	// RR: σ_strVal∈STR(RdocW) ⋈ RbinW on node2 (line 8).
	t2 := time.Now()
	symOf := make(map[int64]sym.ID, w.RdocW.Len())
	for _, row := range w.RdocW.Rows {
		symOf[row[0].I] = row[1].SymID()
	}
	rr := relation.New("var1", "var2", "node1", "node2", "strVal")
	for _, row := range w.RbinW.Rows {
		id, ok := symOf[row[3].I]
		if !ok || !seen[id] {
			continue
		}
		w.arena.Insert(rr, row[0], row[1], row[2], row[3], relation.Sym(id))
	}
	w.rrSlices = rr
	p.stats.RR += time.Since(t2)

	// Per-document fan-out of the shared left view, for plan choice.
	perDoc := map[xmldoc.DocID]int{}
	docidCol := rl.Schema.Col("docid")
	for _, row := range rl.Rows {
		perDoc[xmldoc.DocID(row[docidCol].I)]++
	}
	return &stage2Shared{syms: syms, seen: seen, rl: rl, rr: rr, perDoc: perDoc}
}

// evalShardBasic implements Algorithm 1 over one shard's templates: per
// template, evaluate the conjunctive query CQ_T over the witness relations.
// The value-join pairs (the Rdoc ⋈ RdocW core) are recomputed per template
// from the incremental string index — no sharing across templates, which is
// precisely what the Section-5 optimization adds.
//
//mmqjp:nondet wall-clock stats timing (output-invisible)
//mmqjp:shardaccess Stage-2 evaluation invoked on the owning shard's worker
func (p *Processor) evalShardBasic(sh *shard, w *CurrentWitness, d *xmldoc.Document) []Match {
	var out []Match
	var subs *docSubsets
	var ar relation.Arena
	for _, t := range sh.templates {
		tcq := time.Now()
		// Fresh per-template value-join pair relation
		// Rvj(docid, nodeL, nodeR, strVal). Recomputing it per template
		// is exactly the redundancy Section 5 removes. The rows are
		// arena-carved: they live only for this document's evaluation.
		rvj := relation.New("docid", "nodeL", "nodeR", "strVal")
		perDoc := map[xmldoc.DocID]int{}
		for _, row := range w.RdocW.Rows {
			for _, ri := range p.state.rdocBySym[row[1].SymID()] {
				dt := p.state.Rdoc.Rows[ri]
				ar.Insert(rvj, dt[0], dt[1], row[0], dt[2])
				perDoc[xmldoc.DocID(dt[0].I)]++
			}
		}
		sh.stats.CQ += time.Since(tcq)
		if rvj.Len() == 0 {
			continue
		}
		out = append(out, p.runPlans(sh, t, p.choosePlan(t, perDoc),
			func() []Match { return p.evalTemplateWitnessBasic(sh, t, w, rvj, d) },
			func() ([]Match, int) {
				if subs == nil {
					subs = newDocSubsets(p.state, w)
				}
				return p.evalTemplateRTDriven(t, w, rvj, subs, d)
			})...)
	}
	return out
}

// evalTemplateWitnessBasic is the witness-driven plan of Algorithm 1 for one
// template: the interleaved conjunctive query over the per-template
// value-join pair relation, anchored structural edges and the indexed RT
// atom. Each value join is immediately followed by the structural edges
// anchoring its endpoints, walking up to the side roots, so every join is
// selective. It (re)builds the RT index when dirty, so it must run on the
// shard owning t.
func (p *Processor) evalTemplateWitnessBasic(sh *shard, t *Template, w *CurrentWitness, rvj *relation.Relation, d *xmldoc.Document) []Match {
	atoms := make([]relation.Atom, 0, 2*len(t.VJ)+t.N+2)
	emitted := map[[2]int]bool{}
	rootDone := map[Side]bool{}
	for k, e := range t.VJ {
		atoms = append(atoms, relation.Atom{
			Name: "Rvj", Rel: rvj,
			Vars: []string{"docid", nvar(e[0]), nvar(e[1]), svar(k)},
		})
		atoms = p.appendAnchors(atoms, t, w, e[0], Left, emitted, rootDone)
		atoms = p.appendAnchors(atoms, t, w, e[1], Right, emitted, rootDone)
	}
	atoms = append(atoms, sh.rtAtom(t))
	return p.emit(t, relation.EvalConjunctiveOrdered(atoms, t.headVars()), d)
}

// evalShardViewMat implements the per-template tail of Algorithm 4 over one
// shard's templates, against the shared RL/RR views of pre.
//
//mmqjp:shardaccess Stage-2 evaluation invoked on the owning shard's worker
func (p *Processor) evalShardViewMat(sh *shard, w *CurrentWitness, d *xmldoc.Document, pre *stage2Shared) []Match {
	var out []Match
	var subs *docSubsets
	for _, t := range sh.templates {
		dec := p.choosePlan(t, pre.perDoc)
		var rvj *relation.Relation
		if dec.rtDriven || dec.explore {
			// The value-join pair relation is computed once per
			// document across all shards (sharedRvj) — the Section-5
			// sharing applies to this plan too. It is resolved before
			// the timed plan run so its one-time build cost lands in
			// Stats.Rvj, not in CQ or the RT plan's calibration. The
			// variable-pair subsets stay per shard: they memoize
			// lazily, so each shard materializes only the pairs its
			// own templates probe.
			rvj = pre.sharedRvj(p, w, sh)
			if subs == nil {
				subs = newDocSubsets(p.state, w)
			}
		}
		out = append(out, p.runPlans(sh, t, dec,
			func() []Match {
				atoms := p.viewMatAtoms(sh, t, w, pre.rl, pre.rr)
				return p.emit(t, relation.EvalConjunctiveOrdered(atoms, t.headVars()), d)
			},
			func() ([]Match, int) { return p.evalTemplateRTDriven(t, w, rvj, subs, d) })...)
	}
	return out
}

// sortMatches orders matches under a total order so the merged output is
// identical regardless of how templates are sharded across workers — or how
// queries are partitioned across routed engines. Ties are broken down to the
// binding vector; fully equal matches are interchangeable.
func sortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool { return matchLess(&ms[i], &ms[j]) })
}

// SortMatches applies the canonical total order to ms in place. It is the
// order every per-document match set leaves ConsumeStage1 in, exported so a
// partition router can merge N engines' relabeled streams by concatenating
// and re-sorting — landing on the exact single-engine byte order.
func SortMatches(ms []Match) { sortMatches(ms) }

func matchLess(a, b *Match) bool {
	if a.Query != b.Query {
		return a.Query < b.Query
	}
	if a.LeftDoc != b.LeftDoc {
		return a.LeftDoc < b.LeftDoc
	}
	if a.RightDoc != b.RightDoc {
		return a.RightDoc < b.RightDoc
	}
	if a.LeftRoot != b.LeftRoot {
		return a.LeftRoot < b.LeftRoot
	}
	if a.RightRoot != b.RightRoot {
		return a.RightRoot < b.RightRoot
	}
	at, bt := templateSig(a.Template), templateSig(b.Template)
	if at != bt {
		return at < bt
	}
	if len(a.Bindings) != len(b.Bindings) {
		return len(a.Bindings) < len(b.Bindings)
	}
	for i := range a.Bindings {
		if a.Bindings[i] != b.Bindings[i] {
			return a.Bindings[i] < b.Bindings[i]
		}
	}
	return false
}

// templateSig is the template tie-break key. The canonical signature — not
// Template.ID — because ids are allocation-ordered per processor: a template
// created earlier by an unrelated query on one engine can invert the
// relative id order another engine assigns, so ids cannot order matches
// consistently across partitions. Signatures are global. nil (a single-block
// match) sorts first, as the old -1 id sentinel did.
func templateSig(t *Template) string {
	if t == nil {
		return ""
	}
	return t.Sig
}
