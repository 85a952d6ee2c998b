// Package yfilter implements a shared XPath evaluator in the style of
// YFilter (Diao et al., ACM TODS 2003), the Stage-1 engine of the MMQJP
// architecture.
//
// All registered tree patterns are decomposed into root-to-node linear
// paths; the distinct paths of all patterns are compiled into a single
// shared NFA whose states are shared across common path prefixes. One pass
// of the NFA over a document's SAX-style event stream computes, for every
// distinct path prefix, the set of matching document nodes, and numbers the
// nodes it visits in document order. Tree-pattern witnesses (complete
// bound-variable assignments) are then assembled by a post-processing join of
// the candidate sets along the pattern's branch structure, mirroring
// YFilter's shared-path + nested-path post-processing design (assemble.go) —
// but only for the patterns the document triggered. Each live pattern
// watches one of its prefixes, and the walk records the prefixes it hit (the
// ones whose candidate list it made non-empty), so finding the triggered
// patterns (MatchResult.Triggered) visits the watchers of those prefixes and
// no other pattern: the per-document cost of Stage 1 follows the prefixes
// the document hit, the patterns it triggered and the witnesses they emit,
// not the registered set.
//
// Patterns are deduplicated on registration (by canonical key), so NFA
// execution and witness assembly are shared by every query that references
// the pattern.
//
// # Memory layout
//
// States live in a dense slice indexed by int32 state id. Transitions are
// matched through a flat table indexed by (state, symbol slot), where a
// symbol slot is the NFA-local index of an interned symbol id
// (internal/sym): document nodes carry their interned symbol, so the
// per-node transition step is two array loads and never hashes a string.
// The table is rebuilt lazily after Register; rebuilds are serialized and
// published with an atomic flag so concurrent MatchDocument calls are safe.
// Per-document evaluation state (active-state sets per depth, the
// generation-stamped visited array, candidate lists, the visit numbering and
// the assembly scratch) lives in a pooled MatchResult that callers return
// with Release when they have copied out the bindings they need.
package yfilter

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/sym"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// PatternID identifies a distinct registered pattern.
type PatternID int32

// stateID indexes streamNFA.states. The sentinel -1 means "no state".
type stateID = int32

const noState stateID = -1

// nfaState is one state of the shared NFA. Exact-symbol transitions are
// kept in a per-state map during construction and flattened into the
// stream's dense transition table before matching.
type nfaState struct {
	trans   map[sym.ID]stateID // construction form of the exact-symbol transitions
	star    stateID            // transition on any element symbol (noState if absent)
	attr    stateID            // transition on any attribute symbol, the @* test (noState if absent)
	eps     stateID            // ε-transition to the //-self-loop state (noState if absent)
	self    bool               // state has a self-loop on any symbol (the // state)
	accepts []int              // prefix ids accepted when this state is reached
}

// streamNFA is the NFA and pattern registry for one input stream.
type streamNFA struct {
	states    []nfaState // states[0] is the start state
	prefixIDs map[string]int
	numPrefix int
	// prefixLive[p] counts the live patterns referencing prefix p;
	// candidate collection is skipped for prefixes only dead patterns
	// need, so per-document cost tracks the live set, not every pattern
	// ever registered.
	prefixLive []int
	// prefixDepth[p] is the number of location steps of prefix p.
	prefixDepth []int
	// watchers[p] lists the live patterns watching prefix p: every live
	// pattern sits on the list of one of its prefixes (assembly.watch), so
	// the patterns a document can have triggered are the watchers of the
	// prefixes it hit.
	watchers [][]PatternID

	// Dense transition table, rebuilt lazily after Register. slot maps a
	// global interned symbol id to 1+its NFA-local column (0 = the symbol
	// labels no transition anywhere in this NFA); table[s*width+c] is the
	// target of state s on column c, or noState. tableClean flips to false
	// on every Register and is re-set after a rebuild under tableMu, so
	// concurrent matchers either see a clean table or serialize on the
	// rebuild.
	tableMu    sync.Mutex
	tableClean atomic.Bool
	width      int
	slot       []int32
	table      []stateID
}

func (sn *streamNFA) newState() stateID {
	id := stateID(len(sn.states))
	sn.states = append(sn.states, nfaState{star: noState, attr: noState, eps: noState})
	return id
}

// ensureTable flattens the per-state transition maps into the dense table
// if Register has invalidated it. Safe to call from concurrent matchers.
func (sn *streamNFA) ensureTable() {
	if sn.tableClean.Load() {
		return
	}
	sn.tableMu.Lock()
	defer sn.tableMu.Unlock()
	if sn.tableClean.Load() {
		return
	}
	// Mark the symbols that label at least one transition, then assign
	// columns in increasing symbol-id order (deterministic layout).
	maxSym := sym.ID(-1)
	for i := range sn.states {
		for id := range sn.states[i].trans {
			if id > maxSym {
				maxSym = id
			}
		}
	}
	slot := make([]int32, int(maxSym)+1)
	for i := range sn.states {
		for id := range sn.states[i].trans {
			slot[id] = 1
		}
	}
	width := 0
	for i := range slot {
		if slot[i] != 0 {
			width++
			slot[i] = int32(width)
		}
	}
	table := make([]stateID, len(sn.states)*width)
	for i := range table {
		table[i] = noState
	}
	for i := range sn.states {
		base := i * width
		for id, t := range sn.states[i].trans {
			table[base+int(slot[id])-1] = t
		}
	}
	sn.slot, sn.width, sn.table = slot, width, table
	sn.tableClean.Store(true)
}

// Engine is the shared XPath evaluator.
type Engine struct {
	patterns []*xpath.Pattern
	byKey    map[string]PatternID
	streams  map[string]*streamNFA

	// asm[pid] is what assembly needs to know about pattern pid, derived
	// once at Register (assemble.go).
	asm []assembly
	// dead[pid] marks a pattern no caller references any more (SetLive);
	// its NFA states stay (they are prefix-shared), but candidate
	// collection for its exclusive prefixes stops. Register revives a
	// canonically-equal pattern.
	dead []bool

	//mmqjp:pooled MatchResults are reset by Release and hold only per-document scratch (candidate lists and the prefixes hit, numbering, parent stamps, reduced lists, the triggered list, the enumeration slab); the slab Bindings returns is valid only until the next Bindings call or Release, and internal/core writes each pattern's rows into the document's record before asking for the next pattern and before it releases the result
	pool sync.Pool
}

// NewEngine returns an empty evaluator.
func NewEngine() *Engine {
	return &Engine{byKey: map[string]PatternID{}, streams: map[string]*streamNFA{}}
}

// NumPatterns returns the number of distinct registered patterns.
func (e *Engine) NumPatterns() int { return len(e.patterns) }

// Pattern returns the distinct pattern registered under id.
func (e *Engine) Pattern(id PatternID) *xpath.Pattern { return e.patterns[id] }

// Register adds a pattern to the engine and returns its id. Patterns that
// are canonically equal to an already-registered pattern are shared: the
// existing id is returned. The returned id's Pattern may therefore differ
// from p in variable names but matches exactly the same witnesses (bindings
// are positional, in pre-order of bound nodes).
//
// Register must not run concurrently with MatchDocument (internal/core
// serializes registration against ingestion).
func (e *Engine) Register(p *xpath.Pattern) PatternID {
	key := p.CanonicalKey()
	if id, ok := e.byKey[key]; ok {
		e.SetLive(id, true)
		return id
	}
	id := PatternID(len(e.patterns))
	e.patterns = append(e.patterns, p)
	e.byKey[key] = id

	sn := e.streams[p.Stream]
	if sn == nil {
		sn = &streamNFA{prefixIDs: map[string]int{}}
		sn.newState()
		e.streams[p.Stream] = sn
	}

	// Insert every root-to-node prefix of the pattern into the NFA and
	// record the prefix id for each pattern node.
	np := make([]int, len(p.Nodes))
	for _, path := range p.Decompose() {
		cur := stateID(0)
		key := ""
		for si, st := range path.Steps {
			name := st.Name
			if st.IsAttr {
				name = "@" + name
			}
			key += st.Axis.String() + name
			cur = sn.insertStep(cur, st)
			pid, ok := sn.prefixIDs[key]
			if !ok {
				pid = sn.numPrefix
				sn.numPrefix++
				sn.prefixIDs[key] = pid
				sn.prefixLive = append(sn.prefixLive, 0)
				sn.prefixDepth = append(sn.prefixDepth, si+1)
				sn.watchers = append(sn.watchers, nil)
				sn.states[cur].accepts = append(sn.states[cur].accepts, pid)
			}
			np[path.NodeIndexes[si]] = pid
		}
	}
	sn.tableClean.Store(false)
	a := newAssembly(p, sn, np)
	a.watch = sn.leastWatched(a.prog.distinct())
	e.asm = append(e.asm, a)
	e.dead = append(e.dead, true)
	e.SetLive(id, true)
	return id
}

// leastWatched picks the prefix a new pattern watches: the one with the
// fewest watchers so far, ties going to the deeper step (and then to the
// later prefix), which is the more selective one. Spreading the watchers is
// what keeps a hit prefix's list short when many patterns share a prefix.
func (sn *streamNFA) leastWatched(prefixes []int32) int {
	best := int(prefixes[0])
	for _, p32 := range prefixes[1:] {
		p := int(p32)
		n, m := len(sn.watchers[p]), len(sn.watchers[best])
		if n < m || n == m && sn.prefixDepth[p] >= sn.prefixDepth[best] {
			best = p
		}
	}
	return best
}

// SetLive marks a pattern live or dead. A dead pattern keeps its shared NFA
// states (rebuilding the automaton would stall ingestion) but leaves its
// watch list, so no document visits it, and stops paying per-document
// candidate collection for prefixes no live pattern shares; Register revives
// a canonically-equal pattern, back on the list it watched. Callers with
// refcounted pattern registries (internal/core) call SetLive(id, false) when
// the last reference goes away.
func (e *Engine) SetLive(id PatternID, live bool) {
	if e.dead[id] == !live {
		return
	}
	e.dead[id] = !live
	a := &e.asm[id]
	sn := a.sn
	delta := 1
	if live {
		sn.watchers[a.watch] = append(sn.watchers[a.watch], id)
	} else {
		delta = -1
		w := sn.watchers[a.watch]
		i := slices.Index(w, id)
		sn.watchers[a.watch] = slices.Delete(w, i, i+1)
	}
	for _, pid := range a.prog.distinct() {
		sn.prefixLive[pid] += delta
	}
}

// insertStep adds (or reuses) the NFA structure for one location step from
// state cur and returns the step's target state.
func (sn *streamNFA) insertStep(cur stateID, st xpath.PathStep) stateID {
	if st.Axis == xpath.Descendant {
		if sn.states[cur].eps == noState {
			sl := sn.newState()
			sn.states[sl].self = true
			sn.states[cur].eps = sl
		}
		cur = sn.states[cur].eps
	}
	name := st.Name
	if st.IsAttr {
		name = "@" + name
	}
	if st.Name == "*" {
		if st.IsAttr {
			if sn.states[cur].attr == noState {
				sl := sn.newState()
				sn.states[cur].attr = sl
			}
			return sn.states[cur].attr
		}
		if sn.states[cur].star == noState {
			sl := sn.newState()
			sn.states[cur].star = sl
		}
		return sn.states[cur].star
	}
	id := sym.Intern(name)
	if sn.states[cur].trans == nil {
		sn.states[cur].trans = map[sym.ID]stateID{}
	}
	next, ok := sn.states[cur].trans[id]
	if !ok {
		next = sn.newState()
		sn.states[cur].trans[id] = next
	}
	return next
}

// MatchResult holds the outcome of evaluating one document against all
// patterns of one stream: the NFA run's candidate lists and visit numbering,
// from which Triggered finds the patterns that can have witnesses and
// Bindings assembles them one pattern at a time. Results come from a
// per-engine pool and everything in them is scratch that Release recycles,
// the slices Triggered and Bindings return included.
type MatchResult struct {
	eng *Engine
	sn  *streamNFA
	doc *xmldoc.Document

	// candList[prefixID] lists the document nodes matching the prefix, in
	// document order. Backing arrays are retained across Release/reuse.
	// hit lists the prefixes whose list the walk made non-empty, in the
	// order it did: the lists Release empties and the prefixes whose
	// watchers Triggered visits.
	candList [][]xmldoc.NodeID
	hit      []int

	// span[n] numbers the nodes the walk descended into: pre is n's visit
	// number, end the last visit number handed out inside n's subtree, so m
	// is a proper descendant of n exactly when pre(n) < pre(m) <= end(n).
	// Every candidate is numbered, and candidate lists ascend in pre.
	// Entries of nodes this document's walk never reached are stale (the
	// array is sized to the largest document seen) and never read.
	span  []interval
	clock int32

	// levels[d] is the active state set at document depth d; each depth
	// owns its slice, so sibling subtrees can never alias each other's
	// active sets. visited[s] == gen marks state s as already in the
	// next set being built (one generation per document node).
	levels  [][]stateID
	visited []uint64
	gen     uint64

	asmScratch
}

// interval is one node's entry in MatchResult.span.
type interval struct{ pre, end int32 }

// MatchDocument runs the stream's shared NFA over the document and returns a
// result from which per-pattern witnesses can be drawn. A nil result is
// returned when no pattern is registered for the stream.
func (e *Engine) MatchDocument(stream string, d *xmldoc.Document) *MatchResult {
	sn := e.streams[stream]
	if sn == nil {
		return nil
	}
	sn.ensureTable()
	r, _ := e.pool.Get().(*MatchResult)
	if r == nil {
		r = &MatchResult{}
	}
	r.eng, r.sn, r.doc = e, sn, d
	r.clock, r.triggered, r.probes, r.triggerWork = 0, 0, 0, 0
	if len(r.span) < d.Len() {
		r.span = make([]interval, d.Len())
		r.stamps = make([]uint32, d.Len())
	}
	if cap(r.candList) >= sn.numPrefix {
		r.candList = r.candList[:sn.numPrefix]
	} else {
		r.candList = append(r.candList[:cap(r.candList)], make([][]xmldoc.NodeID, sn.numPrefix-cap(r.candList))...)
	}
	if len(r.visited) < len(sn.states) {
		r.visited = make([]uint64, len(sn.states))
		r.gen = 0
	}
	if len(r.levels) == 0 {
		r.levels = append(r.levels, nil)
	}

	// Seed depth 0 with the ε-closure of the start state.
	r.gen++
	lvl0 := r.levels[0][:0]
	for u := stateID(0); u != noState && r.visited[u] != r.gen; u = sn.states[u].eps {
		r.visited[u] = r.gen
		lvl0 = append(lvl0, u)
	}
	r.levels[0] = lvl0
	r.visit(d.Root(), 0)
	return r
}

// Release returns the result's scratch to the engine's pool. The result
// must not be used afterwards, nor any slice Triggered or Bindings returned
// from it. Only the candidate lists the document filled are emptied, so the
// cost follows the prefixes it hit. Release on nil or an already released
// result is a no-op.
func (r *MatchResult) Release() {
	if r == nil || r.eng == nil {
		return
	}
	eng := r.eng
	for _, pid := range r.hit {
		r.candList[pid] = r.candList[pid][:0]
	}
	r.hit, r.trig = r.hit[:0], r.trig[:0]
	r.eng, r.sn, r.doc, r.prog = nil, nil, nil, nil
	eng.pool.Put(r)
}

// visit consumes document node n from the active state set at the given
// depth and recurses into its children (SAX start-element semantics;
// end-element corresponds to the implicit stack pop on return). The next
// set is deduplicated with the generation-stamped visited array, and
// ε-successors are folded in as each state is added, so closure costs O(1)
// per discovered state instead of a rescan of the set. A node the walk
// descends into gets its entry in span; a node it prunes can be no
// candidate and needs none.
func (r *MatchResult) visit(n xmldoc.NodeID, depth int) {
	dn := r.doc.Node(n)
	isElem := dn.Kind == xmldoc.ElementNode
	sn := r.sn
	active := r.levels[depth]
	if len(r.levels) == depth+1 {
		r.levels = append(r.levels, nil)
	}
	next := r.levels[depth+1][:0]
	r.gen++
	gen := r.gen
	visited := r.visited
	var slotID int32
	if int(dn.Sym) < len(sn.slot) {
		slotID = sn.slot[dn.Sym]
	}
	for _, s := range active {
		st := &sn.states[s]
		if slotID > 0 {
			if t := sn.table[int(s)*sn.width+int(slotID)-1]; t != noState {
				for u := t; u != noState && visited[u] != gen; u = sn.states[u].eps {
					visited[u] = gen
					next = append(next, u)
				}
			}
		}
		wild := st.star
		if !isElem {
			wild = st.attr
		}
		if wild != noState {
			for u := wild; u != noState && visited[u] != gen; u = sn.states[u].eps {
				visited[u] = gen
				next = append(next, u)
			}
		}
		if st.self {
			// The // state stays active at all depths.
			for u := s; u != noState && visited[u] != gen; u = sn.states[u].eps {
				visited[u] = gen
				next = append(next, u)
			}
		}
	}
	r.levels[depth+1] = next
	for _, s := range next {
		for _, pid := range sn.states[s].accepts {
			if sn.prefixLive[pid] == 0 {
				continue // only unregistered patterns need this prefix
			}
			list := r.candList[pid]
			if len(list) == 0 {
				r.hit = append(r.hit, pid)
			}
			r.candList[pid] = append(list, n)
		}
	}
	if len(next) == 0 {
		return // no active state can ever fire below this node
	}
	pre := r.clock
	r.clock++
	for _, c := range dn.Children {
		r.visit(c, depth+1)
	}
	r.span[n] = interval{pre, r.clock - 1}
}
