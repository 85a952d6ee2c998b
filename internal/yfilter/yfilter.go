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
// States live in a dense slice indexed by int32 state id, in the form
// Register builds them: exact-symbol transitions in a per-state map keyed by
// the interned symbol id (internal/sym), which document nodes carry, plus
// the wildcard, attribute-wildcard and ε targets and the self-loop flag. The
// walk runs the NFA as a lazily built DFA (dfa.go): its state at a node is
// an interned, sorted set of NFA states, and the next set for (set, node
// symbol, element or attribute) is looked up in a memo of flat open-addressed
// arrays that the pooled MatchResult keeps across documents, one per stream.
// Only a miss reads the construction form. A node therefore costs one probe
// plus its candidate appends, whatever the number of active NFA states. The
// memo is stamped with the stream's structure version, which Register bumps
// when it adds states or prefixes, and is emptied at memoLimit. Per-document
// evaluation state (the set ids along the current path, candidate lists, the
// visit numbering and the assembly scratch) lives in the same pooled result,
// which callers return with Release when they have copied out the bindings
// they need.
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

// nfaState is one state of the shared NFA, as Register builds it and the
// walk's memo misses read it.
type nfaState struct {
	trans   map[sym.ID]stateID // the exact-symbol transitions
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

	// id indexes the stream's memo in a MatchResult (MatchResult.memos).
	// version counts the Register calls that added states or prefixes: a
	// memo built against an older version is emptied before a walk.
	id      int
	version uint64
}

func (sn *streamNFA) newState() stateID {
	id := stateID(len(sn.states))
	sn.states = append(sn.states, nfaState{star: noState, attr: noState, eps: noState})
	return id
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

	//mmqjp:pooled MatchResults are reset by Release and hold per-document scratch (candidate lists and the prefixes hit, the walk's path, numbering, parent stamps, reduced lists, the triggered list, the enumeration slab) plus their walk memos, which hold only set ids, NFA state ids and prefix ids and are emptied when the stream's version moves; the slab Bindings returns is valid only until the next Bindings call or Release, and internal/core writes each pattern's rows into the document's record before asking for the next pattern and before it releases the result
	pool sync.Pool
	// warm holds the last released result outside the pool, whose objects
	// are per-P and dropped by collections, so a single publisher's next
	// walk finds its memo wherever it runs.
	warm atomic.Pointer[MatchResult]
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
		sn = &streamNFA{prefixIDs: map[string]int{}, id: len(e.streams)}
		sn.newState()
		e.streams[p.Stream] = sn
	}

	// Insert every root-to-node prefix of the pattern into the NFA and
	// record the prefix id for each pattern node.
	np := make([]int, len(p.Nodes))
	states, prefixes := len(sn.states), sn.numPrefix
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
	if len(sn.states) != states || sn.numPrefix != prefixes {
		sn.version++
	}
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
// patterns of one stream: the walk's candidate lists and visit numbering,
// from which Triggered finds the patterns that can have witnesses and
// Bindings assembles them one pattern at a time. Results come from a
// per-engine pool and everything in them but the walk memos is scratch that
// Release recycles, the slices Triggered and Bindings return included.
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

	// memos[sn.id] is the lazy DFA of stream sn as this result's walks
	// have built it; it outlives Release, and memo is the current
	// stream's. path[d] is the DFA set at document depth d of the node
	// being walked. scratch is a miss's, pathBuf and pathSwap hold the path
	// sets a flush detached (dfa.go), and steps counts the misses of this
	// document.
	memos    []walkMemo
	memo     *walkMemo
	path     []pathSet
	scratch  []int32
	pathBuf  []int32
	pathSwap []int32
	steps    int64

	asmScratch
}

// interval is one node's entry in MatchResult.span.
type interval struct{ pre, end int32 }

// pathSet is one depth's entry in MatchResult.path: a memo set id, or -1
// when a flush of the memo detached the set, whose states are then
// pathBuf[lo:hi].
type pathSet struct{ set, lo, hi int32 }

// MatchDocument runs the stream's shared NFA over the document and returns a
// result from which per-pattern witnesses can be drawn. A nil result is
// returned when no pattern is registered for the stream.
func (e *Engine) MatchDocument(stream string, d *xmldoc.Document) *MatchResult {
	sn := e.streams[stream]
	if sn == nil {
		return nil
	}
	r := e.warm.Swap(nil)
	if r == nil {
		r, _ = e.pool.Get().(*MatchResult)
	}
	if r == nil {
		r = &MatchResult{}
	}
	r.eng, r.sn, r.doc = e, sn, d
	r.clock, r.steps, r.triggered, r.probes, r.triggerWork = 0, 0, 0, 0, 0
	if len(r.span) < d.Len() {
		r.span = make([]interval, d.Len())
		r.stamps = make([]uint32, d.Len())
	}
	if cap(r.candList) >= sn.numPrefix {
		r.candList = r.candList[:sn.numPrefix]
	} else {
		r.candList = append(r.candList[:cap(r.candList)], make([][]xmldoc.NodeID, sn.numPrefix-cap(r.candList))...)
	}
	if len(r.memos) <= sn.id {
		r.memos = append(r.memos, make([]walkMemo, sn.id+1-len(r.memos))...)
	}
	r.memo = &r.memos[sn.id]
	if r.memo.version != sn.version || len(r.memo.sets) == 0 {
		r.memo.reset(sn)
	}
	r.path = append(r.path[:0], pathSet{set: startSet})
	r.visit(d.Root(), 0)
	return r
}

// Steps reports the DFA transitions this document's walk computed rather
// than found in the memo: 0 once the memo has seen the document's shapes.
func (r *MatchResult) Steps() int64 {
	if r == nil {
		return 0
	}
	return r.steps
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
	r.eng, r.sn, r.doc, r.prog, r.memo = nil, nil, nil, nil, nil
	if !eng.warm.CompareAndSwap(nil, r) {
		eng.pool.Put(r)
	}
}

// visit consumes document node n, whose parent's DFA set is path[depth],
// and recurses into its children (SAX start-element semantics;
// end-element corresponds to the implicit stack pop on return). The node's
// set is one memo probe away, computed only on a miss; it collects n for
// each live prefix the set accepts. A node the walk descends into gets its
// entry in span; one whose set is empty can be no candidate, nor can any
// node below it, and needs none.
func (r *MatchResult) visit(n xmldoc.NodeID, depth int) {
	dn := r.doc.Node(n)
	from := r.path[depth].set
	if from < 0 {
		from = r.enter(depth)
	}
	k := transKey(from, dn.Sym, dn.Kind)
	set := r.memo.lookup(k)
	if set < 0 {
		set = r.miss(k, depth, dn.Sym, dn.Kind)
	}
	if set == deadSet {
		return // no active state can ever fire below this node
	}
	live := r.sn.prefixLive
	for _, pid := range r.memo.accepts(set) {
		if live[pid] == 0 {
			continue // only unregistered patterns need this prefix
		}
		list := r.candList[pid]
		if len(list) == 0 {
			r.hit = append(r.hit, int(pid))
		}
		r.candList[pid] = append(list, n)
	}
	if len(dn.Children) == 0 {
		r.span[n] = interval{r.clock, r.clock}
		r.clock++
		return
	}
	if len(r.path) == depth+1 {
		r.path = append(r.path, pathSet{})
	}
	r.path[depth+1].set = set
	pre := r.clock
	r.clock++
	for _, c := range dn.Children {
		r.visit(c, depth+1)
	}
	r.span[n] = interval{pre, r.clock - 1}
}
