package yfilter

import (
	"slices"

	"repro/internal/sym"
	"repro/internal/xmldoc"
)

// The walk runs the shared NFA as a lazily built DFA (Green, Gupta, Miklau,
// Onizuka and Suciu, "Processing XML streams with deterministic automata
// and stream indexes", TODS 2004). A DFA state is a set of NFA states,
// sorted and interned; the DFA transition for (set, node symbol, element or
// attribute) is computed from the NFA's construction form the first time a
// walk needs it and memoised. A memo belongs to one MatchResult and one
// stream, so concurrent walks share nothing mutable: a hit is one probe of
// flat arrays, under no lock and with no allocation.

// memoLimit bounds a walk memo: its sets' members and accepted prefixes
// plus its transitions. A miss that would pass it empties the memo first
// (only a single set larger than the bound is entered all the same).
const memoLimit = 1 << 15

// Set ids the memo always holds: the empty set, where the walk stops, and
// the ε-closure of the start state, where it begins.
const (
	deadSet  int32 = 0
	startSet int32 = 1
)

// dfaSet is one interned set: its NFA states ascending in arena[lo:mid],
// the prefix ids they accept in arena[mid:hi], and the hash of its states.
type dfaSet struct {
	lo, mid, hi int32
	hash        uint32
}

// walkMemo is the lazy DFA of one stream as far as a result's walks have
// explored it.
type walkMemo struct {
	// version is the streamNFA.version the memo was built against; a memo
	// of another version is emptied before a walk reads it.
	version uint64
	sets    []dfaSet
	arena   []int32
	// setIdx finds a set by its states: open addressing over 1 + set id,
	// 0 free, at most half full.
	setIdx []int32
	// keys and next are the transitions, open addressing at most half
	// full: keys[i] is transKey's (0 free) and next[i] its target set.
	keys   []uint64
	next   []int32
	ntrans int
	// resets counts the times the memo was emptied at memoLimit.
	resets int
}

// transKey packs a transition's source set, the node's symbol and whether
// the node is an element. The source is never the dead set, so no key is 0.
func transKey(from int32, s sym.ID, kind xmldoc.NodeKind) uint64 {
	return uint64(from)<<33 | uint64(uint32(s))<<1 | uint64(kind&1)
}

func hashKey(k uint64) uint64 { return k * 0x9e3779b97f4a7c15 >> 32 }

// lookup returns the memoised target of transition k, or -1.
func (m *walkMemo) lookup(k uint64) int32 {
	mask := uint64(len(m.keys) - 1)
	for i := hashKey(k) & mask; ; i = (i + 1) & mask {
		switch m.keys[i] {
		case k:
			return m.next[i]
		case 0:
			return -1
		}
	}
}

// size is what memoLimit bounds.
func (m *walkMemo) size() int { return len(m.arena) + m.ntrans }

// reset empties the memo for sn's current NFA, keeping its storage, and
// enters the empty set and the start set.
func (m *walkMemo) reset(sn *streamNFA) {
	m.version = sn.version
	m.sets, m.arena, m.ntrans = m.sets[:0], m.arena[:0], 0
	if m.keys == nil {
		m.keys, m.next, m.setIdx = make([]uint64, 64), make([]int32, 64), make([]int32, 64)
	}
	clear(m.keys)
	clear(m.setIdx)
	var start []int32
	for u := stateID(0); u != noState; u = sn.states[u].eps {
		start = append(start, u)
	}
	m.intern(sn, nil)
	m.intern(sn, start)
}

func hashStates(states []int32) uint32 {
	h := uint32(2166136261)
	for _, s := range states {
		h = (h ^ uint32(s)) * 16777619
	}
	return h
}

// find returns the id of the set with these (sorted) states, or -1.
func (m *walkMemo) find(states []int32, h uint32) int32 {
	mask := uint32(len(m.setIdx) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := m.setIdx[i]
		if e == 0 {
			return -1
		}
		if s := m.sets[e-1]; s.hash == h && slices.Equal(m.arena[s.lo:s.mid], states) {
			return e - 1
		}
	}
}

// cost is what interning states would add to size: nothing when the set is
// there already.
func (m *walkMemo) cost(sn *streamNFA, states []int32) int {
	if m.find(states, hashStates(states)) >= 0 {
		return 0
	}
	n := len(states)
	for _, s := range states {
		n += len(sn.states[s].accepts)
	}
	return n
}

// intern returns the id of the set with these (sorted, distinct) states,
// adding it, with the prefixes its states accept, if it is new.
func (m *walkMemo) intern(sn *streamNFA, states []int32) int32 {
	h := hashStates(states)
	if id := m.find(states, h); id >= 0 {
		return id
	}
	if 2*(len(m.sets)+1) > len(m.setIdx) {
		m.setIdx = make([]int32, 2*len(m.setIdx))
		for id, s := range m.sets {
			m.fileSet(s.hash, int32(id))
		}
	}
	id := int32(len(m.sets))
	s := dfaSet{lo: int32(len(m.arena)), hash: h}
	m.arena = append(m.arena, states...)
	s.mid = int32(len(m.arena))
	for _, u := range states {
		for _, pid := range sn.states[u].accepts {
			m.arena = append(m.arena, int32(pid))
		}
	}
	s.hi = int32(len(m.arena))
	m.sets = append(m.sets, s)
	m.fileSet(h, id)
	return id
}

func (m *walkMemo) fileSet(h uint32, id int32) {
	mask := uint32(len(m.setIdx) - 1)
	i := h & mask
	for m.setIdx[i] != 0 {
		i = (i + 1) & mask
	}
	m.setIdx[i] = id + 1
}

// addTrans memoises transition k to set id.
func (m *walkMemo) addTrans(k uint64, id int32) {
	if 2*(m.ntrans+1) > len(m.keys) {
		keys, next := m.keys, m.next
		m.keys, m.next = make([]uint64, 2*len(keys)), make([]int32, 2*len(keys))
		for i, old := range keys {
			if old != 0 {
				m.fileTrans(old, next[i])
			}
		}
	}
	m.fileTrans(k, id)
	m.ntrans++
}

func (m *walkMemo) fileTrans(k uint64, id int32) {
	mask := uint64(len(m.keys) - 1)
	i := hashKey(k) & mask
	for m.keys[i] != 0 {
		i = (i + 1) & mask
	}
	m.keys[i], m.next[i] = k, id
}

// states returns set id's NFA states.
func (m *walkMemo) states(id int32) []int32 {
	s := m.sets[id]
	return m.arena[s.lo:s.mid]
}

// accepts returns the prefix ids set id's states accept.
func (m *walkMemo) accepts(id int32) []int32 {
	s := m.sets[id]
	return m.arena[s.mid:s.hi]
}

// miss computes, memoises and returns the target of transition k from the
// set at path[depth] on a node with symbol s and kind kind: each state's
// exact-symbol transition, its wildcard for the node's kind and its
// self-loop, each target followed along its ε chain, the union sorted.
func (r *MatchResult) miss(k uint64, depth int, s sym.ID, kind xmldoc.NodeKind) int32 {
	m, sn := r.memo, r.sn
	r.steps++
	next := r.scratch[:0]
	for _, u := range m.states(r.path[depth].set) {
		st := &sn.states[u]
		if t, ok := st.trans[s]; ok {
			next = sn.closure(next, t)
		}
		if kind == xmldoc.ElementNode {
			next = sn.closure(next, st.star)
		} else {
			next = sn.closure(next, st.attr)
		}
		if st.self {
			next = sn.closure(next, u) // the // state stays active at all depths
		}
	}
	slices.Sort(next)
	next = slices.Compact(next)
	r.scratch = next
	if m.size()+m.cost(sn, next)+1 > memoLimit {
		r.detach(depth)
		k = transKey(r.enter(depth), s, kind)
	}
	id := m.intern(sn, next)
	m.addTrans(k, id)
	return id
}

// closure appends state u and its ε chain to set.
func (sn *streamNFA) closure(set []int32, u stateID) []int32 {
	for ; u != noState; u = sn.states[u].eps {
		set = append(set, u)
	}
	return set
}

// enter returns the memo id of the set at path[depth], entering it again
// if a flush detached it.
func (r *MatchResult) enter(depth int) int32 {
	ps := &r.path[depth]
	if ps.set < 0 {
		states := r.pathBuf[ps.lo:ps.hi]
		if r.memo.size()+r.memo.cost(r.sn, states) > memoLimit {
			r.detach(depth)
			states = r.pathBuf[ps.lo:ps.hi]
		}
		ps.set = r.memo.intern(r.sn, states)
	}
	return ps.set
}

// detach empties the memo at its bound. The sets of path[0..depth], the
// walk's own state, are copied out first; each is entered again only when
// the walk next steps from it, so what a flush keeps of the path is what the
// walk still reads.
func (r *MatchResult) detach(depth int) {
	m := r.memo
	buf := r.pathSwap[:0]
	for d := range r.path[:depth+1] {
		ps := &r.path[d]
		var states []int32
		if ps.set >= 0 {
			states = m.states(ps.set)
		} else {
			states = r.pathBuf[ps.lo:ps.hi]
		}
		ps.set, ps.lo = -1, int32(len(buf))
		buf = append(buf, states...)
		ps.hi = int32(len(buf))
	}
	r.pathBuf, r.pathSwap = buf, r.pathBuf
	m.reset(r.sn)
	m.resets++
}
