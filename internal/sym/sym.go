// Package sym is the module-wide symbol interner: element and attribute
// names are mapped to dense int32 ids, so the per-document hot path (the
// XML scanner's node names, NFA transitions in internal/yfilter) compares
// and hashes 4-byte ids instead of re-hashing string bytes on every
// document. Join values are not symbols: the join state owns them and
// retires them with its window (internal/core, State).
//
// The table is process-global and append-only. Global scope is what makes
// ids safe to use everywhere at once: every engine configuration of one
// process agrees on the id of a given name, so id-keyed structures behave
// identically across configurations; the sequential oracle compares
// strings, and the differential harness holds the engines to it. Ids are
// NOT stable across processes (they depend on interning order), so nothing
// durable may contain one: snapshot encoding maps ids back to strings
// (internal/core/snapshot.go) and the snapshot byte-compare tests pin that.
//
// The table owns its strings: a novel string is copied on insert, so a
// name sliced out of a document or a wire line never keeps that whole
// buffer alive for the life of the process. A repeat lookup allocates
// nothing, whatever buffer its argument points into.
//
// The index is open addressing over a pointer-free slot array: a string is
// hashed once (hash/maphash, seeded per process), a hit is that hash and one
// probe sequence under the read lock, and a miss probes again from the same
// hash under the write lock and files the copy in the free slot it ends on.
package sym

import (
	"hash/maphash"
	"strings"
	"sync"
)

// ID is a dense interned-symbol identifier. The zero id is the empty
// string, so zero-valued ids never alias a real symbol by accident.
type ID int32

var global = newTable()

// table is the interner. Reads (the hot path: a hit on an already-interned
// symbol) take the read lock only; the write lock is taken once per novel
// string for the lifetime of the process.
type table struct {
	seed maphash.Seed

	mu sync.RWMutex
	// slots indexes the ids by hash: 0 is a free slot, any other value is
	// 1 + the id filed there, at or after (linear probing) the slot its
	// hash picks. The length is a power of two at least twice the number
	// of ids, so a probe sequence ends at a free slot soon.
	slots []int32
	// names[id] is the string id was interned from and hashes[id] its
	// hash: a probe compares strings only when the hashes agree, and a
	// doubling refiles every id without hashing a string again.
	names  []string
	hashes []uint64
}

// newTable returns a table holding only "" (id 0).
func newTable() *table {
	t := &table{seed: maphash.MakeSeed(), slots: make([]int32, 64)}
	t.intern(false, "")
	return t
}

// Intern returns the id of s, interning it on first sight.
func Intern(s string) ID {
	id, _ := global.intern(false, s)
	return id
}

// InternName is Intern that also returns the table's own copy of s, which a
// caller keeps in place of s so as not to retain the buffer s points into
// (the XML scanner's element names).
func InternName(s string) (ID, string) { return global.intern(false, s) }

// AttrIntern returns the id of "@"+name without allocating the
// concatenation when the attribute has been seen before. Attribute symbols
// share the element namespace under the "@" prefix, exactly like the NFA's
// transition alphabet.
func AttrIntern(name string) ID {
	id, _ := global.intern(true, name)
	return id
}

// Lookup returns the id of s without interning it; ok is false when s has
// never been interned.
func Lookup(s string) (ID, bool) {
	t := global
	h := t.hash(false, s)
	t.mu.RLock()
	_, id := t.find(h, false, s)
	t.mu.RUnlock()
	return id, id >= 0
}

// Name returns the string a live id was interned from. It panics on an id
// that was never issued — such a value is a corrupted or cross-process id,
// never valid data.
func Name(id ID) string {
	t := global
	t.mu.RLock()
	s := t.names[id]
	t.mu.RUnlock()
	return s
}

// Count returns the number of interned symbols; ids are dense in [0,
// Count). Transition-table builders size their id-indexed arrays with it.
func Count() int {
	t := global
	t.mu.RLock()
	n := len(t.names)
	t.mu.RUnlock()
	return n
}

// hash is the hash of s, or of "@"+s when at is set.
func (t *table) hash(at bool, s string) uint64 {
	if !at {
		return maphash.String(t.seed, s)
	}
	var h maphash.Hash
	h.SetSeed(t.seed)
	h.WriteByte('@')
	h.WriteString(s)
	return h.Sum64()
}

// find returns the slot of the symbol s (or "@"+s when at is set), whose hash
// is h, and its id; for a symbol not in the table, the free slot its probe
// sequence ended on and -1. The caller holds either lock.
func (t *table) find(h uint64, at bool, s string) (int, ID) {
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := t.slots[i]
		if e == 0 {
			return int(i), -1
		}
		id := ID(e - 1)
		if t.hashes[id] != h {
			continue
		}
		if n := t.names[id]; at && len(n) == len(s)+1 && n[0] == '@' && n[1:] == s || !at && n == s {
			return int(i), id
		}
	}
}

// intern returns the id of s (or "@"+s when at is set) and the table's copy
// of that string, inserting a copy on first sight.
func (t *table) intern(at bool, s string) (ID, string) {
	h := t.hash(at, s)
	t.mu.RLock()
	_, id := t.find(h, at, s)
	var name string
	if id >= 0 {
		name = t.names[id]
	}
	t.mu.RUnlock()
	if id >= 0 {
		return id, name
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	slot, id := t.find(h, at, s)
	if id >= 0 {
		return id, t.names[id]
	}
	if at {
		name = "@" + s
	} else {
		name = strings.Clone(s)
	}
	id = ID(len(t.names))
	t.names = append(t.names, name)
	t.hashes = append(t.hashes, h)
	t.slots[slot] = int32(id) + 1
	if 2*len(t.names) > len(t.slots) {
		t.grow()
	}
	return id, name
}

// grow doubles the slot array and refiles every id from its kept hash. The
// caller holds the write lock.
func (t *table) grow() {
	t.slots = make([]int32, 2*len(t.slots))
	mask := uint64(len(t.slots) - 1)
	for id, h := range t.hashes {
		i := h & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(id) + 1
	}
}
