// Package sym is the module-wide symbol interner: element and attribute
// names and join-value strings are mapped to dense int32 ids, so the
// per-document hot path (NFA transitions in internal/yfilter, value-join
// columns in internal/relation and internal/core) compares and hashes
// 4-byte ids instead of re-hashing string bytes on every document.
//
// The table is process-global and append-only. Global scope is what makes
// ids safe to use everywhere at once: every engine configuration and the
// sequential oracle of one process agree on the id of a given string, so
// id-keyed structures behave identically across configurations — which the
// differential harness checks. Ids are NOT
// stable across processes (they depend on interning order), so nothing
// durable may contain one: snapshot encoding maps ids back to strings
// (internal/core/snapshot.go) and the snapshot byte-compare tests pin that.
//
// The table never shrinks. Element and attribute vocabularies are tiny and
// closed; join values are open-ended, so a long-lived process interning
// adversarial value streams grows the table without bound — the documented
// tradeoff for an allocation-free equality/hash path. See DESIGN.md
// "Memory & interning".
//
// The table owns its strings: a novel string is copied on insert, so a
// value sliced out of a document or a wire line never keeps that whole
// buffer alive for the life of the process. A repeat lookup allocates
// nothing, whatever buffer its argument points into.
package sym

import (
	"strings"
	"sync"
)

// ID is a dense interned-symbol identifier. The zero id is the empty
// string, so zero-valued ids never alias a real symbol by accident.
type ID int32

var global = func() *table {
	t := &table{ids: map[string]ID{}, attrs: map[string]ID{}}
	t.intern("") // pin ID 0 = ""
	return t
}()

// table is the interner. Reads (the hot path: a hit on an already-interned
// symbol) take the read lock only; the write lock is taken once per novel
// string for the lifetime of the process.
type table struct {
	mu    sync.RWMutex
	ids   map[string]ID
	names []string
	// attrs maps a bare attribute name to the id of "@"+name, so the
	// hot path interns attribute symbols without concatenating.
	attrs map[string]ID
}

// Intern returns the id of s, interning it on first sight.
func Intern(s string) ID {
	id, _ := global.intern(s)
	return id
}

// InternName is Intern that also returns the table's own copy of s, which a
// caller keeps in place of s so as not to retain the buffer s points into
// (the XML scanner's element names).
func InternName(s string) (ID, string) { return global.intern(s) }

// AttrIntern returns the id of "@"+name without allocating the
// concatenation when the attribute has been seen before. Attribute symbols
// share the element namespace under the "@" prefix, exactly like the NFA's
// transition alphabet.
func AttrIntern(name string) ID {
	t := global
	t.mu.RLock()
	id, ok := t.attrs[name]
	t.mu.RUnlock()
	if ok {
		return id
	}
	id, at := t.intern("@" + name)
	t.mu.Lock()
	t.attrs[at[1:]] = id
	t.mu.Unlock()
	return id
}

// Lookup returns the id of s without interning it; ok is false when s has
// never been interned.
func Lookup(s string) (ID, bool) {
	t := global
	t.mu.RLock()
	id, ok := t.ids[s]
	t.mu.RUnlock()
	return id, ok
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

// intern returns the id of s and the table's copy of it, inserting a copy
// on first sight.
func (t *table) intern(s string) (ID, string) {
	t.mu.RLock()
	id, ok := t.ids[s]
	if ok {
		s = t.names[id]
	}
	t.mu.RUnlock()
	if ok {
		return id, s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[s]; ok {
		return id, t.names[id]
	}
	s = strings.Clone(s)
	id = ID(len(t.names))
	t.ids[s] = id
	t.names = append(t.names, s)
	return id, s
}
