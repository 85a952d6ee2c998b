package core

import (
	"repro/internal/relation"
	"repro/internal/sym"
)

// ViewCache is the Section-5 cache of materialized RL slices: each entry is
// keyed by the interned symbol of a string value s (internal/sym) and holds
// the relation R_{L,s} — the part of the materialized left view whose
// tuples carry string value s. Symbol keys hash in constant time; they are
// process-scoped, which is fine because caches are never snapshotted. Entries are
// maintained incrementally by Algorithm 5 and dropped when window GC expires
// a document their slice references, so the cache is bounded by the window
// like the join state it is a view of.
//
// A slice's rows carry join-state slots, and a slot is reused once its
// document expires; InvalidateDocs must therefore run on every collection,
// before the next merge, which is what lets a slot stand for one document.
type ViewCache struct {
	entries map[sym.ID]*cacheEntry
	// bySlot[s] lists the entries whose slices reference slot s, so a
	// collection reaches exactly the entries it invalidates; empty lists
	// the entries created with a slice that references no slot. Both may
	// hold entries dropped or replaced since: a reference counts only while
	// the map still holds that entry.
	bySlot [][]*cacheEntry
	empty  []*cacheEntry

	hits, misses int64
	// invalidations counts entries dropped because their contents became
	// stale (window GC expiring documents their slices reference).
	invalidations int64
}

type cacheEntry struct {
	key   sym.ID
	slice *relation.Relation
	// last is the slot most recently listed for the entry in bySlot (-1
	// for none): a slice's rows arrive grouped by document, so one compare
	// keeps the lists free of repeats.
	last int32
}

// rlSlot is the slot column of a view slice.
var rlSlot = rlSchema.Col("slot")

// NewViewCache returns an empty cache.
func NewViewCache() *ViewCache {
	return &ViewCache{entries: map[sym.ID]*cacheEntry{}}
}

// Get returns the cached slice for s.
func (c *ViewCache) Get(s sym.ID) (*relation.Relation, bool) {
	e, ok := c.entries[s]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	return e.slice, true
}

// Put inserts (or replaces) the slice for s, listing the entry under every
// slot its rows carry (one pass, paid when the entry is created — the same
// order of work that computed the slice itself).
func (c *ViewCache) Put(s sym.ID, slice *relation.Relation) {
	e := &cacheEntry{key: s, slice: slice, last: -1}
	c.entries[s] = e
	for _, row := range slice.Rows {
		c.note(e, int32(row[rlSlot]))
	}
	if e.last < 0 {
		c.empty = append(c.empty, e)
	}
}

// note lists e under slot.
func (c *ViewCache) note(e *cacheEntry, slot int32) {
	if e.last == slot {
		return
	}
	e.last = slot
	if need := int(slot) + 1; need > len(c.bySlot) {
		c.bySlot = append(c.bySlot, make([][]*cacheEntry, need-len(c.bySlot))...)
	}
	c.bySlot[slot] = append(c.bySlot[slot], e)
}

// Clear drops all entries, accounting for them as invalidations. It is the
// whole-cache staleness path: full state reclamation when the last query
// unregisters (processor.reclaimAll).
func (c *ViewCache) Clear() {
	c.invalidations += int64(len(c.entries))
	c.entries = map[sym.ID]*cacheEntry{}
	c.bySlot, c.empty = nil, nil
}

// GetAndNote is the Algorithm-5 maintenance lookup: the caller is about to
// insert rows of the document on slot into the returned slice, so the entry
// is listed under the slot in the same lookup. Maintenance is not a cache
// read, so it leaves the hit/miss counters alone.
func (c *ViewCache) GetAndNote(s sym.ID, slot int32) (*relation.Relation, bool) {
	e, ok := c.entries[s]
	if !ok {
		return nil, false
	}
	c.note(e, slot)
	return e.slice, true
}

// InvalidateDocs drops the entries whose slices reference an expired slot,
// leaving every other non-empty entry in place (incremental maintenance keeps
// survivors exact). Used after window GC instead of a full Clear. It visits
// the expired slots' lists only, so its cost follows what expired, not the
// cache's size.
//
// Empty slices (strings bound only on single-node template sides, which have
// no Rbin rows) reference no slot, so no expiry would ever reach them; they
// are dropped with every GC — recomputing one is a few index probes that
// find no rows — which keeps the entry count bounded by the window for them
// too.
func (c *ViewCache) InvalidateDocs(expired []int32) {
	if len(expired) == 0 {
		return
	}
	for _, slot := range expired {
		if int(slot) >= len(c.bySlot) {
			continue
		}
		for _, e := range c.bySlot[slot] {
			c.drop(e)
		}
		clear(c.bySlot[slot])
		c.bySlot[slot] = c.bySlot[slot][:0]
	}
	for _, e := range c.empty {
		if e.last < 0 {
			c.drop(e)
		}
	}
	clear(c.empty)
	c.empty = c.empty[:0]
}

// drop removes e if the map still holds it.
func (c *ViewCache) drop(e *cacheEntry) {
	if c.entries[e.key] == e {
		delete(c.entries, e.key)
		c.invalidations++
	}
}

// Len returns the number of cached slices.
func (c *ViewCache) Len() int { return len(c.entries) }

// HitRate returns the Get hits and misses since creation.
func (c *ViewCache) HitRate() (hits, misses int64) { return c.hits, c.misses }

// Invalidations returns the number of entries dropped as stale (Clear and
// InvalidateDocs) since creation.
func (c *ViewCache) Invalidations() int64 { return c.invalidations }
