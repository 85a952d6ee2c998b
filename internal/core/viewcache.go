package core

import (
	"repro/internal/relation"
	"repro/internal/sym"
	"repro/internal/xmldoc"
)

// ViewCache is the Section-5 cache of materialized RL slices: each entry is
// keyed by the interned symbol of a string value s (internal/sym) and holds
// the relation R_{L,s} — the part of the materialized left view whose
// tuples carry string value s. Symbol keys hash in constant time; they are
// process-scoped, which is fine because caches are never snapshotted. Entries are
// maintained incrementally by Algorithm 5 and dropped when window GC expires
// a document their slice references, so the cache is bounded by the window
// like the join state it is a view of.
type ViewCache struct {
	entries map[sym.ID]*cacheEntry

	hits, misses int64
	// invalidations counts entries dropped because their contents became
	// stale (window GC expiring documents their slices reference).
	invalidations int64
}

type cacheEntry struct {
	slice *relation.Relation
	// docs is the set of documents the slice references, so GC staleness
	// checks are O(expired docs) instead of rescanning every slice row.
	docs map[xmldoc.DocID]struct{}
}

// sliceDocs collects the distinct docids of a slice (one pass, paid when the
// entry is created or replaced — the same order of work that computed the
// slice itself).
func sliceDocs(slice *relation.Relation) map[xmldoc.DocID]struct{} {
	docs := map[xmldoc.DocID]struct{}{}
	col := slice.Schema.Col("docid")
	for _, row := range slice.Rows {
		docs[xmldoc.DocID(row[col])] = struct{}{}
	}
	return docs
}

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

// Put inserts (or replaces) the slice for s.
func (c *ViewCache) Put(s sym.ID, slice *relation.Relation) {
	c.entries[s] = &cacheEntry{slice: slice, docs: sliceDocs(slice)}
}

// Clear drops all entries, accounting for them as invalidations. It is the
// whole-cache staleness path: full state reclamation when the last query
// unregisters (processor.reclaimAll).
func (c *ViewCache) Clear() {
	c.invalidations += int64(len(c.entries))
	c.entries = map[sym.ID]*cacheEntry{}
}

// GetAndNote is the Algorithm-5 maintenance lookup: the caller is about to
// insert rows of document d into the returned slice, so the entry's doc set
// is updated in the same lookup. Maintenance is not a cache read, so it
// leaves the hit/miss counters alone.
func (c *ViewCache) GetAndNote(s sym.ID, d xmldoc.DocID) (*relation.Relation, bool) {
	e, ok := c.entries[s]
	if !ok {
		return nil, false
	}
	e.docs[d] = struct{}{}
	return e.slice, true
}

// InvalidateDocs drops the entries whose slices reference an expired
// document, leaving every other non-empty entry in place (incremental
// maintenance keeps survivors exact). Used after window GC instead of a full
// Clear. The check walks the per-entry doc sets, never the slice rows, so the
// cost is O(entries × min(docs per entry, expired)).
//
// Empty slices (strings bound only on single-node template sides, which have
// no Rbin rows) reference no document, so no expiry would ever reach them;
// they are dropped with every GC — recomputing one is a few index probes
// that find no rows — which keeps the entry count bounded by the window for
// them too.
func (c *ViewCache) InvalidateDocs(expired map[xmldoc.DocID]bool) {
	if len(expired) == 0 || len(c.entries) == 0 {
		return
	}
	//mmqjp:unordered each entry is checked and dropped independently
	for key, e := range c.entries {
		docs := e.docs
		stale := len(docs) == 0
		if len(docs) <= len(expired) {
			//mmqjp:unordered existence probe; any hit gives the same verdict
			for d := range docs {
				if expired[d] {
					stale = true
					break
				}
			}
		} else {
			//mmqjp:unordered existence probe; any hit gives the same verdict
			for d := range expired {
				if _, ok := docs[d]; ok {
					stale = true
					break
				}
			}
		}
		if stale {
			delete(c.entries, key)
			c.invalidations++
		}
	}
}

// Len returns the number of cached slices.
func (c *ViewCache) Len() int { return len(c.entries) }

// HitRate returns the Get hits and misses since creation.
func (c *ViewCache) HitRate() (hits, misses int64) { return c.hits, c.misses }

// Invalidations returns the number of entries dropped as stale (Clear and
// InvalidateDocs) since creation.
func (c *ViewCache) Invalidations() int64 { return c.invalidations }
