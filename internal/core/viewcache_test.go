package core

import (
	"fmt"
	"testing"

	"repro/internal/relation"
	"repro/internal/sym"
)

func sliceOf(vals ...int64) *relation.Relation {
	r := relation.New(rlSchema...)
	for _, v := range vals {
		r.Insert(v, 0, 0, 0, 0, int64(sym.Intern("s")))
	}
	return r
}

func TestViewCachePutGet(t *testing.T) {
	var st Stats
	c := NewViewCache(&st)
	if _, ok := c.Get(sym.Intern("a")); ok {
		t.Error("empty cache hit")
	}
	c.Put(sym.Intern("a"), sliceOf(1))
	got, ok := c.Get(sym.Intern("a"))
	if !ok || got.Len() != 1 {
		t.Errorf("get = %v, %v", got, ok)
	}
	// Algorithm-5 maintenance lookups (hit or miss) are not cache reads.
	c.GetAndNote(sym.Intern("a"), 2)
	c.GetAndNote(sym.Intern("absent"), 2)
	if st.ViewCacheHits != 1 || st.ViewCacheMisses != 1 {
		t.Errorf("hits=%d misses=%d", st.ViewCacheHits, st.ViewCacheMisses)
	}
}

func TestViewCacheReplace(t *testing.T) {
	c := NewViewCache(&Stats{})
	c.Put(sym.Intern("a"), sliceOf(1))
	c.Put(sym.Intern("a"), sliceOf(1, 2))
	got, _ := c.Get(sym.Intern("a"))
	if got.Len() != 2 {
		t.Errorf("replace did not take: %d rows", got.Len())
	}
	if c.Len() != 1 {
		t.Errorf("len = %d after replace", c.Len())
	}
}

func TestViewCacheClear(t *testing.T) {
	c := NewViewCache(&Stats{})
	for i := 0; i < 10; i++ {
		c.Put(sym.Intern(fmt.Sprint(i)), sliceOf(int64(i)))
	}
	c.Clear()
	if c.Len() != 0 {
		t.Errorf("len = %d after clear", c.Len())
	}
	if _, ok := c.Get(sym.Intern("3")); ok {
		t.Error("entry survived clear")
	}
}
