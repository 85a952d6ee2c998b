package sym

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func TestInternRoundTrip(t *testing.T) {
	a := Intern("channel")
	b := Intern("channel")
	if a != b {
		t.Fatalf("same string interned to %d and %d", a, b)
	}
	if Name(a) != "channel" {
		t.Fatalf("Name(%d) = %q", a, Name(a))
	}
	if c := Intern("item"); c == a {
		t.Fatalf("distinct strings share id %d", c)
	}
}

func TestZeroIDIsEmptyString(t *testing.T) {
	if id := Intern(""); id != 0 {
		t.Fatalf("empty string id = %d, want 0", id)
	}
	if Name(0) != "" {
		t.Fatalf("Name(0) = %q", Name(0))
	}
}

func TestAttrInternMatchesPrefixedIntern(t *testing.T) {
	if got, want := AttrIntern("href"), Intern("@href"); got != want {
		t.Fatalf("AttrIntern(href) = %d, Intern(@href) = %d", got, want)
	}
	// Hit path (already cached) must agree too.
	if got, want := AttrIntern("href"), Intern("@href"); got != want {
		t.Fatalf("cached AttrIntern(href) = %d, Intern(@href) = %d", got, want)
	}
}

func TestLookupDoesNotIntern(t *testing.T) {
	before := Count()
	if _, ok := Lookup("sym-test-never-interned"); ok {
		t.Fatal("Lookup invented a symbol")
	}
	if Count() != before {
		t.Fatal("Lookup grew the table")
	}
	id := Intern("sym-test-now-interned")
	if got, ok := Lookup("sym-test-now-interned"); !ok || got != id {
		t.Fatalf("Lookup after Intern = (%d, %v), want (%d, true)", got, ok, id)
	}
}

// TestInternCopiesNovelStrings pins that the table owns its strings: a value
// interned from a slice of a long buffer (a wire line, a document) must not
// keep that buffer alive, so what the table hands back lies elsewhere.
func TestInternCopiesNovelStrings(t *testing.T) {
	line := "PUB S 1 <r><v>sym-test-novel-value</v><a k=\"x\"/></r>"
	i := strings.Index(line, "sym-test-novel")
	value := line[i : i+len("sym-test-novel-value")]
	inside := func(s string) bool {
		p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(line)))
		return p >= lo && p < lo+uintptr(len(line))
	}
	id := Intern(value)
	if got := Name(id); got != value || inside(got) {
		t.Errorf("Name(Intern(value)) = %q, inside the caller's buffer: %v", got, inside(got))
	}
	if _, got := InternName(line[i : i+len("sym-test-novel")]); inside(got) {
		t.Error("InternName returned a string inside the caller's buffer")
	}
	j := strings.Index(line, "k=")
	attr := AttrIntern(line[j : j+1])
	if inside(Name(attr)) {
		t.Error("AttrIntern kept the caller's buffer")
	}
	if AttrIntern(line[j:j+1]) != attr {
		t.Error("AttrIntern is not stable")
	}
}

// TestRepeatInternDoesNotAllocate pins the hot path the XML scanner and
// Stage 1 take for every name and join value: a symbol already in the table,
// looked up by a substring of a larger buffer or by a string converted from
// bytes in place, costs no allocation.
func TestRepeatInternDoesNotAllocate(t *testing.T) {
	line := "<entry><author>sym-test-repeat</author></entry>"
	sub := line[len("<entry><author>") : len(line)-len("</author></entry>")]
	id := Intern(sub)
	AttrIntern(sub)
	b := []byte(sub)
	allocs := testing.AllocsPerRun(100, func() {
		if Intern(sub) != id {
			t.Fatal("unstable id")
		}
		if got, name := InternName(line[1:6]); Name(got) != name {
			t.Fatal("InternName disagrees with Name")
		}
		AttrIntern(sub)
		if got, ok := Lookup(string(b)); !ok || got != id {
			t.Fatal("Lookup by bytes missed")
		}
	})
	if allocs != 0 {
		t.Errorf("%.1f allocations per repeat lookup, want 0", allocs)
	}
}

func TestConcurrentInternIsConsistent(t *testing.T) {
	const goroutines = 8
	const symbols = 200
	ids := make([][]ID, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids[g] = make([]ID, symbols)
			for i := 0; i < symbols; i++ {
				ids[g][i] = Intern(fmt.Sprintf("concurrent-%d", i))
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := 0; i < symbols; i++ {
			if ids[g][i] != ids[0][i] {
				t.Fatalf("goroutine %d interned concurrent-%d as %d, goroutine 0 as %d", g, i, ids[g][i], ids[0][i])
			}
		}
	}
	for i := 0; i < symbols; i++ {
		if Name(ids[0][i]) != fmt.Sprintf("concurrent-%d", i) {
			t.Fatalf("Name(%d) = %q", ids[0][i], Name(ids[0][i]))
		}
	}
}
