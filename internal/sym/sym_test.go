package sym

import (
	"fmt"
	"math/rand"
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

// TestReinternDoesNotGrow pins that the table grows by one symbol per novel
// string and never on a string it holds: interning it again returns its id.
func TestReinternDoesNotGrow(t *testing.T) {
	before := Count()
	// Named after the table's size, so it is novel on every run.
	novel := fmt.Sprintf("sym-test-novel-%d", before)
	id := Intern(novel)
	if Count() != before+1 {
		t.Fatalf("a novel string grew the table by %d symbols, want 1", Count()-before)
	}
	if got := Intern(novel); got != id || Count() != before+1 {
		t.Fatalf("Intern again = %d with %d symbols, want %d with %d", got, Count(), id, before+1)
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
		if Intern(string(b)) != id {
			t.Fatal("Intern by bytes missed")
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

// TestInternMatchesMapReference holds a fresh table to a map[string]ID that
// numbers strings in first-seen order: random, repeated, empty and long
// strings and attribute forms, interned across several doublings of the slot
// array, get the reference's ids, and the table's names and lookups agree
// with it afterwards.
func TestInternMatchesMapReference(t *testing.T) {
	tb := newTable()
	slots := len(tb.slots)
	ref := map[string]ID{"": 0}
	names := []string{""}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 6000; i++ {
		at, s := false, ""
		switch rng.Intn(6) {
		case 0:
			s = names[rng.Intn(len(names))]
		case 1:
		case 2:
			s = strings.Repeat(string(rune('a'+rng.Intn(26))), 100+rng.Intn(900))
		case 3:
			at, s = true, fmt.Sprint("k", rng.Intn(300))
		default:
			s = fmt.Sprint(rng.Intn(5000))
		}
		text := s
		if at {
			text = "@" + s
		}
		want, ok := ref[text]
		if !ok {
			want = ID(len(names))
			ref[text] = want
			names = append(names, text)
		}
		if got, name := tb.intern(at, s); got != want || name != text {
			t.Fatalf("intern(%v, %.20q) = %d %.20q, reference %d", at, s, got, name, want)
		}
	}
	if len(tb.slots) < 16*slots {
		t.Fatalf("test premise: the slot array grew from %d to only %d", slots, len(tb.slots))
	}
	if len(tb.names) != len(names) {
		t.Fatalf("%d symbols, reference %d", len(tb.names), len(names))
	}
	for id, name := range names {
		if tb.names[id] != name {
			t.Fatalf("name of %d = %.20q, reference %.20q", id, tb.names[id], name)
		}
		if _, got := tb.find(tb.hash(false, name), false, name); got != ID(id) {
			t.Fatalf("lookup(%.20q) = %d, reference %d", name, got, id)
		}
	}
	for _, s := range []string{"never", "@never", strings.Repeat("z", 2000)} {
		if _, got := tb.find(tb.hash(false, s), false, s); got >= 0 {
			t.Fatalf("lookup(%.20q) found id %d", s, got)
		}
	}
}

// BenchmarkInternHit is the per-document cost of a name or join value
// already in the table.
func BenchmarkInternHit(b *testing.B) {
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("sym-bench-hit-%d", i)
		Intern(keys[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Intern(keys[i&(len(keys)-1)])
	}
}

// BenchmarkInternMiss is the cost of a novel join value: both probes, the
// copy and the insert, doublings included, into a table that starts afresh
// every 65 536 symbols so the benchmark does not grow the process's own.
func BenchmarkInternMiss(b *testing.B) {
	keys := make([]string, 1<<16)
	for i := range keys {
		keys[i] = fmt.Sprintf("sym-bench-miss-%d", i)
	}
	var tb *table
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&(len(keys)-1) == 0 {
			tb = newTable()
		}
		tb.intern(false, keys[i&(len(keys)-1)])
	}
}
