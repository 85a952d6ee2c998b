package core

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"testing"
)

// dictKeyHash is the hash FuzzValueDictionary files value k under. Most keys
// hash to the last slots of any power-of-two table (all low bits set but a
// few), so their probe runs wrap around the table's end; others hash to its
// first slots, where the wrapped runs land, or collide outright; the rest
// take the real hash.
func dictKeyHash(k int, v string) uint64 {
	switch k % 4 {
	case 0, 1:
		return 1<<40 - 1 - uint64(k%5)
	case 2:
		return uint64(k%3) | uint64(k)<<32
	default:
		return maphash.String(valueSeed, v)
	}
}

// FuzzValueDictionary drives the join state's value dictionary through
// interleaved inserts, look-ups and retirements chosen by the input's bytes,
// against a map from value to id. The keys are few and their hashes cluster
// (dictKeyHash), so the table stays small and its probe runs wrap around its
// end. After every step every live value must be found under the id it was
// given — after a retirement too, whose backward shift moves the entries
// behind the retired one — and every retired value must be absent; the
// dictionary's invariants (checkValueDict) must hold throughout.
func FuzzValueDictionary(f *testing.F) {
	f.Add([]byte{0, 4, 8, 12, 16, 1, 4, 2, 0, 0, 20, 1, 8, 2, 4})
	f.Add(bytes.Repeat([]byte{0, 1, 5, 9, 13, 17, 2, 1, 1, 5}, 12))
	f.Add([]byte{3, 7, 11, 15, 19, 23, 27, 31, 1, 3, 1, 7, 1, 11, 2, 15, 2, 19})
	// Two values with one home slot, and the first retired: the second
	// must move up into it.
	f.Add([]byte("000A10"))
	// Values on the table's last slots and on its first, and a retirement
	// among them: an entry moves up only when its home allows it, across
	// the table's end included.
	f.Add([]byte("02000910"))
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1024 {
			prog = prog[:1024]
		}
		s := NewState()
		ref := map[string]int32{}
		key := func(b byte) (string, uint64) {
			k := int(b) % 32
			v := fmt.Sprintf("value-%d", k)
			return v, dictKeyHash(k, v)
		}
		for pc := 0; pc+1 < len(prog); pc += 2 {
			v, h := key(prog[pc+1])
			switch prog[pc] % 3 {
			case 0: // insert, or find again
				id := s.valueID(v, h)
				if want, ok := ref[v]; ok && id != want {
					t.Fatalf("step %d: %q resolved to %d, it holds %d", pc/2, v, id, want)
				}
				for other, oid := range ref {
					if oid == id && other != v {
						t.Fatalf("step %d: %q got id %d, which %q holds", pc/2, v, id, other)
					}
				}
				if s.value(id) != v {
					t.Fatalf("step %d: id %d reads %q, want %q", pc/2, id, s.value(id), v)
				}
				ref[v] = id
			case 1: // retire
				if id, ok := ref[v]; ok {
					s.retire(id)
					delete(ref, v)
				}
			default: // look up
				_, id := s.values.find(s.lists, h, v)
				if want, ok := ref[v]; !ok && id >= 0 || ok && id != want {
					t.Fatalf("step %d: look-up of %q found %d, want %d (held %v)", pc/2, v, id, want, ok)
				}
			}
			for v, want := range ref {
				if _, id := s.values.find(s.lists, s.lists[want].hash, v); id != want {
					t.Fatalf("step %d: live %q found as %d, want %d", pc/2, v, id, want)
				}
			}
			if s.NumValues() != len(ref) {
				t.Fatalf("step %d: %d values, want %d", pc/2, s.NumValues(), len(ref))
			}
			checkValueDict(t, s)
		}
	})
}
