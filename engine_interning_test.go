package mmqjp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"testing"

	"repro/internal/sym"
)

// Differential tests for the symbol-interning layer. The shared-join plans
// compare join values through dense interned ids (core.Sym columns, the
// rdocBySym posting lists, the views' strVal columns); ProcessorSequential
// evaluates each query alone and compares the original strings, so it is a
// string-keyed oracle the interned engines must match byte for byte.
// Interning is a pure representation change — any id that leaked into a
// comparison, a hash partition decision, or a snapshot would show up here as
// divergence.

// TestInterningDifferential runs the RSS workload through every shared-join
// plan × worker count and requires per-document output
// byte-identical to the sequential (string-keyed) oracle.
func TestInterningDifferential(t *testing.T) {
	sources, stream := snapshotWorkload(40, 120)

	oracle := New(Options{Processor: ProcessorSequential})
	for _, src := range sources {
		oracle.MustSubscribe(src)
	}
	var want []string
	total := 0
	for _, d := range stream {
		ms := publishOne(oracle, "S", d)
		total += len(ms)
		want = append(want, renderEngineMatches(ms))
	}
	if total == 0 {
		t.Fatal("oracle produced no matches; the comparison is vacuous")
	}

	eng := New(Options{})
	for _, src := range sources {
		eng.MustSubscribe(src)
	}
	for di, d := range stream {
		if got := renderEngineMatches(publishOne(eng, "S", d)); got != want[di] {
			t.Fatalf("doc %d diverges from sequential oracle:\ngot:\n%swant:\n%s",
				di+1, got, want[di])
		}
	}
}

// TestSnapshotInterningInvariance proves interned ids never reach snapshot
// bytes. A snapshot taken mid-stream must carry the original join-value
// strings (asserted directly on the raw bytes), and restoring it into a
// process whose interner has moved on — simulated by interning thousands of
// novel strings between snapshot and restore, so every re-interned value
// lands on a different id — must yield a byte-identical re-snapshot and a
// byte-identical continuation of the match stream.
func TestSnapshotInterningInvariance(t *testing.T) {
	sources, stream := snapshotWorkload(40, 120)
	const cut = 60

	live := New(Options{})
	for _, src := range sources {
		live.MustSubscribe(src)
	}
	publishBatch(live, "S", stream[:cut])

	var store MemStore
	if err := live.SnapshotTo(&store); err != nil {
		t.Fatal(err)
	}
	blob := readStore(t, &store)

	// The snapshot must be strings, not ids: every join value the in-window
	// Rdoc rows hold appears literally in the bytes.
	values := rdocValues(t, blob)
	if len(values) == 0 {
		t.Fatal("no Rdoc rows in window; the string-leak assertion is vacuous")
	}
	for v := range values {
		if !bytes.Contains(blob, []byte(v)) {
			t.Fatalf("snapshot does not contain join value %q — did an interned id leak to disk?", v)
		}
	}

	// Shift the process-global interner so a restored engine cannot get the
	// snapshot-time ids back by accident.
	for i := 0; i < 5000; i++ {
		sym.Intern(fmt.Sprintf("interner-shift-%d", i))
	}

	restored, err := OpenEngineFrom(&store, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Re-snapshotting the restored engine reproduces the original bytes:
	// restore rebuilt rows in row order and re-interned under the shifted
	// table, and none of that is visible on disk.
	var store2 MemStore
	if err := restored.SnapshotTo(&store2); err != nil {
		t.Fatal(err)
	}
	if blob2 := readStore(t, &store2); !bytes.Equal(blob, blob2) {
		t.Fatalf("re-snapshot after interner shift differs from original: %d bytes vs %d", len(blob2), len(blob))
	}

	for di, d := range stream[cut:] {
		got := renderEngineMatches(publishOne(restored, "S", d))
		want := renderEngineMatches(publishOne(live, "S", d))
		if got != want {
			t.Fatalf("restored engine diverges on doc %d after interner shift:\ngot:\n%swant:\n%s",
				cut+di+1, got, want)
		}
	}
}

func readStore(t *testing.T, s *MemStore) []byte {
	t.Helper()
	rc, err := s.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	b, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// rdocValues decodes the snapshot blob and collects the distinct join-value
// strings its Rdoc rows carry.
func rdocValues(t *testing.T, blob []byte) map[string]bool {
	t.Helper()
	var snap engineSnapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatalf("decode snapshot: %v", err)
	}
	vals := map[string]bool{}
	for _, r := range snap.State.Rdoc {
		vals[r.Str] = true
	}
	return vals
}
