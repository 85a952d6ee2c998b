package mmqjp

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/workload"
)

// windowedRSSSources returns the source text of n Section-6.3 feed
// subscriptions with a 500-unit window (the benchmark's rss_window shape), as
// fresh strings nothing but the caller holds once the generator's parsed
// queries are collected.
func windowedRSSSources(seed int64, n int) []string {
	qs := workload.DefaultRSS().Queries(rand.New(rand.NewSource(seed)), n)
	out := make([]string, n)
	for i, q := range qs {
		out[i] = strings.Replace(q.Source, ", INF}", ", 500}", 1)
	}
	return out
}

// liveHeap forces a full collection and reads the live heap.
func liveHeap() (bytes, objects int64) {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc), int64(ms.HeapObjects)
}

// subscribeAll subscribes every source and returns the ids.
func subscribeAll(t *testing.T, eng *Engine, srcs []string) []QueryID {
	t.Helper()
	ids := make([]QueryID, len(srcs))
	for i, src := range srcs {
		id, err := eng.Subscribe(src)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return ids
}

// TestSubscriptionHeapCeiling bounds what standing subscriptions retain: a
// subscription is a row — source text, PUBLISH stream, window, template and
// vector-group membership — not a parse tree. Ten thousand windowed feed
// subscriptions (five templates) must keep the live heap under 8 MB and
// 110 000 objects, source text included (with one xscl.Query per subscription
// retained it was 20 MB and 300 000), and unsubscribing all of them must give
// it back. The churn case replaces the oldest of 1 000 standing subscriptions
// 20 000 times and must end within 10% of a fresh engine that subscribed the
// surviving 1 000 directly, and of one OpenEngine restored from its snapshot
// under the same ids: no table keeps anything per lifetime registration.
// Every measurement starts before the sources are generated: the text
// counts, held by the engine alone when the heap is read.
func TestSubscriptionHeapCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not fixed under the race detector")
	}
	opts := Options{}

	t.Run("standing", func(t *testing.T) {
		const n = 10000
		b0, o0 := liveHeap()
		eng := New(opts)
		ids := subscribeAll(t, eng, windowedRSSSources(1, n))
		b1, o1 := liveHeap()
		t.Logf("%d subscriptions on %d templates retain %.2f MB, %d objects",
			n, eng.NumTemplates(), float64(b1-b0)/1e6, o1-o0)
		if b1-b0 > 8<<20 {
			t.Errorf("live heap grew %d bytes, want <= %d", b1-b0, 8<<20)
		}
		if o1-o0 > 110000 {
			t.Errorf("live heap grew %d objects, want <= 110000", o1-o0)
		}
		for _, id := range ids {
			if err := eng.Unsubscribe(id); err != nil {
				t.Fatal(err)
			}
		}
		ids = nil
		b2, _ := liveHeap()
		t.Logf("after unsubscribing all: %.2f MB", float64(b2-b0)/1e6)
		if b2-b0 > 1<<20 {
			t.Errorf("%d bytes still live after the last subscription left, want <= %d", b2-b0, 1<<20)
		}
		runtime.KeepAlive(eng)
	})

	t.Run("churn", func(t *testing.T) {
		const standing, rounds = 1000, 20000
		b0, _ := liveHeap()
		eng := New(opts)
		{
			srcs := windowedRSSSources(2, standing+rounds)
			ids := subscribeAll(t, eng, srcs[:standing])
			for i, src := range srcs[standing:] {
				if err := eng.Unsubscribe(ids[i]); err != nil {
					t.Fatal(err)
				}
				id, err := eng.Subscribe(src)
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
		}
		b1, _ := liveHeap()
		got := b1 - b0

		var snap bytes.Buffer
		if err := eng.Snapshot(&snap); err != nil {
			t.Fatal(err)
		}
		eng = nil
		b0, _ = liveHeap()
		fresh, err := OpenEngine(bytes.NewReader(snap.Bytes()), opts)
		if err != nil {
			t.Fatal(err)
		}
		b1, _ = liveHeap()
		runtime.KeepAlive(&snap)
		restored := b1 - b0
		if fresh.NumQueries() != standing {
			t.Fatalf("restored engine holds %d subscriptions, want %d", fresh.NumQueries(), standing)
		}

		b0, _ = liveHeap()
		direct := New(opts)
		subscribeAll(t, direct, windowedRSSSources(2, standing+rounds)[rounds:])
		b1, _ = liveHeap()
		runtime.KeepAlive(direct)
		want := b1 - b0
		t.Logf("%d subscriptions after %d replacements: %.2f MB; restored into a fresh engine: %.2f MB; subscribed directly: %.2f MB",
			standing, rounds, float64(got)/1e6, float64(restored)/1e6, float64(want)/1e6)
		for _, w := range []struct {
			name string
			b    int64
		}{{"a restored engine's", restored}, {"a fresh engine's", want}} {
			if float64(got) > 1.10*float64(w.b) {
				t.Errorf("live heap after churn is %d bytes, want within 10%% of %s %d", got, w.name, w.b)
			}
		}
	})
}

// TestQueryTextSurvivesRegister pins what the facade's subscription record
// answers once the parsed query is gone: Query returns the source verbatim
// (odd spacing and all) for live ids and "" after Unsubscribe, a snapshot
// restores the same ids with the same text, and a PUBLISH query still
// resolves its stream — on its matches and in the cascade — from the record,
// before and after a restore.
func TestQueryTextSurvivesRegister(t *testing.T) {
	srcs := []string{
		"S//alert->a[./host->h][./sev->s]   FOLLOWED BY{h=h2 AND s=s2, 1000}  S//confirm->c[./host->h2][./sev->s2] PUBLISH incidents",
		"incidents//alert->a[./host->h] JOIN{h=h2, ROWS 50} P//page->p[./host->h2]",
		"SELECT * FROM S//alert->a[./sev->s]",
		paperQ1,
	}
	opts := Options{EnableComposition: true}
	eng := New(opts)
	ids := subscribeAll(t, eng, srcs)
	if err := eng.Unsubscribe(ids[3]); err != nil {
		t.Fatal(err)
	}
	check := func(label string, e *Engine) {
		t.Helper()
		if got := e.Subscriptions(); !reflect.DeepEqual(got, ids[:3]) {
			t.Errorf("%s: Subscriptions = %v, want %v", label, got, ids[:3])
		}
		for i, id := range ids {
			want := srcs[i]
			if i == 3 {
				want = ""
			}
			if got := e.Query(id); got != want {
				t.Errorf("%s: Query(%d) = %q, want %q", label, id, got, want)
			}
		}
		publishXML(e, "P", "<page><host>web1</host></page>", 1, 10)
		publishXML(e, "S", "<alert><host>web1</host><sev>hi</sev></alert>", 2, 11)
		ms, err := publishXML(e, "S", "<confirm><host>web1</host><sev>hi</sev></confirm>", 3, 12)
		if err != nil {
			t.Fatal(err)
		}
		// The upstream match carries its stream and its derived document
		// reaches the downstream JOIN.
		var streams []string
		for _, m := range ms {
			streams = append(streams, fmt.Sprintf("%d:%s", m.Query, m.Publish))
		}
		if want := []string{"0:incidents", "1:"}; !reflect.DeepEqual(streams, want) {
			t.Errorf("%s: matches (query:stream) = %v, want %v", label, streams, want)
		}
	}
	var snap bytes.Buffer
	if err := eng.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	check("live", eng)
	restored, err := OpenEngine(&snap, opts)
	if err != nil {
		t.Fatal(err)
	}
	check("restored", restored)
}
