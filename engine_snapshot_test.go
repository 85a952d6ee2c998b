package mmqjp

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/workload"
)

// snapshotWorkload builds the shared differential fixture: RSS queries with
// finite windows (so GC runs mid-stream) and a document stream.
func snapshotWorkload(nq, ndocs int) ([]string, []*Document) {
	gen := workload.DefaultRSS()
	qrng := rand.New(rand.NewSource(3))
	var sources []string
	for _, q := range gen.Queries(qrng, nq) {
		sources = append(sources, strings.Replace(q.Source, "INF", "60", 1))
	}
	srng := rand.New(rand.NewSource(11))
	return sources, gen.Stream(srng, ndocs)
}

// TestEngineSnapshotRestoreDifferential is the durability requirement: an
// engine restored from a mid-stream snapshot — after subscription churn, so
// the snapshot holds id gaps — must produce byte-identical per-document
// match output to the engine that never restarted.
func TestEngineSnapshotRestoreDifferential(t *testing.T) {
	sources, stream := snapshotWorkload(60, 150)
	const cut = 75

	live := New(Options{})
	var ids []QueryID
	for _, src := range sources {
		ids = append(ids, live.MustSubscribe(src))
	}
	publishBatch(live, "S", stream[:cut])
	// Churn before the snapshot: ids 20..39 unsubscribe, leaving gaps the
	// snapshot must preserve so survivors keep their ids.
	for _, id := range ids[20:40] {
		if err := live.Unsubscribe(id); err != nil {
			t.Fatal(err)
		}
	}

	var store MemStore
	if err := live.SnapshotTo(&store); err != nil {
		t.Fatal(err)
	}
	var ref []string
	for _, d := range stream[cut:] {
		ref = append(ref, renderEngineMatches(publishOne(live, "S", d)))
	}

	restored, err := OpenEngineFrom(&store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.NumQueries(), live.NumQueries(); got != want {
		t.Fatalf("restored NumQueries = %d, want %d", got, want)
	}
	for _, id := range append(append([]QueryID{}, ids[:20]...), ids[40:]...) {
		if restored.Query(id) != live.Query(id) {
			t.Fatalf("query %d source diverges after restore", id)
		}
	}
	for _, id := range ids[20:40] {
		if restored.Query(id) != "" {
			t.Fatalf("unsubscribed query %d resurrected by restore", id)
		}
	}
	for di, d := range stream[cut:] {
		got := renderEngineMatches(publishOne(restored, "S", d))
		if got != ref[di] {
			t.Fatalf("restored engine diverges from live on doc %d:\nrestored:\n%slive:\n%s",
				cut+di+1, got, ref[di])
		}
	}
}

// TestEngineSnapshotAsyncPipeline snapshots an engine while four goroutines
// publish into it: the snapshot must be an exact prefix of the serial
// document order (OnDocument reports it; the snapshot's one write happens
// under the engine's lock, so the writer reads how many documents the prefix
// holds), and the restored engine must continue the stream exactly as an
// engine that published that prefix serially.
func TestEngineSnapshotAsyncPipeline(t *testing.T) {
	sources, stream := snapshotWorkload(40, 120)
	const cut = 80
	byID := map[int64]*Document{}
	for _, d := range stream {
		byID[int64(d.ID)] = d
	}
	var order []int64 // appended under the engine's lock
	live := New(Options{OnDocument: func(dt DocTimings) { order = append(order, dt.DocID) }})
	for _, src := range sources {
		live.MustSubscribe(src)
	}
	const publishers = 4
	var wg sync.WaitGroup
	for g := 0; g < publishers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < cut; i += publishers {
				publishOne(live, "S", stream[i])
			}
		}(g)
	}
	snap := &prefixWriter{order: &order}
	for len(snapOrder(live, &order)) < cut/4 {
		runtime.Gosched()
	}
	if err := live.Snapshot(snap); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	prefix := order[:snap.k]

	restored, err := OpenEngine(&snap.buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref := New(Options{})
	for _, src := range sources {
		ref.MustSubscribe(src)
	}
	var prefixMax int64
	for _, id := range prefix {
		publishOne(ref, "S", byID[id])
		prefixMax = max(prefixMax, id)
	}
	if got := restored.MaxDocID(); got != prefixMax || got == 0 {
		t.Fatalf("snapshot not a prefix of the serial order: restored MaxDocID = %d, want %d (%d documents)", got, prefixMax, len(prefix))
	}
	for di, d := range stream[cut:] {
		got := renderEngineMatches(publishOne(restored, "S", d))
		want := renderEngineMatches(publishOne(ref, "S", d))
		if got != want {
			t.Fatalf("restored engine diverges on doc %d:\nrestored:\n%sserial:\n%s", cut+di+1, got, want)
		}
	}
}

// prefixWriter collects a snapshot and, at its first write — made under the
// engine's lock — how many documents *order holds.
type prefixWriter struct {
	buf   bytes.Buffer
	order *[]int64
	k     int
	wrote bool
}

func (w *prefixWriter) Write(p []byte) (int, error) {
	if !w.wrote {
		w.k, w.wrote = len(*w.order), true
	}
	return w.buf.Write(p)
}

// snapOrder reads *order under the engine's lock.
func snapOrder(e *Engine, order *[]int64) []int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return *order
}

// TestEngineSnapshotComposition restores an engine with composition and
// document retention: cascades keep firing, OutputXML still renders matches
// produced after the restore, and derived-document ids resume without
// colliding with pre-snapshot ones.
func TestEngineSnapshotComposition(t *testing.T) {
	mk := func() *Engine {
		eng := New(Options{EnableComposition: true})
		eng.MustSubscribe(
			"S//alert->a[./host->h][./sev->s] FOLLOWED BY{h=h2 AND s=s2, 1000} S//confirm->c[./host->h2][./sev->s2] PUBLISH incidents")
		eng.MustSubscribe(
			"incidents//alert->a[./host->h] JOIN{h=h2, 1000} P//page->p[./host->h2]")
		return eng
	}
	feed := func(eng *Engine, id int64) []Match {
		publishXML(eng, "P", "<page><host>web1</host></page>", id, id*10)
		publishXML(eng, "S", "<alert><host>web1</host><sev>hi</sev></alert>", id+1, id*10+1)
		ms, err := publishXML(eng, "S", "<confirm><host>web1</host><sev>hi</sev></confirm>", id+2, id*10+2)
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}

	live := mk()
	feed(live, 1)
	var store MemStore
	if err := live.SnapshotTo(&store); err != nil {
		t.Fatal(err)
	}
	restored, err := OpenEngineFrom(&store, Options{EnableComposition: true})
	if err != nil {
		t.Fatal(err)
	}

	liveMs := feed(live, 4)
	restoredMs := feed(restored, 4)
	if got, want := renderEngineMatches(restoredMs), renderEngineMatches(liveMs); got != want {
		t.Fatalf("restored cascade diverges:\nrestored:\n%slive:\n%s", got, want)
	}
	for i, m := range restoredMs {
		want, wok := live.OutputXML(liveMs[i])
		got, gok := restored.OutputXML(m)
		if gok != wok || got != want {
			t.Fatalf("OutputXML diverges after restore on match %d:\nrestored (%v): %s\nlive (%v): %s", i, gok, got, wok, want)
		}
	}
}

// TestEngineSnapshotErrors covers the rejection paths: sequential engines
// have no snapshot form, and garbage input is refused with nothing
// published.
func TestEngineSnapshotErrors(t *testing.T) {
	seq := New(Options{Processor: ProcessorSequential})
	var buf bytes.Buffer
	if err := seq.Snapshot(&buf); !errors.Is(err, ErrSequentialSnapshot) {
		t.Errorf("sequential Snapshot error = %v, want ErrSequentialSnapshot", err)
	}
	if _, err := OpenEngine(&buf, Options{Processor: ProcessorSequential}); !errors.Is(err, ErrSequentialSnapshot) {
		t.Errorf("sequential OpenEngine error = %v, want ErrSequentialSnapshot", err)
	}
	if _, err := OpenEngine(strings.NewReader(`{"format":"something-else","version":1}`), Options{}); err == nil {
		t.Error("foreign format accepted")
	}
	if _, err := OpenEngine(strings.NewReader(`not json`), Options{}); err == nil {
		t.Error("garbage snapshot accepted")
	}
}

// Two snapshots written by the release before the in-process router was
// removed, same subscriptions (id 2 unsubscribed) and the same three
// documents: routedSnapshot with Options{Partitions: 2}, whose join state
// lies in part_states and whose state is empty; plainSnapshot without.
const (
	snapshotQueries = `"queries":[{"id":0,"source":"S//a-\u003ex JOIN{x=y, 100} S//b-\u003ey"},{"id":1,"source":"S//item-\u003ei[./title-\u003et] FOLLOWED BY{t=u, 50} S//item-\u003ej[./title-\u003eu]"},{"id":3,"source":"S//c-\u003ez"}],"next_derived":1099511627776`
	snapshotState   = `{"next_seq":3,"max_doc":3,"docs":[{"id":1,"ts":1,"seq":0},{"id":2,"ts":2,"seq":1},{"id":3,"ts":3,"seq":2}],"rdoc":[{"doc":1,"node":1,"s":"v"},{"doc":2,"node":1,"s":"v"},{"doc":3,"node":1,"s":"k"}],"rroot":[{"doc":1,"v":"S//a","node":1},{"doc":2,"v":"S//b","node":1},{"doc":3,"v":"S//item/title","node":1}]}`

	plainSnapshot  = `{"format":"mmqjp-snapshot","version":1,` + snapshotQueries + `,"state":` + snapshotState + `}` + "\n"
	routedSnapshot = `{"format":"mmqjp-snapshot","version":1,` + snapshotQueries + `,"state":{"next_seq":0,"max_doc":0},"partitions":2,"part_states":[` +
		snapshotState + `,{"next_seq":3,"max_doc":3,"docs":[{"id":1,"ts":1,"seq":0},{"id":2,"ts":2,"seq":1},{"id":3,"ts":3,"seq":2}]}]}` + "\n"
)

// TestRoutedSnapshotRefused: a snapshot a routed engine wrote is refused with
// an error that says why — through a plain and a gzipped store, and when only
// one of the two routed fields marks it — instead of opening with the empty
// join state its "state" field holds. The unpartitioned snapshot of the same
// engine opens, and replaying the stream's suffix on it gives what an engine
// that never restarted gives.
func TestRoutedSnapshotRefused(t *testing.T) {
	opts := Options{}
	for _, gz := range []bool{false, true} {
		var storeOpts []StoreOption
		if gz {
			storeOpts = append(storeOpts, WithGzip())
		}
		store := NewFileStore(filepath.Join(t.TempDir(), "engine.snap"), storeOpts...)
		if err := store.Save(func(w io.Writer) error {
			_, err := io.WriteString(w, routedSnapshot)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		_, err := OpenEngineFrom(store, opts)
		if err == nil || !strings.Contains(err.Error(), "2 partitions") || !strings.Contains(err.Error(), "routed snapshots are no longer supported") {
			t.Errorf("gzip=%v: routed snapshot: error %v, want one naming the 2 partitions and saying routed snapshots are no longer supported", gz, err)
		}
	}
	for _, snap := range []string{
		`{"format":"mmqjp-snapshot","version":1,"state":{"next_seq":0,"max_doc":0},"partitions":4}`,
		`{"format":"mmqjp-snapshot","version":1,"state":{"next_seq":0,"max_doc":0},"part_states":[{"next_seq":1,"max_doc":1}]}`,
	} {
		if _, err := OpenEngine(strings.NewReader(snap), opts); err == nil || !strings.Contains(err.Error(), "routed") {
			t.Errorf("%s: error %v, want the routed-snapshot refusal", snap, err)
		}
	}

	docs := []string{
		"<r><a>v</a></r>", "<r><b>v</b></r>", "<item><title>k</title></item>",
		"<item><title>k</title></item>", "<r><a>v</a><c>1</c></r>", "<r><b>v</b></r>",
	}
	live := New(opts)
	live.MustSubscribe("S//a->x JOIN{x=y, 100} S//b->y")
	live.MustSubscribe("S//item->i[./title->t] FOLLOWED BY{t=u, 50} S//item->j[./title->u]")
	if err := live.Unsubscribe(live.MustSubscribe("S//c->z")); err != nil {
		t.Fatal(err)
	}
	live.MustSubscribe("S//c->z")
	restored, err := OpenEngine(strings.NewReader(plainSnapshot), opts)
	if err != nil {
		t.Fatalf("unpartitioned snapshot: %v", err)
	}
	total := 0
	for i, xml := range docs {
		want, err := publishXML(live, "S", xml, int64(i+1), int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if i < 3 {
			continue
		}
		got, err := publishXML(restored, "S", xml, int64(i+1), int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("document %d: restored engine %+v, live engine %+v", i+1, got, want)
		}
		total += len(want)
	}
	if total != 5 {
		t.Errorf("the suffix produced %d matches, want 5: the replay does not reach the restored state", total)
	}
}

// TestFileStore covers the file-backed store: missing file reports
// ErrNoSnapshot, Save is atomic-by-rename (the path holds a complete
// snapshot even when a later Save fails mid-write), and a round-trip
// restores subscriptions.
func TestFileStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "engine.snap")
	store := NewFileStore(path)
	if _, err := store.Open(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("empty store Open error = %v, want ErrNoSnapshot", err)
	}
	if _, err := OpenEngineFrom(store, Options{}); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("OpenEngineFrom on empty store = %v, want ErrNoSnapshot", err)
	}

	eng := New(Options{})
	qid := eng.MustSubscribe(paperQ1)
	publishXML(eng, "S", paperD1, 1, 100)
	if err := eng.SnapshotTo(store); err != nil {
		t.Fatal(err)
	}

	// A failed save must leave the previous snapshot intact.
	failure := errors.New("boom")
	if err := store.Save(func(w io.Writer) error {
		w.Write([]byte("partial garbage"))
		return failure
	}); !errors.Is(err, failure) {
		t.Fatalf("Save error = %v, want the write function's error", err)
	}

	restored, err := OpenEngineFrom(store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Query(qid) != paperQ1 {
		t.Fatalf("restored query %d = %q, want the subscribed source", qid, restored.Query(qid))
	}
	ms, err := publishXML(restored, "S", paperD2, 2, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Query != qid {
		t.Fatalf("restored engine matches = %v, want one for query %d", ms, qid)
	}
}

// TestFileStoreGzip covers the compressed store option: WithGzip actually
// compresses the file on disk, restore is format-sniffing in both
// directions (a plain store opens a gzipped file and vice versa, so the
// option can be toggled across restarts without losing the snapshot), and
// the restored engine behaves identically.
func TestFileStoreGzip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "engine.snap")

	eng := New(Options{})
	qid := eng.MustSubscribe(paperQ1)
	publishXML(eng, "S", paperD1, 1, 100)

	gz := NewFileStore(path, WithGzip())
	if err := eng.SnapshotTo(gz); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
		t.Fatalf("WithGzip store wrote a file without the gzip magic: % x", raw[:2])
	}

	plainStore := NewFileStore(path)
	for _, store := range []*FileStore{gz, plainStore} {
		restored, err := OpenEngineFrom(store, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ms, err := publishXML(restored, "S", paperD2, 2, 200)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != 1 || ms[0].Query != qid {
			t.Fatalf("gzipped restore matches = %v, want one for query %d", ms, qid)
		}
	}

	// The reverse direction: an uncompressed snapshot already on disk must
	// still open through a WithGzip store.
	if err := eng.SnapshotTo(plainStore); err != nil {
		t.Fatal(err)
	}
	raw, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if raw[0] == 0x1f && raw[1] == 0x8b {
		t.Fatal("plain store wrote a gzipped file")
	}
	restored, err := OpenEngineFrom(gz, Options{})
	if err != nil {
		t.Fatalf("WithGzip store opening a plain snapshot: %v", err)
	}
	if restored.Query(qid) != paperQ1 {
		t.Fatalf("restored query %d = %q, want the subscribed source", qid, restored.Query(qid))
	}
}

// TestFileStoreBareRelativePath saves to a bare file name with TMPDIR
// pointing nowhere: the temporary file must be created beside the snapshot
// (in the working directory), not under TMPDIR, so Save succeeds and the
// rename stays within one directory; Open then round-trips.
func TestFileStoreBareRelativePath(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	t.Setenv("TMPDIR", filepath.Join(dir, "no-such-dir"))

	eng := New(Options{})
	qid := eng.MustSubscribe(paperQ1)
	publishXML(eng, "S", paperD1, 1, 100)
	store := NewFileStore("snap.json")
	if err := eng.SnapshotTo(store); err != nil {
		t.Fatalf("Save to a bare relative path: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "snap.json")); err != nil {
		t.Fatalf("snapshot not in the working directory: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("working directory holds %d entries after Save, want only the snapshot", len(entries))
	}
	restored, err := OpenEngineFrom(store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := publishXML(restored, "S", paperD2, 2, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Query != qid {
		t.Fatalf("restored engine matches = %v, want one for query %d", ms, qid)
	}
}
