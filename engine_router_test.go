package mmqjp

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// Facade-level tests of the engine-of-engines tier (Options.Partitions):
// routed engines must be byte-identical to an unpartitioned engine across
// the publish entrypoints, subscription churn at barriers, snapshot/restore,
// and concurrent async ingestion. The router-level differential harness
// lives in internal/router; these tests cover the facade wiring on top —
// id assignment, match conversion, the shared ingest barriers, and the
// partitioned snapshot format.

// routedEquivalenceRun drives the same publish/churn sequence through a
// reference engine and returns its per-document output.
func routedChurnSequence(t *testing.T, eng *Engine, queries []string, stream []*Document, batch bool) [][]Match {
	t.Helper()
	standing := queries[:len(queries)-1]
	late := queries[len(queries)-1]
	for _, q := range standing {
		eng.MustSubscribe(q)
	}
	out := make([][]Match, 0, len(stream))
	var lateID QueryID
	third, twoThirds := len(stream)/3, 2*len(stream)/3
	if batch {
		// Batch the churn-free spans, churning at the span boundaries —
		// the same shape the server's batch path produces.
		spans := [][2]int{{0, third}, {third, twoThirds}, {twoThirds, len(stream)}}
		for si, sp := range spans {
			if si == 1 {
				lateID = eng.MustSubscribe(late)
			}
			if si == 2 {
				if err := eng.Unsubscribe(lateID); err != nil {
					t.Fatal(err)
				}
			}
			out = append(out, eng.PublishBatch("S", stream[sp[0]:sp[1]])...)
		}
		return out
	}
	for i, d := range stream {
		if i == third {
			lateID = eng.MustSubscribe(late)
		}
		if i == twoThirds {
			if err := eng.Unsubscribe(lateID); err != nil {
				t.Fatal(err)
			}
		}
		out = append(out, eng.Publish("S", d))
	}
	return out
}

func compareMatchStreams(t *testing.T, label string, want, got [][]Match) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d documents vs %d", label, len(want), len(got))
	}
	total := 0
	for i := range want {
		if len(want[i]) != len(got[i]) {
			t.Fatalf("%s: doc %d: %d matches vs %d", label, i, len(want[i]), len(got[i]))
		}
		for j := range want[i] {
			if want[i][j] != got[i][j] {
				t.Fatalf("%s: doc %d match %d: %+v vs %+v", label, i, j, want[i][j], got[i][j])
			}
		}
		total += len(want[i])
	}
	if total == 0 {
		t.Fatalf("%s: sequence produced no matches; the comparison is vacuous", label)
	}
}

// TestEnginePartitionsEquivalence publishes the RSS workload, with a
// Subscribe and an Unsubscribe landing mid-sequence, through Partitions ∈
// {1, 2, 4} engines on both the per-document and the batch entrypoints;
// output must be byte-identical to the unpartitioned engine's.
func TestEnginePartitionsEquivalence(t *testing.T) {
	queries, stream := rssBatchFixture(200, 80)
	for _, batch := range []bool{false, true} {
		ref := New(Options{Processor: ProcessorViewMat})
		want := routedChurnSequence(t, ref, queries, stream, batch)
		for _, parts := range []int{1, 2, 4} {
			eng := New(Options{Processor: ProcessorViewMat, Partitions: parts, Parallelism: 2, PipelineDepth: 2})
			got := routedChurnSequence(t, eng, queries, stream, batch)
			label := "partitions=" + string(rune('0'+parts))
			if batch {
				label += " batch"
			}
			compareMatchStreams(t, label, want, got)
		}
	}
}

// TestEnginePartitionsAsyncBarrier is the routed form of the async barrier
// test: Subscribe/Unsubscribe between PublishAsync admissions run at a
// router-wide barrier, so the routed async output must equal the serial
// unpartitioned engine running the same admission order.
func TestEnginePartitionsAsyncBarrier(t *testing.T) {
	queries, stream := rssBatchFixture(200, 80)
	ref := New(Options{Processor: ProcessorViewMat})
	want := routedChurnSequence(t, ref, queries, stream, false)

	standing := queries[:len(queries)-1]
	late := queries[len(queries)-1]
	eng := New(Options{Processor: ProcessorViewMat, Partitions: 4, Parallelism: 2, PipelineDepth: 2})
	for _, q := range standing {
		eng.MustSubscribe(q)
	}
	chans := make([]<-chan []Match, len(stream))
	var lateID QueryID
	for i, d := range stream {
		if i == len(stream)/3 {
			lateID = eng.MustSubscribe(late)
		}
		if i == 2*len(stream)/3 {
			if err := eng.Unsubscribe(lateID); err != nil {
				t.Fatal(err)
			}
		}
		chans[i] = eng.PublishAsync("S", d)
	}
	eng.Flush()
	got := make([][]Match, len(stream))
	for i, ch := range chans {
		got[i] = collectAsync(t, ch)
	}
	eng.Close()
	compareMatchStreams(t, "partitions=4 async", want, got)
}

// TestEnginePartitionsSnapshotRestore snapshots a routed engine mid-stream
// and requires the restored engine to finish the stream byte-identically —
// all partitions restored at one consistent admission prefix — and rejects
// partition-count mismatches descriptively.
func TestEnginePartitionsSnapshotRestore(t *testing.T) {
	queries, stream := rssBatchFixture(200, 80)
	half := len(stream) / 2
	for _, parts := range []int{2, 4} {
		eng := New(Options{Processor: ProcessorViewMat, Partitions: parts, Parallelism: 2})
		for _, q := range queries {
			eng.MustSubscribe(q)
		}
		for _, d := range stream[:half] {
			eng.Publish("S", d)
		}
		var buf bytes.Buffer
		if err := eng.Snapshot(&buf); err != nil {
			t.Fatalf("partitions=%d: snapshot: %v", parts, err)
		}
		snap := buf.Bytes()

		restored, err := OpenEngine(bytes.NewReader(snap), Options{Processor: ProcessorViewMat, Partitions: parts})
		if err != nil {
			t.Fatalf("partitions=%d: open: %v", parts, err)
		}
		want := make([][]Match, 0, len(stream)-half)
		got := make([][]Match, 0, len(stream)-half)
		for _, d := range stream[half:] {
			want = append(want, eng.Publish("S", d))
			got = append(got, restored.Publish("S", d))
		}
		compareMatchStreams(t, "restored partitions="+string(rune('0'+parts)), want, got)

		if _, err := OpenEngine(bytes.NewReader(snap), Options{Processor: ProcessorViewMat, Partitions: parts + 1}); err == nil ||
			!strings.Contains(err.Error(), "partitions") {
			t.Fatalf("partitions=%d: opening with %d partitions: got %v, want a partition-count error", parts, parts+1, err)
		}
		if _, err := OpenEngine(bytes.NewReader(snap), Options{Processor: ProcessorViewMat}); err == nil ||
			!strings.Contains(err.Error(), "partitions") {
			t.Fatalf("partitions=%d: opening unpartitioned: got %v, want a partition-count error", parts, err)
		}
	}

	// And the reverse mismatch: an unpartitioned snapshot cannot be opened
	// into a routed engine.
	single := New(Options{Processor: ProcessorViewMat})
	single.MustSubscribe(queries[0])
	var buf bytes.Buffer
	if err := single.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenEngine(bytes.NewReader(buf.Bytes()), Options{Processor: ProcessorViewMat, Partitions: 4}); err == nil ||
		!strings.Contains(err.Error(), "unpartitioned") {
		t.Fatalf("opening unpartitioned snapshot with partitions: got %v, want an unpartitioned error", err)
	}
}

// TestUnsubscribeRacesRouterBarrier hammers a routed engine with concurrent
// async publishers while another goroutine churns subscriptions through the
// router-wide barrier — the PR 3 churn × PR 4 barrier interaction, now
// cross-partition. The CI race job runs this under -race; the assertions
// here are liveness (everything drains) and bookkeeping (the standing set
// survives, every churned id is gone).
func TestUnsubscribeRacesRouterBarrier(t *testing.T) {
	queries, stream := rssBatchFixture(120, 60)
	standing := queries[: len(queries)/2 : len(queries)/2]
	churning := queries[len(queries)/2:]

	eng := New(Options{Processor: ProcessorViewMat, Partitions: 4, Parallelism: 2, PipelineDepth: 3})
	for _, q := range standing {
		eng.MustSubscribe(q)
	}
	var wg sync.WaitGroup
	const publishers = 3
	for g := 0; g < publishers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(stream); i += publishers {
				ch := eng.PublishAsync("S", stream[i])
				<-ch
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 3; round++ {
			ids := make([]QueryID, 0, len(churning))
			for _, q := range churning {
				ids = append(ids, eng.MustSubscribe(q))
			}
			for _, id := range ids {
				if err := eng.Unsubscribe(id); err != nil {
					t.Errorf("unsubscribe %d: %v", id, err)
				}
			}
		}
	}()
	wg.Wait()
	eng.Flush()
	eng.Close()
	if got, want := eng.NumQueries(), len(standing); got != want {
		t.Fatalf("after churn: %d live queries, want %d", got, want)
	}
	if stats := eng.Stats(); stats.Documents != int64(len(stream)) {
		t.Fatalf("after churn: %d documents consumed, want %d", stats.Documents, len(stream))
	}
}
