package benchmark_test

import (
	"fmt"
	"sort"
	"testing"

	mmqjp "repro"
	"repro/benchmark/gen"
	"repro/internal/sequential"
	"repro/internal/xmldoc"
	"repro/internal/xscl"
)

// TestWorkloadsAgreeWithTheSequentialReference replays a 200-subscription,
// 300-document slice of every workload through the engine as the server
// configures it and through internal/sequential, the one-query-at-a-time
// reference, and requires the same matches for every document. The golden
// digests of the full-size runs rest on this: they record what the engine
// printed, and this shows that what it prints is right on these inputs.
func TestWorkloadsAgreeWithTheSequentialReference(t *testing.T) {
	for _, spec := range gen.Specs {
		t.Run(spec.Name, func(t *testing.T) {
			spec.Subs = 200
			sc := spec.Build(1, 300)

			eng := mmqjp.New(mmqjp.Options{Processor: mmqjp.ProcessorViewMat, Parallelism: 2, PlanExploreEvery: 64})
			defer eng.Close()
			ref := sequential.NewProcessor()
			subscribe := func(src string) {
				t.Helper()
				q, err := xscl.Parse(src)
				if err != nil {
					t.Fatal(err)
				}
				rid, err := ref.Register(q)
				if err != nil {
					t.Fatal(err)
				}
				eid, err := eng.Subscribe(src)
				if err != nil {
					t.Fatal(err)
				}
				if int64(rid) != int64(eid) {
					t.Fatalf("subscription ids diverge: engine %d, reference %d", eid, rid)
				}
			}
			for _, s := range sc.Subs {
				subscribe(s)
			}

			total := 0
			for i, d := range sc.Docs {
				if ch, ok := sc.Churn[i]; ok {
					if err := eng.Unsubscribe(mmqjp.QueryID(ch.Unsub)); err != nil {
						t.Fatal(err)
					}
					if err := ref.Unregister(sequential.QueryID(ch.Unsub)); err != nil {
						t.Fatal(err)
					}
					subscribe(ch.Sub)
				}
				res, err := eng.PublishDoc(gen.Stream, nil, mmqjp.WithXML(d.XML, int64(i+1), d.TS))
				if err != nil {
					t.Fatal(err)
				}
				var got, want []string
				for _, m := range res.Matches() {
					got = append(got, fmt.Sprintf("MATCH %d left=%d@%d right=%d@%d", m.Query, m.LeftDoc, m.LeftTS, m.RightDoc, m.RightTS))
				}
				doc, err := xmldoc.ParseString(d.XML, xmldoc.DocID(i+1), xmldoc.Timestamp(d.TS))
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range ref.Process(gen.Stream, doc) {
					want = append(want, fmt.Sprintf("MATCH %d left=%d@%d right=%d@%d", m.Query, m.LeftDoc, m.LeftTS, m.RightDoc, m.RightTS))
				}
				sort.Strings(got)
				sort.Strings(want)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("document %d: engine gave %d matches, reference %d\nengine:    %v\nreference: %v", i, len(got), len(want), got, want)
				}
				total += len(got)
			}
			if total == 0 {
				t.Error("the slice produced no matches: the check compared nothing")
			}
		})
	}
}
