package mmqjp_test

import (
	"bytes"
	"fmt"

	mmqjp "repro"
)

// itemDoc builds a one-item document carrying a single price leaf.
func itemDoc(id int64, price string) *mmqjp.Document {
	b := mmqjp.NewDocumentBuilder(id, id, "item")
	b.Element(0, "price", price)
	return b.Build()
}

// ExampleEngine_PublishAsync publishes through the continuous async ingest
// pipeline: PublishAsync returns immediately with a channel that delivers
// the document's matches once Stage 2 reaches it, in admission order.
func ExampleEngine_PublishAsync() {
	eng := mmqjp.New(mmqjp.Options{Processor: mmqjp.ProcessorViewMat, PipelineDepth: 2})
	defer eng.Close()

	eng.MustSubscribe("S//item->v0[./price->v1] FOLLOWED BY{v1=w1, 100} S//item->w0[./price->w1]")

	ch1 := eng.PublishAsync("S", itemDoc(1, "9.99"))
	ch2 := eng.PublishAsync("S", itemDoc(2, "9.99"))
	eng.Flush() // barrier: both documents fully processed

	for i, ch := range []<-chan []mmqjp.Match{ch1, ch2} {
		for _, m := range <-ch {
			fmt.Printf("doc %d: match left=%d right=%d\n", i+1, m.LeftDoc, m.RightDoc)
		}
	}
	// Output:
	// doc 2: match left=1 right=2
}

// ExampleEngine_Snapshot saves a consistent snapshot of a running engine
// and reopens it: the restored engine resumes every subscription and
// produces exactly the matches the original would have on the stream
// suffix.
func ExampleEngine_Snapshot() {
	eng := mmqjp.New(mmqjp.Options{Processor: mmqjp.ProcessorViewMat})
	eng.MustSubscribe("S//item->v0[./price->v1] FOLLOWED BY{v1=w1, 100} S//item->w0[./price->w1]")
	eng.Publish("S", itemDoc(1, "9.99"))

	var snap bytes.Buffer
	if err := eng.Snapshot(&snap); err != nil {
		fmt.Println("snapshot:", err)
		return
	}
	eng.Close()

	restored, err := mmqjp.OpenEngine(&snap, mmqjp.Options{Processor: mmqjp.ProcessorViewMat})
	if err != nil {
		fmt.Println("open:", err)
		return
	}
	defer restored.Close()

	ms := restored.Publish("S", itemDoc(2, "9.99"))
	fmt.Printf("restored %d subscription(s); doc 2 matched doc %d\n",
		restored.NumQueries(), ms[0].LeftDoc)
	// Output:
	// restored 1 subscription(s); doc 2 matched doc 1
}

// ExampleEngine_PlanStats inspects the Stage-2 statistics: queries that
// share a wiring shape collapse onto one canonical template, and the
// snapshot reports its vector groups and plan runs.
func ExampleEngine_PlanStats() {
	eng := mmqjp.New(mmqjp.Options{Processor: mmqjp.ProcessorViewMat})
	defer eng.Close()

	// Same structural shape twice (leaf names never enter template
	// identity), so both queries share one template.
	eng.MustSubscribe("S//item->v0[./price->v1] FOLLOWED BY{v1=w1, 100} S//item->w0[./price->w1]")
	eng.MustSubscribe("S//item->v0[./qty->v1] FOLLOWED BY{v1=w1, 100} S//item->w0[./qty->w1]")

	for i := 1; i <= 4; i++ {
		eng.Publish("S", itemDoc(int64(i), "9.99"))
	}

	for _, ts := range eng.PlanStats() {
		fmt.Printf("template %d: %d vector groups, %d plan runs\n",
			ts.Template, ts.VecGroups, ts.WitnessRuns+ts.RTRuns)
	}
	// Output:
	// template 0: 2 vector groups, 3 plan runs
}
