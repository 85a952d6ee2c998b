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

// ExampleEngine_Snapshot saves a consistent snapshot of a running engine
// and reopens it: the restored engine resumes every subscription and
// produces exactly the matches the original would have on the stream
// suffix.
func ExampleEngine_Snapshot() {
	eng := mmqjp.New(mmqjp.Options{})
	eng.MustSubscribe("S//item->v0[./price->v1] FOLLOWED BY{v1=w1, 100} S//item->w0[./price->w1]")
	if _, err := eng.PublishDoc("S", itemDoc(1, "9.99")); err != nil {
		fmt.Println("publish:", err)
		return
	}

	var snap bytes.Buffer
	if err := eng.Snapshot(&snap); err != nil {
		fmt.Println("snapshot:", err)
		return
	}

	restored, err := mmqjp.OpenEngine(&snap, mmqjp.Options{})
	if err != nil {
		fmt.Println("open:", err)
		return
	}

	res, err := restored.PublishDoc("S", itemDoc(2, "9.99"))
	if err != nil {
		fmt.Println("publish:", err)
		return
	}
	fmt.Printf("restored %d subscription(s); doc 2 matched doc %d\n",
		restored.NumQueries(), res.Matches()[0].LeftDoc)
	// Output:
	// restored 1 subscription(s); doc 2 matched doc 1
}

// ExampleEngine_PlanStats inspects the Stage-2 statistics: queries that
// share a wiring shape collapse onto one canonical template, and the
// snapshot reports its vector groups and plan runs.
func ExampleEngine_PlanStats() {
	eng := mmqjp.New(mmqjp.Options{})

	// Same structural shape twice (leaf names never enter template
	// identity), so both queries share one template.
	eng.MustSubscribe("S//item->v0[./price->v1] FOLLOWED BY{v1=w1, 100} S//item->w0[./price->w1]")
	eng.MustSubscribe("S//item->v0[./qty->v1] FOLLOWED BY{v1=w1, 100} S//item->w0[./qty->w1]")

	for i := 1; i <= 4; i++ {
		if _, err := eng.PublishDoc("S", itemDoc(int64(i), "9.99")); err != nil {
			fmt.Println("publish:", err)
			return
		}
	}

	for _, ts := range eng.PlanStats() {
		fmt.Printf("template %d: %d vector groups, %d plan runs\n",
			ts.Template, ts.VecGroups, ts.WitnessRuns)
	}
	// Output:
	// template 0: 2 vector groups, 3 plan runs
}
