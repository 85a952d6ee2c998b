// Composition: queries consuming other queries' outputs through the XSCL
// PUBLISH clause (Section 2 of the paper defines the clause; this engine
// implements the cascade). A first layer of subscriptions correlates raw
// ops events into incidents; a second layer correlates *incidents* with
// pages to detect repeated escalations — something no single two-block
// query can express.
//
//	go run ./examples/composition
package main

import (
	"fmt"
	"log"

	mmqjp "repro"
)

func main() {
	eng := mmqjp.New(mmqjp.Options{EnableComposition: true})

	// Layer 1: an error alert confirmed on the same host and service
	// within 300 time units becomes an incident.
	incident := eng.MustSubscribe(`
		ops//alert->a[./host->h][./service->s]
		FOLLOWED BY{h=h2 AND s=s2, 300}
		ops//confirm->c[./host->h2][./service->s2]
		PUBLISH incidents`)

	// Layer 2: two incidents for the same host within 1000 time units —
	// a repeat offender. Reads the derived stream produced by layer 1.
	repeat := eng.MustSubscribe(`
		incidents//alert->a1[./host->h]
		FOLLOWED BY{h=h2, 1000}
		incidents//alert->a2[./host->h2]
		PUBLISH repeats`)

	names := map[mmqjp.QueryID]string{incident: "incident", repeat: "repeat-offender"}

	// Each event's matches, cascaded ones included, are appended to one
	// buffer reused from event to event.
	var ms []mmqjp.Match
	feed := func(ts int64, xml string) {
		var err error
		if ms, err = eng.AppendPublishXML(ms[:0], "ops", xml, ts, ts); err != nil {
			log.Fatal(err)
		}
		for _, m := range ms {
			fmt.Printf("t=%4d  %-15s (left t=%d, right t=%d)\n", ts, names[m.Query], m.LeftTS, m.RightTS)
		}
	}

	fmt.Println("feeding ops events...")
	feed(100, "<alert><host>web1</host><service>search</service></alert>")
	feed(150, "<confirm><host>web1</host><service>search</service></confirm>") // incident #1
	feed(400, "<alert><host>web1</host><service>cart</service></alert>")
	feed(460, "<confirm><host>web1</host><service>cart</service></confirm>") // incident #2 -> repeat offender
	feed(500, "<alert><host>db3</host><service>store</service></alert>")
	feed(900, "<confirm><host>db3</host><service>store</service></confirm>") // too late: no incident

	fmt.Println()
	fmt.Println(eng.Stats())
}
