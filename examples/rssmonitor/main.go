// Rssmonitor: the Section-6.3 scenario — monitor a synthetic RSS/Atom feed
// stream (418 channels) with a large generated query workload, and report
// join-processing throughput for the three strategies the paper compares:
// MMQJP with view materialization, plain MMQJP, and per-query sequential
// evaluation.
//
// A second phase demonstrates subscription churn: mid-stream, a slice of
// the subscriber population unsubscribes and is replaced by newcomers. The
// engine's refcounted canonical templates reclaim everything the leavers no
// longer share with survivors, and draining every subscription at the end
// returns the engine to its initial state.
//
//	go run ./examples/rssmonitor [-items 2000] [-queries 5000] [-seed 1] [-churn 500]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"time"

	mmqjp "repro"
	"repro/internal/workload"
)

func main() {
	items := flag.Int("items", 2000, "feed items to process")
	queries := flag.Int("queries", 5000, "subscriptions to register")
	seed := flag.Int64("seed", 1, "random seed")
	churn := flag.Int("churn", 500, "subscriptions replaced mid-stream in the churn phase")
	flag.Parse()

	gen := workload.DefaultRSS()
	qrng := rand.New(rand.NewSource(*seed))
	qs := gen.Queries(qrng, *queries)
	srng := rand.New(rand.NewSource(*seed + 7))
	stream := gen.Stream(srng, *items)

	fmt.Printf("feed: %d items across %d channels; %d subscriptions\n\n",
		len(stream), gen.Channels, len(qs))

	for _, kind := range []mmqjp.ProcessorKind{
		mmqjp.ProcessorViewMat, mmqjp.ProcessorMMQJP, mmqjp.ProcessorSequential,
	} {
		eng := mmqjp.New(mmqjp.Options{Processor: kind})
		for _, q := range qs {
			if _, err := eng.Subscribe(q.Source); err != nil {
				panic(err)
			}
		}
		start := time.Now()
		matches := 0
		for _, d := range stream {
			matches += len(eng.Publish("S", d))
		}
		elapsed := time.Since(start)
		name := map[mmqjp.ProcessorKind]string{
			mmqjp.ProcessorViewMat:    "MMQJP+ViewMat",
			mmqjp.ProcessorMMQJP:      "MMQJP",
			mmqjp.ProcessorSequential: "Sequential",
		}[kind]
		fmt.Printf("%-14s %8.0f events/s  (%d matches, %d templates, wall %v)\n",
			name, float64(len(stream))/elapsed.Seconds(), matches, eng.NumTemplates(),
			elapsed.Round(time.Millisecond))
	}

	// Churn phase: half the stream with the original population, then a
	// subscriber turnover, then the rest of the stream.
	if *churn > *queries {
		*churn = *queries
	}
	fmt.Printf("\nchurn phase (MMQJP+ViewMat): %d of %d subscriptions replaced mid-stream\n",
		*churn, *queries)
	eng := mmqjp.New(mmqjp.Options{Processor: mmqjp.ProcessorViewMat})
	var ids []mmqjp.QueryID
	for _, q := range qs {
		ids = append(ids, eng.MustSubscribe(q.Source))
	}
	half := len(stream) / 2
	matches := 0
	start := time.Now()
	for _, d := range stream[:half] {
		matches += len(eng.Publish("S", d))
	}
	before := eng.NumTemplates()
	for _, q := range gen.Queries(qrng, *churn) { // newcomers first, then leavers
		ids = append(ids, eng.MustSubscribe(q.Source))
	}
	for _, id := range ids[:*churn] {
		if err := eng.Unsubscribe(id); err != nil {
			panic(err)
		}
	}
	ids = ids[*churn:]
	for _, d := range stream[half:] {
		matches += len(eng.Publish("S", d))
	}
	elapsed := time.Since(start)
	fmt.Printf("%-14s %8.0f events/s  (%d matches, templates %d -> %d after churn, wall %v)\n",
		"churned", float64(len(stream))/elapsed.Seconds(), matches, before, eng.NumTemplates(),
		elapsed.Round(time.Millisecond))
	fmt.Println(eng.Stats())

	// Drain everything: the lifecycle invariant says the engine is now
	// observationally identical to a fresh one.
	for _, id := range ids {
		if err := eng.Unsubscribe(id); err != nil {
			panic(err)
		}
	}
	fmt.Printf("after draining all subscriptions: %d queries, %d templates (state reclaimed)\n",
		eng.NumQueries(), eng.NumTemplates())
}
