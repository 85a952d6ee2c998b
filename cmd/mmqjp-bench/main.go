// Command mmqjp-bench regenerates the tables and figures of the paper's
// evaluation section (Table 3, Figures 8–16) and nothing else. Each
// experiment prints the series the corresponding figure plots.
//
// Usage:
//
//	mmqjp-bench -experiment fig8            # one experiment
//	mmqjp-bench -experiment all             # the full suite (paper order)
//	mmqjp-bench -experiment fig16 -rss-items 225000 -queries-sweep 10,100,1000,10000,100000,1000000
//
// Paper-scale runs take substantially longer than the defaults; see the
// README's "Benchmarks" section for each experiment and its flags.
// Performance statements about this implementation are made with the
// repository benchmark (bash benchmark/run.sh), not with this command.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "comma-separated experiment ids (table3, fig8..fig16) or 'all'")
		seed       = flag.Int64("seed", 1, "workload generator seed")
		sweep      = flag.String("queries-sweep", "", "comma-separated query counts for fig8/11/16 (default 10,100,1000,10000,100000)")
		queries    = flag.Int("queries", 1000, "query count for fig9/10/12/13")
		bigQueries = flag.Int("big-queries", 100000, "query count for fig14/15")
		rssItems   = flag.Int("rss-items", 5000, "stream length for fig16 (paper: 225000)")
		seqItems   = flag.Int("seq-rss-items", 0, "stream length cap for fig16 sequential runs (default: rss-items)")
	)
	flag.Parse()

	opts := bench.Options{
		Seed:        *seed,
		Queries:     *queries,
		BigQueries:  *bigQueries,
		RSSItems:    *rssItems,
		SeqRSSItems: *seqItems,
	}
	if *sweep != "" {
		for _, part := range strings.Split(*sweep, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fmt.Fprintf(os.Stderr, "mmqjp-bench: bad -queries-sweep entry %q: %v\n", part, err)
				os.Exit(2)
			}
			opts.QueryCounts = append(opts.QueryCounts, n)
		}
	}

	var ids []string
	for _, id := range strings.Split(*experiment, ",") {
		id = strings.TrimSpace(id)
		if id == "all" {
			ids = append(ids, bench.All()...)
			continue
		}
		if id != "" {
			ids = append(ids, id)
		}
	}
	for _, id := range ids {
		start := time.Now()
		res, err := bench.Run(id, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmqjp-bench: %v\n", err)
			os.Exit(2)
		}
		fmt.Println(res.String())
		fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}
