// Package bench regenerates every table and figure of the paper's
// evaluation (Section 6) and nothing else. Each runner reproduces one
// experiment's workload and parameter sweep and reports the same series the
// paper plots; absolute numbers differ from the paper's 2007 SQL-Server
// testbed, but the shapes — who wins, by what order of magnitude, where
// curves flatten — are the reproduction targets (see the README's
// "Benchmarks" section). Performance statements about this implementation
// are made with the repository benchmark (benchmark/), not here.
package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/sequential"
	"repro/internal/workload"
	"repro/internal/xmldoc"
	"repro/internal/xscl"
)

// Mode selects the system under test.
type Mode int

const (
	// ModeMMQJP is Algorithm 4: template joins over the document's
	// value-join pairs, built once for all templates.
	ModeMMQJP Mode = iota
	// ModeSequential is the per-query baseline.
	ModeSequential
)

// Result is one experiment's output table.
type Result struct {
	ID      string // "fig8", "table3", ...
	Title   string
	Columns []string
	Rows    [][]string
}

// String renders the result as an aligned text table.
func (r Result) String() string {
	width := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		width[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", r.ID, r.Title)
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", width[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(r.Columns)
	for _, row := range r.Rows {
		writeRow(row)
	}
	return sb.String()
}

// Options tunes experiment scale. Zero values select defaults sized to run
// the full suite in minutes; the paper-scale values are noted per field.
type Options struct {
	Seed        int64
	QueryCounts []int // fig8/11/16 sweep (paper: 10..100000; fig16 to 1e6)
	Queries     int   // fixed query count for fig9/10/12/13 (paper: 1000)
	BigQueries  int   // query count for fig14/15 (paper: 100000)
	RSSItems    int   // stream length for fig16 (paper: 225000)
	SeqRSSItems int   // stream length cap for the sequential runs of fig16
	Repeats     int   // measurement repetitions for the two-document experiments (reported value is the mean)
}

// Defaults fills zero fields.
func (o Options) Defaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if len(o.QueryCounts) == 0 {
		o.QueryCounts = []int{10, 100, 1000, 10000, 100000}
	}
	if o.Queries == 0 {
		o.Queries = 1000
	}
	if o.BigQueries == 0 {
		o.BigQueries = 100000
	}
	if o.RSSItems == 0 {
		o.RSSItems = 5000
	}
	if o.SeqRSSItems == 0 {
		o.SeqRSSItems = o.RSSItems
	}
	if o.Repeats == 0 {
		o.Repeats = 3
	}
	return o
}

// twoDocRun measures the total Stage-2 (join) processing time of d2 given d1
// in the join state, for the given query set and mode, averaged over
// repeats runs (the paper averaged 10 runs). It returns milliseconds and the
// number of templates (0 for sequential).
func twoDocRun(qs []*xscl.Query, d1, d2 *xmldoc.Document, mode Mode, repeats int) (float64, int) {
	if repeats < 1 {
		repeats = 1
	}
	total := 0.0
	templates := 0
	for r := 0; r < repeats; r++ {
		if mode == ModeSequential {
			p := sequential.NewProcessor()
			for _, q := range qs {
				p.MustRegister(q)
			}
			p.Process("S", d1)
			p.ResetStats()
			p.Process("S", d2)
			total += float64(p.JoinTime()) / float64(time.Millisecond)
			continue
		}
		p := core.NewProcessor(core.Config{})
		for _, q := range qs {
			p.MustRegister(q)
		}
		p.Process("S", d1)
		p.ResetStats()
		p.Process("S", d2)
		s := p.Stats()
		total += float64(s.Rvj+s.CQ) / float64(time.Millisecond)
		templates = p.NumTemplates()
	}
	return total / float64(repeats), templates
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func f(v float64) string { return fmt.Sprintf("%.3f", v) }

// Fig8 — simple (two-level) schema, total conjunctive query processing time
// vs number of queries, MMQJP vs Sequential.
func Fig8(o Options) Result {
	o = o.Defaults()
	c := workload.DefaultTwoLevel()
	res := Result{ID: "fig8", Title: "simple schema: time vs #queries",
		Columns: []string{"queries", "MMQJP (ms)", "Sequential (ms)", "templates"}}
	for _, nq := range o.QueryCounts {
		rng := rand.New(rand.NewSource(o.Seed))
		qs := c.Queries(rng, nq)
		d1, d2 := c.Documents()
		tm, ntmpl := twoDocRun(qs, d1, d2, ModeMMQJP, o.Repeats)
		ts, _ := twoDocRun(qs, d1, d2, ModeSequential, o.Repeats)
		res.Rows = append(res.Rows, []string{fmt.Sprint(nq), f(tm), f(ts), fmt.Sprint(ntmpl)})
	}
	return res
}

// Fig9 — simple schema, time vs number of leaf nodes N.
func Fig9(o Options) Result {
	o = o.Defaults()
	res := Result{ID: "fig9", Title: "simple schema: time vs #leaves N",
		Columns: []string{"leaves", "MMQJP (ms)", "Sequential (ms)", "templates"}}
	for _, n := range []int{4, 6, 8, 10, 12} {
		c := workload.TwoLevel{N: n, Theta: 0.8, Window: 1000}
		rng := rand.New(rand.NewSource(o.Seed))
		qs := c.Queries(rng, o.Queries)
		d1, d2 := c.Documents()
		tm, ntmpl := twoDocRun(qs, d1, d2, ModeMMQJP, o.Repeats)
		ts, _ := twoDocRun(qs, d1, d2, ModeSequential, o.Repeats)
		res.Rows = append(res.Rows, []string{fmt.Sprint(n), f(tm), f(ts), fmt.Sprint(ntmpl)})
	}
	return res
}

// Fig10 — simple schema, time vs Zipf parameter.
func Fig10(o Options) Result {
	o = o.Defaults()
	res := Result{ID: "fig10", Title: "simple schema: time vs Zipf parameter",
		Columns: []string{"zipf", "MMQJP (ms)", "Sequential (ms)", "templates"}}
	for _, theta := range []float64{0, 0.4, 0.8, 1.2, 1.6} {
		c := workload.TwoLevel{N: 6, Theta: theta, Window: 1000}
		rng := rand.New(rand.NewSource(o.Seed))
		qs := c.Queries(rng, o.Queries)
		d1, d2 := c.Documents()
		tm, ntmpl := twoDocRun(qs, d1, d2, ModeMMQJP, o.Repeats)
		ts, _ := twoDocRun(qs, d1, d2, ModeSequential, o.Repeats)
		res.Rows = append(res.Rows, []string{fmt.Sprintf("%.1f", theta), f(tm), f(ts), fmt.Sprint(ntmpl)})
	}
	return res
}

// Fig11 — complex (three-level) schema, time vs number of queries.
func Fig11(o Options) Result {
	o = o.Defaults()
	c := workload.DefaultThreeLevel()
	res := Result{ID: "fig11", Title: "complex schema: time vs #queries",
		Columns: []string{"queries", "MMQJP (ms)", "Sequential (ms)", "templates"}}
	for _, nq := range o.QueryCounts {
		rng := rand.New(rand.NewSource(o.Seed))
		qs := c.Queries(rng, nq)
		d1, d2 := c.Documents()
		tm, ntmpl := twoDocRun(qs, d1, d2, ModeMMQJP, o.Repeats)
		ts, _ := twoDocRun(qs, d1, d2, ModeSequential, o.Repeats)
		res.Rows = append(res.Rows, []string{fmt.Sprint(nq), f(tm), f(ts), fmt.Sprint(ntmpl)})
	}
	return res
}

// Fig12 — complex schema, time vs maximum number of value joins K.
func Fig12(o Options) Result {
	o = o.Defaults()
	res := Result{ID: "fig12", Title: "complex schema: time vs max value joins K",
		Columns: []string{"K", "MMQJP (ms)", "Sequential (ms)", "templates"}}
	for _, k := range []int{2, 3, 4, 5} {
		c := workload.ThreeLevel{Branch: 4, K: k, Theta: 0.8, Window: 1000}
		rng := rand.New(rand.NewSource(o.Seed))
		qs := c.Queries(rng, o.Queries)
		d1, d2 := c.Documents()
		tm, ntmpl := twoDocRun(qs, d1, d2, ModeMMQJP, o.Repeats)
		ts, _ := twoDocRun(qs, d1, d2, ModeSequential, o.Repeats)
		res.Rows = append(res.Rows, []string{fmt.Sprint(k), f(tm), f(ts), fmt.Sprint(ntmpl)})
	}
	return res
}

// Fig13 — complex schema, time vs Zipf parameter.
func Fig13(o Options) Result {
	o = o.Defaults()
	res := Result{ID: "fig13", Title: "complex schema: time vs Zipf parameter",
		Columns: []string{"zipf", "MMQJP (ms)", "Sequential (ms)", "templates"}}
	for _, theta := range []float64{0, 0.4, 0.8, 1.2, 1.6} {
		c := workload.ThreeLevel{Branch: 4, K: 4, Theta: theta, Window: 1000}
		rng := rand.New(rand.NewSource(o.Seed))
		qs := c.Queries(rng, o.Queries)
		d1, d2 := c.Documents()
		tm, ntmpl := twoDocRun(qs, d1, d2, ModeMMQJP, o.Repeats)
		ts, _ := twoDocRun(qs, d1, d2, ModeSequential, o.Repeats)
		res.Rows = append(res.Rows, []string{fmt.Sprintf("%.1f", theta), f(tm), f(ts), fmt.Sprint(ntmpl)})
	}
	return res
}

// stage2Breakdown measures the stacked cost components of Figures 14/15 as
// the result's rows: the value-join pair build, shared by every template,
// against the per-template conjunctive queries.
func stage2Breakdown(qs []*xscl.Query, d1, d2 *xmldoc.Document) [][]string {
	p := core.NewProcessor(core.Config{})
	for _, q := range qs {
		p.MustRegister(q)
	}
	p.Process("S", d1)
	p.ResetStats()
	p.Process("S", d2)
	s := p.Stats()
	return [][]string{
		{"building the value-join pairs", f(ms(s.Rvj))},
		{"conjunctive query", f(ms(s.CQ))},
		{"total", f(ms(s.Rvj + s.CQ))},
	}
}

// Fig14 — view materialization breakdown on the simple schema.
func Fig14(o Options) Result {
	o = o.Defaults()
	c := workload.DefaultTwoLevel()
	rng := rand.New(rand.NewSource(o.Seed))
	qs := c.Queries(rng, o.BigQueries)
	d1, d2 := c.Documents()
	return Result{ID: "fig14", Title: fmt.Sprintf("view materialization, simple schema, %d queries", o.BigQueries),
		Columns: []string{"component", "time (ms)"},
		Rows:    stage2Breakdown(qs, d1, d2)}
}

// Fig15 — view materialization breakdown on the complex schema.
func Fig15(o Options) Result {
	o = o.Defaults()
	c := workload.DefaultThreeLevel()
	rng := rand.New(rand.NewSource(o.Seed))
	qs := c.Queries(rng, o.BigQueries)
	d1, d2 := c.Documents()
	return Result{ID: "fig15", Title: fmt.Sprintf("view materialization, complex schema, %d queries", o.BigQueries),
		Columns: []string{"component", "time (ms)"},
		Rows:    stage2Breakdown(qs, d1, d2)}
}

// Fig16 — RSS stream processing throughput vs number of queries.
func Fig16(o Options) Result {
	o = o.Defaults()
	res := Result{ID: "fig16", Title: fmt.Sprintf("RSS stream throughput (%d items)", o.RSSItems),
		Columns: []string{"queries", "MMQJP (ev/s)", "Sequential (ev/s)", "seq items"}}
	c := workload.DefaultRSS()
	for _, nq := range o.QueryCounts {
		rng := rand.New(rand.NewSource(o.Seed))
		qs := c.Queries(rng, nq)
		srng := rand.New(rand.NewSource(o.Seed + 7))
		stream := c.Stream(srng, o.RSSItems)

		mm := rssThroughput(qs, stream, ModeMMQJP)
		seqStream := stream
		if len(seqStream) > o.SeqRSSItems {
			seqStream = seqStream[:o.SeqRSSItems]
		}
		seq := rssThroughput(qs, seqStream, ModeSequential)
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(nq), f(mm), f(seq), fmt.Sprint(len(seqStream))})
	}
	return res
}

// rssThroughput returns events/second of Stage-2 join processing over the
// stream.
func rssThroughput(qs []*xscl.Query, stream []*xmldoc.Document, mode Mode) float64 {
	if mode == ModeSequential {
		p := sequential.NewProcessor()
		for _, q := range qs {
			p.MustRegister(q)
		}
		for _, d := range stream {
			p.Process("S", d)
		}
		return perSecond(len(stream), p.JoinTime())
	}
	p := core.NewProcessor(core.Config{})
	for _, q := range qs {
		p.MustRegister(q)
	}
	for _, d := range stream {
		p.Process("S", d)
	}
	s := p.Stats()
	return perSecond(len(stream), s.Rvj+s.CQ)
}

func perSecond(n int, d time.Duration) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// Table3 — number of query templates vs number of value joins, for the flat
// and the complex (three-level) schema, computed by exact enumeration.
//
// Wirings are enumerated up to isomorphism: the left endpoint sequence and
// the right endpoint sequence are restricted to restricted-growth strings
// (every wiring can be relabeled into this form by renaming each side's
// leaves in order of first occurrence). For the complex schema, each side's
// distinct leaves are additionally partitioned over intermediate nodes in
// every possible way. The paper reports an upper bound "<230" for 4 joins on
// the complex schema; the enumeration here produces the exact count.
func Table3(o Options) Result {
	o = o.Defaults()
	res := Result{ID: "table3", Title: "#query templates vs #value joins",
		Columns: []string{"#VJ", "#QT (flat schema)", "#QT (complex schema)"}}
	for k := 1; k <= 4; k++ {
		flat := countFlatTemplates(k)
		complexN := countComplexTemplates(k)
		res.Rows = append(res.Rows, []string{fmt.Sprint(k), fmt.Sprint(flat), fmt.Sprint(complexN)})
	}
	return res
}

// rgs enumerates the restricted growth strings of length k: sequences with
// s[0] = 0 and s[i] ≤ max(s[0..i-1]) + 1. They canonically label sequences
// up to value renaming (there are Bell(k) of them).
func rgs(k int) [][]int {
	var out [][]int
	cur := make([]int, k)
	var rec func(i, max int)
	rec = func(i, max int) {
		if i == k {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for v := 0; v <= max+1; v++ {
			cur[i] = v
			rec(i+1, maxInt(max, v))
		}
	}
	rec(0, -1)
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// wirings enumerates the distinct-pair wirings of k value joins up to
// independent leaf relabeling on both sides.
func wirings(k int) (ls, rs [][]int) {
	seqs := rgs(k)
	for _, l := range seqs {
	next:
		for _, r := range seqs {
			seen := map[[2]int]bool{}
			for i := 0; i < k; i++ {
				key := [2]int{l[i], r[i]}
				if seen[key] {
					continue next // duplicate predicate: a (k-1)-join query
				}
				seen[key] = true
			}
			ls = append(ls, l)
			rs = append(rs, r)
		}
	}
	return ls, rs
}

// countFlatTemplates counts distinct templates over all k-join queries on a
// two-level schema.
func countFlatTemplates(k int) int {
	sigs := map[string]bool{}
	ls, rs := wirings(k)
	for i := range ls {
		q := flatWiringQuery(ls[i], rs[i])
		addTemplateSig(q, sigs)
	}
	return len(sigs)
}

// countComplexTemplates counts distinct templates over all k-join queries on
// the three-level schema: every wiring combined with every grouping of each
// side's leaves under intermediate nodes.
func countComplexTemplates(k int) int {
	sigs := map[string]bool{}
	ls, rs := wirings(k)
	for i := range ls {
		nl := maxOf(ls[i]) + 1
		nr := maxOf(rs[i]) + 1
		for _, lp := range rgs(nl) {
			for _, rp := range rgs(nr) {
				q := complexWiringQuery(ls[i], rs[i], lp, rp)
				addTemplateSig(q, sigs)
			}
		}
	}
	return len(sigs)
}

func maxOf(s []int) int {
	m := 0
	for _, v := range s {
		m = maxInt(m, v)
	}
	return m
}

func addTemplateSig(q *xscl.Query, sigs map[string]bool) {
	g, err := core.BuildJoinGraph(q)
	if err != nil {
		return
	}
	_, sig, _ := core.ExtractTemplate(g)
	sigs[sig] = true
}

// flatWiringQuery renders a two-level query with the given wiring: join i
// equates left leaf l[i] with right leaf r[i].
func flatWiringQuery(l, r []int) *xscl.Query {
	lhs := sideFlat(l, "v")
	rhs := sideFlat(r, "w")
	var preds []string
	for i := range l {
		preds = append(preds, fmt.Sprintf("v%d=w%d", l[i], r[i]))
	}
	sort.Strings(preds)
	return xscl.MustParse(fmt.Sprintf("%s FOLLOWED BY{%s, 10} %s", lhs, strings.Join(preds, " AND "), rhs))
}

func sideFlat(endpoints []int, pfx string) string {
	s := fmt.Sprintf("S//r->%s", pfx)
	for leaf := 0; leaf <= maxOf(endpoints); leaf++ {
		s += fmt.Sprintf("[.//l%d->%s%d]", leaf, pfx, leaf)
	}
	return s
}

// complexWiringQuery renders a three-level query: wiring as above, with each
// side's leaves grouped under intermediates by the partition strings lp/rp
// (lp[leaf] is the intermediate group of left leaf `leaf`).
func complexWiringQuery(l, r, lp, rp []int) *xscl.Query {
	lhs := sideComplex(lp, "v")
	rhs := sideComplex(rp, "w")
	var preds []string
	for i := range l {
		preds = append(preds, fmt.Sprintf("v%d=w%d", l[i], r[i]))
	}
	sort.Strings(preds)
	return xscl.MustParse(fmt.Sprintf("%s FOLLOWED BY{%s, 10} %s", lhs, strings.Join(preds, " AND "), rhs))
}

func sideComplex(part []int, pfx string) string {
	groups := map[int][]int{}
	order := []int{}
	for leaf, g := range part {
		if len(groups[g]) == 0 {
			order = append(order, g)
		}
		groups[g] = append(groups[g], leaf)
	}
	sort.Ints(order)
	s := fmt.Sprintf("S//r->%s", pfx)
	for _, g := range order {
		s += fmt.Sprintf("[./m%d->%sm%d", g, pfx, g)
		for _, leaf := range groups[g] {
			s += fmt.Sprintf("[./l%d->%s%d]", leaf, pfx, leaf)
		}
		s += "]"
	}
	return s
}

// All returns every experiment id: the paper's tables and figures in paper
// order.
func All() []string {
	return []string{"table3", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16"}
}

// Run executes one experiment by id.
func Run(id string, o Options) (Result, error) {
	switch id {
	case "table3":
		return Table3(o), nil
	case "fig8":
		return Fig8(o), nil
	case "fig9":
		return Fig9(o), nil
	case "fig10":
		return Fig10(o), nil
	case "fig11":
		return Fig11(o), nil
	case "fig12":
		return Fig12(o), nil
	case "fig13":
		return Fig13(o), nil
	case "fig14":
		return Fig14(o), nil
	case "fig15":
		return Fig15(o), nil
	case "fig16":
		return Fig16(o), nil
	default:
		return Result{}, fmt.Errorf("bench: unknown experiment %q (have %v)", id, All())
	}
}
