// Command xsclc is the XSCL compiler/inspector: it parses XSCL queries and
// prints their join graphs, reduced graph minors, query templates and the
// per-template conjunctive queries in Datalog — the artifacts of Sections 2,
// 4.1, 4.2 and 4.4 of the paper.
//
// Usage:
//
//	xsclc 'S//a->x FOLLOWED BY{x=y, 100} S//b->y'
//	xsclc -paper            # inspect the paper's Q1, Q2, Q3
//	echo 'q1; q2' | xsclc - # read ;-separated queries from stdin
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/xscl"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "xsclc:", err)
		os.Exit(2)
	}
}

// run inspects the queries the arguments name — the paper's examples, a
// ;-separated list on stdin, or the arguments themselves — and writes the
// report to out.
func run(args []string, stdin io.Reader, out io.Writer) error {
	flags := flag.NewFlagSet("xsclc", flag.ContinueOnError)
	paper := flags.Bool("paper", false, "inspect the paper's example queries Q1-Q3 (Table 2)")
	if err := flags.Parse(args); err != nil {
		return err
	}
	var queries []*xscl.Query
	var err error
	switch {
	case *paper:
		queries = []*xscl.Query{xscl.PaperQ1(100), xscl.PaperQ2(200), xscl.PaperQ3(300)}
	case flags.NArg() == 1 && flags.Arg(0) == "-":
		var data []byte
		if data, err = io.ReadAll(stdin); err == nil {
			queries, err = xscl.ParseProgram(string(data))
		}
	case flags.NArg() >= 1:
		queries, err = xscl.ParseProgram(strings.Join(flags.Args(), ";"))
	default:
		err = errors.New("usage: xsclc [-paper] <query> ... | xsclc -")
	}
	if err != nil {
		return err
	}

	templates := map[string]core.TemplateID{}
	var nextID core.TemplateID
	for i, q := range queries {
		fmt.Fprintf(out, "-- query %d --\n%s\n\n", i+1, q)
		if q.Op == xscl.OpNone {
			fmt.Fprintf(out, "single-block query (no join graph)\n\n")
			continue
		}
		g, err := core.BuildJoinGraph(q)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "join graph:")
		fmt.Fprintln(out, indent(g.String()))
		red, sig, order := core.ExtractTemplate(g)
		fmt.Fprintln(out, "graph minor:")
		fmt.Fprintln(out, indent(red.String()))
		id, ok := templates[sig]
		if !ok {
			id = nextID
			nextID++
			templates[sig] = id
		}
		tmpl := core.NewTemplateFromCanonical(sig, red, order)
		tmpl.ID = id
		fmt.Fprintf(out, "template: T%d (%d nodes, %d value joins%s)\n", id, tmpl.N, len(tmpl.VJ), sharedNote(ok))
		fmt.Fprintf(out, "conjunctive query:\n  %s\n\n", tmpl.Datalog())
	}
	fmt.Fprintf(out, "%d queries, %d distinct templates\n", len(queries), len(templates))
	return nil
}

func sharedNote(shared bool) string {
	if shared {
		return ", shared with an earlier query"
	}
	return ""
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n  ")
}
