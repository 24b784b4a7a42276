// Command padsquery runs XPath-subset queries over raw ad hoc data: the
// section 5.4 use case, with the query engine standing in for XQuery/Galax.
// Matching nodes print as XML fragments; aggregate queries print a number.
//
// Usage:
//
//	padsquery -desc sirius.pads -q '/es/elt[header/order_num = 9152]' data
//	padsquery -desc sirius.pads -q 'count(/es/elt)' data
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"pads/internal/cliutil"
	"pads/internal/interp"
	"pads/internal/padsrt"
	"pads/internal/query"
	"pads/internal/value"
	"pads/internal/xmlgen"
)

func main() {
	input := cliutil.NewInputFlags()
	q := flag.String("q", "", "query (required)")
	workers := flag.Int("workers", 1, "parse worker goroutines: 1 parses sequentially, 0 uses all CPUs (docs/PARALLEL.md)")
	stats := cliutil.StatsFlag()
	profFlags := cliutil.NewProfFlags()
	robustFlags := cliutil.NewRobustFlags()
	flag.Parse()

	const usage = "padsquery -desc description.pads -q query [data]"
	if *q == "" {
		cliutil.Usage(usage)
	}
	desc, opts := input.Open(usage, robustFlags)
	cq, err := query.Compile(*q)
	if err != nil {
		cliutil.Fatal(err)
	}
	tel, prf := cliutil.Observe(desc, *stats, nil, profFlags, flag.Arg(0))
	rob, err := robustFlags.Open(tel.Stats)
	if err != nil {
		cliutil.Fatal(err)
	}
	desc.Policy = rob.Policy
	in, err := cliutil.OpenData(flag.Arg(0))
	if err != nil {
		cliutil.Fatal(err)
	}
	defer in.Close()

	data, err := io.ReadAll(bufio.NewReaderSize(in, 1<<20))
	if err != nil {
		cliutil.Finish(err, rob, prf, tel)
	}

	// With -workers other than 1, a record-sharded parallel parse; sources
	// that are not header+records shaped fall back to the sequential parse.
	// A tripped error budget is final — re-parsing would trip it again.
	var v value.Value
	var be *interp.BudgetError
	if *workers != 1 {
		v, err = desc.ParseAllParallel(data, opts, *workers)
	}
	if *workers == 1 || err != nil && !errors.As(err, &be) {
		v, err = desc.ParseAllPolicy(padsrt.NewBytesSource(data, prf.SourceOptions(tel.SourceOptions(opts))...))
	}
	cliutil.Finish(err, rob, prf, tel)
	nodes, agg, isAgg := cq.Eval(desc.QueryRoot(v))
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	if isAgg {
		fmt.Fprintf(out, "%g\n", agg)
		return
	}
	for _, n := range nodes {
		if n.Val != nil {
			xmlgen.WriteXML(out, n.Val, n.Name, 0)
		} else {
			fmt.Fprintf(out, "<%s>%s</%s>\n", n.Name, n.Text(), n.Name)
		}
	}
	fmt.Fprintf(out, "<!-- %d nodes -->\n", len(nodes))
}
