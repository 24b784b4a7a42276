// Command padsfmt is the generated formatting program of section 5.3.1: it
// converts ad hoc data into delimited text suitable for loading into a
// spreadsheet or relational database (Figure 8 of the paper).
//
// Usage:
//
//	padsfmt -desc weblog.pads -delims "|" -datefmt "%D:%T" data.log
//	padsfmt -desc weblog.pads -out-of-core -out big.psv big.log
//	padsfmt -desc weblog.pads -resume big.log.manifest
package main

import (
	"flag"

	"pads/internal/cliutil"
	"pads/internal/core"
)

func main() {
	input := cliutil.NewInputFlags()
	delims := flag.String("delims", "|", "delimiter list, comma-separated for nested levels")
	dateFmt := flag.String("datefmt", "", "date output format, e.g. %D:%T (default: raw text)")
	skipErrs := flag.Bool("skip-errors", false, "omit records with parse errors")
	outPath := flag.String("out", "", "write delimited output to `FILE` (required with -out-of-core: resume must be able to truncate it)")
	workers := flag.Int("workers", 0, "out-of-core parse workers (0 = all CPUs)")
	stats := cliutil.StatsFlag()
	profFlags := cliutil.NewProfFlags()
	robustFlags := cliutil.NewRobustFlags()
	segFlags := cliutil.NewSegmentFlags()
	flag.Parse()

	desc, opts := input.Open("padsfmt -desc description.pads [flags] [data]", robustFlags)
	tel, prf := cliutil.Observe(desc, *stats, nil, profFlags, flag.Arg(0))
	(&cliutil.Tool{
		Name: "padsfmt", Desc: desc, Opts: opts, Workers: *workers, DataArg: flag.Arg(0),
		Out: core.NewDelimited("fmt", *delims, *dateFmt, *skipErrs), OutPath: *outPath,
		Seg: segFlags, Robust: robustFlags, Tel: tel, Prof: prf,
	}).Run()
}
