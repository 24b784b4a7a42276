// Command padsacc is the generated accumulator program of section 5.2: it
// parses a data source against its description and prints the statistical
// profile — good/bad counts, numeric ranges, and the top values of every
// component.
//
// Usage:
//
//	padsacc -desc weblog.pads [-field length] [-track 1000] [-top 10] [-workers 4] data.log
//	padsacc -desc weblog.pads -stats -trace trace.jsonl -trace-last 1000 data.log
//	padsacc -desc weblog.pads -profile -progress data.log
//	padsacc -desc weblog.pads -out-of-core -segment-size 8m -workers 4 huge.log
//	padsacc -desc weblog.pads -resume huge.log.manifest
package main

import (
	"flag"

	"pads/internal/accum"
	"pads/internal/cliutil"
	"pads/internal/core"
)

func main() {
	input := cliutil.NewInputFlags()
	field := flag.String("field", "", "report only this dotted component path (e.g. length or header.order_num)")
	track := flag.Int("track", 1000, "distinct values to track per component")
	top := flag.Int("top", 10, "values to print per component")
	workers := flag.Int("workers", 1, "parse worker goroutines: 1 streams sequentially, 0 uses all CPUs (docs/PARALLEL.md)")
	stats := cliutil.StatsFlag()
	traceFlags := cliutil.NewTraceFlags()
	profFlags := cliutil.NewProfFlags()
	robustFlags := cliutil.NewRobustFlags()
	segFlags := cliutil.NewSegmentFlags()
	flag.Parse()

	desc, opts := input.Open("padsacc -desc description.pads [flags] [data]", robustFlags)
	tel, prf := cliutil.Observe(desc, *stats, traceFlags, profFlags, flag.Arg(0))
	(&cliutil.Tool{
		Name: "padsacc", Desc: desc, Opts: opts, Workers: *workers, DataArg: flag.Arg(0),
		Out: &core.Profile{Config: accum.Config{MaxTracked: *track, TopN: *top}, Field: *field},
		Seg: segFlags, Robust: robustFlags, Tel: tel, Prof: prf,
	}).Run()
}
