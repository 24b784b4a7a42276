// Command padsxml is the generated XML conversion program of section 5.3.2:
// it converts ad hoc data into the canonical XML embedding, including parse
// descriptors for the buggy portions, and can emit the XML Schema the
// output conforms to.
//
// Usage:
//
//	padsxml -desc sirius.pads data.txt          # data -> XML on stdout
//	padsxml -desc sirius.pads -schema           # print the XML Schema
//	padsxml -desc sirius.pads -out-of-core -out big.xml big.txt
//	padsxml -desc sirius.pads -resume big.txt.manifest
package main

import (
	"flag"
	"fmt"

	"pads/internal/cliutil"
)

func main() {
	input := cliutil.NewInputFlags()
	schema := flag.Bool("schema", false, "print the generated XML Schema instead of converting data")
	rootTag := flag.String("root", "source", "root element name")
	outPath := flag.String("out", "", "write XML to `FILE` (required with -out-of-core: resume must be able to truncate it)")
	workers := flag.Int("workers", 0, "out-of-core parse workers (0 = all CPUs)")
	robustFlags := cliutil.NewRobustFlags()
	segFlags := cliutil.NewSegmentFlags()
	flag.Parse()

	desc, opts := input.Open("padsxml -desc description.pads [-schema] [data]", robustFlags)
	if *schema {
		fmt.Print(desc.Schema())
		return
	}
	out, err := desc.XML(*rootTag)
	if err != nil {
		cliutil.Fatal(err)
	}
	(&cliutil.Tool{
		Name: "padsxml", Desc: desc, Opts: opts, Workers: *workers,
		Out: out, OutPath: *outPath, DataArg: flag.Arg(0),
		Seg: segFlags, Robust: robustFlags,
	}).Run()
}
