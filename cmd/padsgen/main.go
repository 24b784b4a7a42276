// Command padsgen generates synthetic data: either random data conforming
// to any PADS description (the section 9 tool, useful when the real data is
// proprietary), or the calibrated CLF / Sirius corpora used to reproduce the
// paper's experiments, complete with their documented error populations.
//
// Usage:
//
//	padsgen -desc mytype.pads -n 100 -seed 7 > data        # description-driven
//	padsgen -corpus sirius -n 1000000 > sirius.txt         # section 7 data
//	padsgen -corpus clf -n 57368 > weblog.txt              # section 5.2 data
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"pads/internal/cliutil"
	"pads/internal/datagen"
)

func main() {
	descPath := flag.String("desc", "", "generate from this PADS description")
	corpus := flag.String("corpus", "", "generate a calibrated corpus: clf or sirius")
	n := flag.Int("n", 1000, "records (corpus mode) or instances (description mode)")
	seed := flag.Uint64("seed", 1, "random seed")
	flag.Parse()

	out := bufio.NewWriterSize(os.Stdout, 1<<20)
	defer out.Flush()

	switch {
	case *corpus == "clf":
		cfg := datagen.DefaultCLF(*n)
		cfg.Seed = *seed
		st, err := datagen.CLF(out, cfg)
		if err != nil {
			cliutil.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "clf: %d records, %d bad lengths, %d bytes\n", st.Records, st.BadLengths, st.Bytes)
	case *corpus == "sirius":
		cfg := datagen.DefaultSirius(*n)
		cfg.Seed = *seed
		st, err := datagen.Sirius(out, cfg)
		if err != nil {
			cliutil.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "sirius: %d records, %d sort violations, %d syntax errors, events %d..%d (mean %.2f), %d bytes\n",
			st.Records, st.SortViolations, st.SyntaxErrors, st.MinEvents, st.MaxEvents,
			float64(st.Events)/float64(st.Records), st.Bytes)
	case *descPath != "":
		desc := cliutil.MustCompile(*descPath)
		g, err := desc.NewGenerator(*seed)
		if err != nil {
			cliutil.Fatal(err)
		}
		for i := 0; i < *n; i++ {
			data, err := g.GenerateSource()
			if err != nil {
				cliutil.Fatal(err)
			}
			out.Write(data)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: padsgen (-desc description.pads | -corpus clf|sirius) [-n N] [-seed S]")
		os.Exit(2)
	}
}
