// Web-log analytics over raw data: generate a CLF corpus with the error
// population of section 5.2, then run every derived tool the paper
// describes — accumulator profiling (finding the undocumented '-' length),
// delimited formatting (Figure 8), XML conversion, and queries (section
// 5.4) — without ever converting the log to another format first.
//
//	go run ./examples/weblog [records]
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
)

import "pads"

func main() {
	records := 5000
	if len(os.Args) > 1 {
		if n, err := strconv.Atoi(os.Args[1]); err == nil {
			records = n
		}
	}

	desc, err := pads.CompileFile("testdata/clf.pads")
	if err != nil {
		log.Fatal(err)
	}

	var corpus bytes.Buffer
	st, err := pads.GenerateCLF(&corpus, pads.DefaultCLF(records))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d CLF records, %d with the undocumented '-' length\n\n", st.Records, st.BadLengths)
	data := corpus.Bytes()

	// 1. Profile the source (section 5.2). The report reveals the '-'
	//    values exactly as the paper's accumulator run did.
	acc, _, err := desc.AccumulateReader(bytes.NewReader(data), nil, pads.AccumConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== accumulator report for <top>.length (cf. section 5.2) ===")
	acc.ReportField(os.Stdout, "<top>", "length")

	// 2. Format the first records as pipe-delimited text (Figure 8).
	fmt.Println("=== formatted records (Figure 8) ===")
	f := pads.NewFormatter("|")
	f.DateFormat = "%D:%T"
	rr2, _ := desc.Records(pads.NewBytesSource(data), nil)
	for i := 0; i < 3 && rr2.More(); i++ {
		fmt.Println(f.FormatRecord(rr2.Read()))
	}

	// 3. Convert one record to XML (section 5.3.2).
	rr3, _ := desc.Records(pads.NewBytesSource(data), nil)
	fmt.Println("\n=== one record as XML ===")
	fmt.Print(pads.XMLString(rr3.Read(), "entry"))

	// 4. Query the raw log (section 5.4): how many server errors, and
	//    which clients saw them?
	v, err := desc.ParseAll(pads.NewBytesSource(data))
	if err != nil {
		log.Fatal(err)
	}
	_, n, _, err := desc.RunQuery(`count(/elt[response >= 500])`, v)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n=== queries ===\nserver errors (5xx): %g\n", n)
	nodes, _, _, err := desc.RunQuery(`/elt[response >= 500]/client`, v)
	if err != nil {
		log.Fatal(err)
	}
	show := len(nodes)
	if show > 5 {
		show = 5
	}
	var clients []string
	for _, c := range nodes[:show] {
		if len(c.Children()) > 0 {
			clients = append(clients, c.Children()[0].Text())
		}
	}
	fmt.Printf("first clients with 5xx: %s\n", strings.Join(clients, ", "))
}
