// Command perfbench is the repository's end-to-end and per-layer benchmark.
// One invocation runs one workload from one process, checks that workload's
// outputs against computations made apart from the program, and prints one
// JSON result as the last line of standard output:
//
//	perfbench --workload sirius-accum --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries every end-to-end metric; with --trace 1
// it carries every per-layer metric, measured from spans the benchmark
// records around its own calls into the program's packages, plus the
// tracing overhead. README.md lists the workloads, the metrics and which
// layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload gets: its seed, its time budget, whether it
// runs traced, and where it may write.
type env struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	work    string    // scratch directory for corpora and job directories
	spans   string    // where a traced run writes its spans
	log     io.Writer // narration (stderr)
}

// outcome is what a workload reports back.
type outcome struct {
	attempted int
	problems  []string           // failed correctness checks
	values    map[string]float64 // end-to-end or per-layer metrics by name
}

func (o *outcome) check(err error) {
	if err != nil {
		o.problems = append(o.problems, err.Error())
	}
}

type workloadFunc func(e *env) (*outcome, error)

var workloads = map[string]workloadFunc{
	"sirius-accum":   runSiriusAccum,
	"sirius-vet":     runSiriusVet,
	"clf-daemon":     runCLFDaemon,
	"sirius-ooc-fmt": runSiriusOOCFmt,
}

func main() {
	name := flag.String("workload", "", "workload to run: sirius-accum, sirius-vet, clf-daemon, sirius-ooc-fmt")
	seed := flag.Uint64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 15, "how long the timed part of the run lasts")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 the end-to-end metrics")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %s, --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := requireCheckout(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	work, err := os.MkdirTemp(mustMkdir(".bench_out"), "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		work:    work,
		spans:   filepath.Join(mustMkdir(filepath.Join(".bench_out", "spans")), fmt.Sprintf("%s-seed%d.jsonl", *name, *seed)),
		log:     os.Stderr,
	}
	out, err := run(e)
	if rmErr := os.RemoveAll(work); rmErr != nil && err == nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	fmt.Fprintf(e.log, "perfbench: %d calibration samples, scale %.4f, median %v\n", cal.mark(), cal.scale(0), median(cal.samples))
	units := endToEnd
	if e.trace {
		units = perLayer
	}
	// No operation of any workload fails: one that does ends the run with an
	// error above, so failed is always 0.
	res := result{Correct: len(out.problems) == 0, Attempted: out.attempted, Metrics: map[string]metric{}}
	for _, m := range units {
		v, ok := out.values[m.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s was not measured\n", *name, m.name)
			os.Exit(1)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	return dir
}

// requireCheckout refuses to run outside the root of a checkout: the
// workloads compile the repository's own descriptions from testdata/.
func requireCheckout() error {
	for _, f := range []string{siriusDescPath, clfDescPath} {
		if _, err := os.Stat(f); err != nil {
			return fmt.Errorf("run from the root of a checkout: %w", err)
		}
	}
	return nil
}
