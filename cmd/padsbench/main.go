// Command padsbench regenerates the paper's performance evaluation
// (section 7, Figure 10): it synthesizes a Sirius file with the documented
// error population, then times three implementations of the vetting and
// selection tasks plus the record-counting baseline:
//
//   - pads:    the compiled (generated Go) PADS parser
//   - perl:    the actual Perl programs of section 7 (scripts/perl/*.pl,
//     including the Figure 9 regular expression verbatim), when a
//     perl interpreter is on PATH — the paper's own comparison
//   - go-perl: Go ports of the Perl algorithms (a compiled-baseline
//     ablation the paper could not run)
//
// The paper's numbers (SGI Origin 2000, 11.77M records, 2.2GB, Perl 5.6.1):
//
//	padsvet  ~1616s   perl vet    ~3272s   (PADS 2.03x faster)
//	padsselect ~421s  perl select  ~520s   (PADS 1.23x faster)
//	count: PADS 81s   perl 124s            (PADS 1.53x faster)
//
// Usage:
//
//	padsbench [-n 2000000] [-runs 3] [-state LOC_0] [-noperl] [-workers 4]
//	padsbench -json > BENCH.json   # machine-readable rows (scripts/bench.sh)
//	padsbench -leverage        # the section 4 description-expansion ratio
//
// With -json the human-readable progress goes to stderr and stdout carries
// one pads-bench/v1 report (internal/telemetry.BenchReport): per-program
// timing rows with bytes/sec, allocs per run, and — for the pads rows — the
// runtime telemetry counters of one instrumented pass, so BENCH_*.json
// trajectory files track counter regressions alongside wall time.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"pads/internal/baseline"
	"pads/internal/cliutil"
	"pads/internal/codegen"
	"pads/internal/core"
	"pads/internal/datagen"
	"pads/internal/fig10"
	"pads/internal/padsrt"
	"pads/internal/telemetry"
	"pads/internal/telemetry/prof"
	"pads/internal/value"
)

func main() {
	n := flag.Int("n", 2_000_000, "Sirius records to generate (the paper used 11,773,843)")
	runs := flag.Int("runs", 3, "timed runs per program (the paper reports 3)")
	state := flag.String("state", datagen.StateName(0), "state for the selection task")
	noPerl := flag.Bool("noperl", false, "skip the real-Perl runs even if perl is installed")
	leverage := flag.Bool("leverage", false, "print the section 4 leverage ratio and exit")
	keep := flag.String("keep", "", "also keep the generated data at this path")
	workers := flag.Int("workers", 0, "if > 1, also time the record-sharded parallel programs with this many workers")
	profile := flag.Bool("profile", false, "also run one interpreter pass with the parse-path profiler and report the per-node hot list")
	jsonOut := cliutil.JSONFlag()
	flag.Parse()

	if *leverage {
		printLeverage()
		return
	}

	// With -json, stdout is reserved for the report; narration moves to
	// stderr so `padsbench -json > BENCH.json` stays clean.
	out := io.Writer(os.Stdout)
	var report *telemetry.BenchReport
	if *jsonOut {
		out = os.Stderr
		report = &telemetry.BenchReport{
			Schema:     telemetry.BenchSchema,
			Date:       time.Now().Format("2006-01-02"),
			Go:         runtime.Version(),
			Commit:     gitCommit(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Records:    *n,
			Workers:    *workers,
		}
		report.Host, _ = os.Hostname()
	}

	perlPath := ""
	if !*noPerl {
		if p, err := exec.LookPath("perl"); err == nil {
			perlPath = p
		}
	}

	fmt.Fprintf(out, "Figure 10 reproduction: %d synthetic Sirius records, %d runs each\n", *n, *runs)
	tmpDir, err := os.MkdirTemp("", "padsbench")
	if err != nil {
		cliutil.Fatal(err)
	}
	defer os.RemoveAll(tmpDir)

	rawPath := filepath.Join(tmpDir, "sirius.raw")
	rawFile, err := os.Create(rawPath)
	if err != nil {
		cliutil.Fatal(err)
	}
	cfg := datagen.DefaultSirius(*n)
	st, err := datagen.Sirius(rawFile, cfg)
	if err != nil {
		cliutil.Fatal(err)
	}
	rawFile.Close()
	fmt.Fprintf(out, "data: %d bytes, %d sort violations, %d syntax errors, events %d..%d mean %.2f\n",
		st.Bytes, st.SortViolations, st.SyntaxErrors, st.MinEvents, st.MaxEvents,
		float64(st.Events)/float64(st.Records))
	if report != nil {
		report.Bytes = st.Bytes
	}
	if perlPath != "" {
		fmt.Fprintf(out, "perl: %s (scripts/perl)\n", perlPath)
	} else {
		fmt.Fprintln(out, "perl: not run")
	}
	fmt.Fprintln(out)
	if *keep != "" {
		data, _ := os.ReadFile(rawPath)
		os.WriteFile(*keep, data, 0o644)
	}

	// The selection programs read the cleaned file the vetters produce,
	// as in the paper.
	cleanPath := filepath.Join(tmpDir, "sirius.clean")
	cleanFile, err := os.Create(cleanPath)
	if err != nil {
		cliutil.Fatal(err)
	}
	raw := mustOpen(rawPath)
	if _, err := fig10.PadsVet(raw, cleanFile, io.Discard); err != nil {
		cliutil.Fatal(err)
	}
	raw.Close()
	cleanFile.Close()

	// The parallel programs (docs/PARALLEL.md) shard in-memory input, so
	// load the corpora once when they are in play.
	var rawData, cleanData []byte
	if *workers > 1 {
		if rawData, err = os.ReadFile(rawPath); err != nil {
			cliutil.Fatal(err)
		}
		if cleanData, err = os.ReadFile(cleanPath); err != nil {
			cliutil.Fatal(err)
		}
	}

	type prog struct {
		name string
		run  func() error
		// subproc marks rows timed through exec (perl): heap deltas in this
		// process would be noise, so they are skipped.
		subproc bool
		// instrument, set on pads rows, reruns the program once with a
		// telemetry sink attached so the -json report carries the runtime
		// counters alongside the timings (the extra pass is not timed).
		instrument func(*telemetry.Stats) error
	}
	bench := func(task string, note string, taskBytes int64, progs []prog) {
		fmt.Fprintf(out, "-- %s (%s)\n", task, note)
		times := make([]float64, len(progs))
		secs := make([][]float64, len(progs))
		allocs := make([]uint64, len(progs))
		allocBytes := make([]uint64, len(progs))
		fmt.Fprintf(out, "%-10s", "run")
		for _, p := range progs {
			fmt.Fprintf(out, " %12s", p.name)
		}
		fmt.Fprintln(out)
		var ms0, ms1 runtime.MemStats
		for r := 0; r < *runs; r++ {
			fmt.Fprintf(out, "%-10d", r+1)
			for i, p := range progs {
				runtime.ReadMemStats(&ms0)
				start := time.Now()
				if err := p.run(); err != nil {
					cliutil.Fatal(fmt.Errorf("%s: %w", p.name, err))
				}
				el := time.Since(start).Seconds()
				runtime.ReadMemStats(&ms1)
				times[i] += el
				secs[i] = append(secs[i], el)
				allocs[i] += ms1.Mallocs - ms0.Mallocs
				allocBytes[i] += ms1.TotalAlloc - ms0.TotalAlloc
				fmt.Fprintf(out, " %12.2f", el)
			}
			fmt.Fprintln(out)
		}
		fmt.Fprintf(out, "%-10s", "ratio")
		for i := range progs {
			fmt.Fprintf(out, " %12.2f", times[i]/times[0])
		}
		fmt.Fprintln(out, "   (relative to pads; >1 means pads is faster)")
		fmt.Fprintln(out)
		if report == nil {
			return
		}
		for i, p := range progs {
			row := telemetry.BenchRow{Task: task, Prog: p.name, Secs: secs[i]}
			if !p.subproc && *runs > 0 {
				row.AllocsPerRun = allocs[i] / uint64(*runs)
				row.AllocBytesPerRun = allocBytes[i] / uint64(*runs)
			}
			if p.instrument != nil {
				st := telemetry.NewStats()
				if err := p.instrument(st); err != nil {
					cliutil.Fatal(fmt.Errorf("%s (instrumented): %w", p.name, err))
				}
				row.Counters = st
			}
			telemetry.FinishRow(&row, taskBytes)
			report.Rows = append(report.Rows, row)
		}
	}

	cleanInfo, err := os.Stat(cleanPath)
	if err != nil {
		cliutil.Fatal(err)
	}
	// Each task times pads, Perl (when installed), the hand-written Go port
	// and, with -workers, the record-sharded pads program. The pads program
	// reads a Source built as fig10's readers build theirs; its instrument
	// pass adds a telemetry sink.
	open := func(path string, opts ...padsrt.SourceOption) (*os.File, *padsrt.Source) {
		f := mustOpen(path)
		return f, padsrt.NewSource(bufio.NewReaderSize(f, 1<<20), opts...)
	}
	tasks := []struct {
		name, note string
		path       string
		bytes      int64
		data       []byte
		perl       []string // script, then its arguments
		pads       func(*padsrt.Source) error
		goPort     func(io.Reader) error
		par        func([]byte) error
	}{
		{"vetting", "paper: padsvet 1616s vs perl 3272s, 2.03x", rawPath, st.Bytes, rawData,
			[]string{"scripts/perl/vet.pl"},
			func(s *padsrt.Source) error { return errOf(fig10.PadsVetSource(s, io.Discard, io.Discard)) },
			func(r io.Reader) error { return errOf(baseline.SiriusVet(r, io.Discard, io.Discard)) },
			func(d []byte) error { return errOf(fig10.PadsVetParallel(d, io.Discard, io.Discard, *workers)) }},
		{"selection", "paper: padsselect 421s vs perl 520s, 1.23x", cleanPath, cleanInfo.Size(), cleanData,
			[]string{"scripts/perl/select.pl", *state},
			func(s *padsrt.Source) error { return errOf(fig10.PadsSelectSource(s, io.Discard, *state)) },
			func(r io.Reader) error { return errOf(baseline.SiriusSelect(r, io.Discard, *state)) },
			func(d []byte) error { return errOf(fig10.PadsSelectParallel(d, io.Discard, *state, *workers)) }},
		{"record count", "paper: PADS 81s vs perl 124s, 1.53x", cleanPath, cleanInfo.Size(), cleanData,
			[]string{"scripts/perl/count.pl"},
			func(s *padsrt.Source) error { return errOf(fig10.PadsCountSource(s)) },
			func(r io.Reader) error { return errOf(baseline.CountRecords(r)) },
			func(d []byte) error { return errOf(fig10.PadsCountParallel(d, *workers)) }},
	}
	for _, t := range tasks {
		progs := []prog{{name: "pads", run: func() error {
			f, s := open(t.path)
			defer f.Close()
			return t.pads(s)
		}, instrument: func(st *telemetry.Stats) error {
			f, s := open(t.path, padsrt.WithStats(st))
			defer f.Close()
			return t.pads(s)
		}}}
		if perlPath != "" {
			progs = append(progs, prog{name: "perl", subproc: true, run: func() error {
				return runPerl(perlPath, t.path, t.perl[0], t.perl[1:]...)
			}})
		}
		progs = append(progs, prog{name: "go-port", run: func() error {
			f := mustOpen(t.path)
			defer f.Close()
			return t.goPort(f)
		}})
		if *workers > 1 {
			progs = append(progs, prog{name: fmt.Sprintf("pads-par%d", *workers), run: func() error {
				return t.par(t.data)
			}})
		}
		bench(t.name, t.note, t.bytes, progs)
	}

	// The Figure 10 rows time the generated parser, which has no node-level
	// instrumentation; the hot list comes from one untimed interpreter pass
	// over the cleaned corpus with the parse-path profiler attached
	// (docs/OBSERVABILITY.md), so the report shows where the description
	// itself spends its time.
	if *profile || report != nil {
		pr, err := interpProfile(cleanPath)
		if err != nil {
			cliutil.Fatal(fmt.Errorf("profile pass: %w", err))
		}
		if report != nil {
			report.HotNodes = pr.HotNodes(10)
		}
		if *profile {
			fmt.Fprintln(out, "-- parse profile (interpreter pass over the cleaned corpus) --")
			pr.WriteTable(out)
			fmt.Fprintln(out)
		}
	}

	if report != nil {
		if err := report.WriteJSON(os.Stdout); err != nil {
			cliutil.Fatal(err)
		}
	}
}

// interpProfile reads the cleaned corpus once through the interpreter with
// every record sampled, and returns the per-node profile.
func interpProfile(cleanPath string) (*prof.Profile, error) {
	desc, err := core.CompileFile("testdata/sirius.pads")
	if err != nil {
		return nil, err
	}
	p := prof.New(prof.Options{})
	desc.ObserveProf(p)
	f, err := os.Open(cleanPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s := padsrt.NewSource(bufio.NewReaderSize(f, 1<<20), padsrt.WithProf(p))
	rr, err := desc.Records(s, nil)
	if err != nil {
		return nil, err
	}
	if _, err := core.Scan(rr, func(value.Value) error { return nil }); err != nil {
		return nil, err
	}
	return p.Snapshot(), nil
}

// gitCommit stamps the report with the working tree's short commit hash;
// best effort — a build outside a git checkout just leaves the field empty.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// errOf drops a program's result, keeping its error.
func errOf[T any](_ T, err error) error { return err }

func mustOpen(path string) *os.File {
	f, err := os.Open(path)
	if err != nil {
		cliutil.Fatal(err)
	}
	return f
}

func runPerl(perl, dataPath, script string, args ...string) error {
	f := mustOpen(dataPath)
	defer f.Close()
	cmd := exec.Command(perl, append([]string{script}, args...)...)
	cmd.Stdin = f
	cmd.Stdout = io.Discard
	cmd.Stderr = io.Discard
	return cmd.Run()
}

func printLeverage() {
	src, err := os.ReadFile("testdata/sirius.pads")
	if err != nil {
		cliutil.Fatal(err)
	}
	desc := cliutil.MustCompile("testdata/sirius.pads")
	code, err := codegen.Generate(desc.Desc, codegen.Options{Package: "sirius", Source: "sirius.pads"})
	if err != nil {
		cliutil.Fatal(err)
	}
	dl := strings.Count(string(src), "\n")
	gl := strings.Count(code, "\n")
	fmt.Printf("E4 leverage ratio (section 4):\n")
	fmt.Printf("  description: %d lines\n  generated Go: %d lines\n  ratio: %.1fx\n", dl, gl, float64(gl)/float64(dl))
	fmt.Printf("  paper: 68 lines -> 1432 (.h) + 6471 (.c) = 7903 lines, 116x\n")
	fmt.Printf("  (the Go backend needs no headers and shares its tools via the value bridge)\n")
}
