package cliutil

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"pads/internal/accum"
	"pads/internal/core"
	"pads/internal/interp"
	"pads/internal/padsrt"
	"pads/internal/segment"
)

// Tool is one CLI tool's run of a derived output: padsacc's profile,
// padsfmt's delimited text or padsxml's XML. Run picks the path: an
// out-of-core job when the segment flags ask for one, an in-memory
// record-sharded scan for a profile with Workers other than 1 (padsacc's
// -workers, docs/PARALLEL.md), or one sequential pass.
type Tool struct {
	Name    string // names the tool in the out-of-core summary line
	Desc    *core.Description
	Out     core.Output
	Opts    []padsrt.SourceOption
	Workers int
	OutPath string // a stream's destination: "" is stdout; out of core it is required
	DataArg string // "" or "-" is stdin

	Seg    *SegmentFlags
	Robust *RobustFlags
	Tel    *Telemetry
	Prof   *Profiling
}

// Finish ends a tool run: it closes each closer in order — the quarantine
// first so its count lands in the -stats block, then the profiler so its
// progress ticker stops before the telemetry report prints — and exits
// through Fatal on the first error, err included.
func Finish(err error, closers ...io.Closer) {
	for _, c := range closers {
		if cerr := c.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		Fatal(err)
	}
}

// Run runs the tool, exiting on failure: status 3 for an exhausted error
// budget or a poisoned segment, 1 for anything else. Tel and Prof may be
// nil for a tool without those flags.
func (t *Tool) Run() {
	if t.Tel == nil {
		t.Tel = &Telemetry{}
	}
	if t.Prof == nil {
		t.Prof = &Profiling{}
	}
	if t.Seg.Active() {
		t.runJob()
		return
	}
	rob, err := t.Robust.Open(t.Tel.Stats)
	if err != nil {
		Fatal(err)
	}
	t.Desc.Policy = rob.Policy
	in, err := OpenData(t.DataArg)
	if err != nil {
		Fatal(err)
	}
	defer in.Close()
	r := bufio.NewReaderSize(in, 1<<20)

	if p, ok := t.Out.(*core.Profile); ok && t.Workers != 1 {
		// Record-sharded parallel accumulation over the whole input in
		// memory; the segment-ordered merge keeps the exact statistics
		// identical to a sequential run (docs/PARALLEL.md).
		var acc *accum.Accum
		var n int
		data, err := io.ReadAll(r)
		if err == nil {
			acc, n, err = t.Desc.AccumulateParallel(data, t.Opts, p.Config, t.Workers)
		}
		Finish(err, rob, t.Prof, t.Tel)
		Finish(writeOut("", func(w io.Writer) error { return p.Report(w, acc, n) }))
		return
	}
	opts := t.Prof.SourceOptions(t.Tel.SourceOptions(t.Opts))
	rr, err := t.Desc.Records(padsrt.NewSource(r, opts...), nil)
	if err == nil {
		rr.SetPolicy(rob.Policy)
		err = writeOut(t.OutPath, func(w io.Writer) error { return t.Out.Write(w, rr) })
	}
	Finish(err, rob, t.Prof, t.Tel)
}

// writeOut creates the file path ("" is stdout), writes it through a
// buffer with write, and closes it; the first error is returned.
func writeOut(path string, write func(w io.Writer) error) error {
	sink := os.Stdout
	if path != "" {
		var err error
		if sink, err = os.Create(path); err != nil {
			return err
		}
	}
	w := bufio.NewWriterSize(sink, 1<<20)
	err := write(w)
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if sink != os.Stdout {
		if cerr := sink.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// runJob runs the tool out of core (docs/ROBUSTNESS.md, "Out-of-core
// jobs"): segment-at-a-time parsing with a durable job manifest. The
// segment runner owns the quarantine file and applies the error budget per
// segment, so the Robustness block is bypassed; telemetry still folds in at
// each commit. A job with an output file leaves its output there and
// summarizes on stderr; one without (the profile) prints its output.
func (t *Tool) runJob() {
	rep, outPath, err := t.job()
	Finish(err, t.Prof, t.Tel)
	if outPath == "" {
		Finish(writeOut("", func(w io.Writer) error { return t.Out.Result(w, rep, "") }))
	} else {
		fmt.Fprintf(os.Stderr, "%s: %d records (%d errored) across %d segments\n", t.Name, rep.Records, rep.Errored, rep.Segments)
	}
	if len(rep.Poisoned) > 0 {
		// The job completed, but degraded: the error-budget exit status.
		fmt.Fprintf(os.Stderr, "%d of %d segments poisoned (job completed without them):\n", len(rep.Poisoned), rep.Segments)
		for _, p := range rep.Poisoned {
			fmt.Fprintf(os.Stderr, "  segment %d [%d,+%d): %s (%d records, %d errored)\n",
				p.Index, p.Off, p.Len, p.Reason, p.Records, p.Errored)
		}
		os.Exit(3)
	}
}

// job opens the input (out-of-core parsing preads a real file, not stdin),
// resolves the manifest path, and runs the segmented job. A resume takes
// its input and output paths from the manifest unless they are given. It
// returns the job's output file, "" when it has none.
func (t *Tool) job() (*segment.Report, string, error) {
	sf := t.Seg
	dataPath, outPath, manifestPath := t.DataArg, t.OutPath, sf.Manifest
	resume := sf.Resume != ""
	if resume {
		if sf.OutOfCore || sf.Manifest != "" {
			return nil, "", fmt.Errorf("-resume names the manifest itself; drop -out-of-core and -manifest")
		}
		manifestPath = sf.Resume
		info, err := segment.Peek(manifestPath)
		if err != nil {
			return nil, "", err
		}
		if dataPath == "" {
			dataPath = info.File
		}
		if outPath == "" {
			outPath = info.Out
		}
	}
	if dataPath == "" || dataPath == "-" {
		return nil, "", fmt.Errorf("out-of-core parsing needs a seekable data file, not stdin")
	}
	if manifestPath == "" {
		manifestPath = dataPath + ".manifest"
	}
	segSize, err := ParseSize(sf.SegSize)
	if err != nil {
		return nil, "", fmt.Errorf("bad -segment-size: %w", err)
	}

	cfg := segment.Config{
		DataPath: dataPath,
		Source:   t.Opts,
		SegSize:  segSize,
		Workers:  t.Workers,
		Manifest: manifestPath,
		Resume:   resume,
		Stats:    t.Tel.Stats,
		OutPath:  outPath,
		QuarPath: t.Robust.Quarantine,
	}
	// Budgets apply per segment (the fault-isolation boundary); the
	// quarantine file is owned by the segment runner, which appends and
	// fsyncs entries in segment order at each commit.
	if rf := t.Robust; rf.MaxErrors > 0 || rf.MaxErrorRate > 0 || rf.FailFast {
		cfg.Policy = &interp.Policy{MaxErrors: rf.MaxErrors, MaxErrorRate: rf.MaxErrorRate, FailFast: rf.FailFast}
	}
	rep, err := t.Desc.RunJob(t.Out, cfg)
	return rep, outPath, err
}
