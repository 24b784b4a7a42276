package cliutil

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"pads/internal/padsrt"
	"pads/internal/telemetry/prof"
)

// ProfFlags holds the shared profiling flag values (-profile,
// -profile-folded, -profile-sample, -progress), registered through
// NewProfFlags so names and help text stay identical across tools.
type ProfFlags struct {
	Profile  bool   // -profile: print the per-node table to stderr
	Folded   string // -profile-folded: write folded stacks to FILE ('-' for stderr)
	Sample   int    // -profile-sample: profile 1 in N records
	Progress bool   // -progress: live ticker on stderr
}

// NewProfFlags registers the shared profiling flags.
func NewProfFlags() *ProfFlags {
	pf := &ProfFlags{}
	flag.BoolVar(&pf.Profile, "profile", false, "print the parse-path profile (per-node time/bytes/errors) to stderr (docs/OBSERVABILITY.md)")
	flag.StringVar(&pf.Folded, "profile-folded", "", "write folded stacks to `FILE` for flamegraph tools ('-' for stderr)")
	flag.IntVar(&pf.Sample, "profile-sample", 1, "profile 1 in `N` records (lower overhead on huge inputs)")
	flag.BoolVar(&pf.Progress, "progress", false, "show a live progress line on stderr (bytes/sec, ETA, error rate, hot node)")
	return pf
}

// Profiling is a tool run's configured parse-path profiler, or an inert
// value when no profiling flag was given. Close it when the parse finishes.
type Profiling struct {
	Prof *prof.Profiler

	progress   *prof.Progress
	table      bool
	foldedFile *os.File  // owned output file; nil for stderr or none
	foldedOut  io.Writer // destination for folded stacks; nil disables
	out        io.Writer // destination for the -profile table
}

// OpenProfiling validates the profiling flag values and builds the profiler.
// totalBytes sizes the progress ETA; pass <= 0 when unknown (stdin).
func OpenProfiling(pf *ProfFlags, totalBytes int64) (*Profiling, error) {
	if pf.Sample < 1 {
		return nil, fmt.Errorf("bad -profile-sample %d (must be >= 1)", pf.Sample)
	}
	p := &Profiling{}
	if !pf.Profile && pf.Folded == "" && !pf.Progress {
		return p, nil
	}
	opts := prof.Options{Every: pf.Sample}
	if pf.Progress {
		p.progress = prof.NewProgress(totalBytes)
		opts.Progress = p.progress
		p.progress.Start(os.Stderr, 250*time.Millisecond)
	}
	p.Prof = prof.New(opts)
	p.table = pf.Profile
	p.out = os.Stderr
	if pf.Folded != "" {
		w := io.Writer(os.Stderr)
		if pf.Folded != "-" {
			f, err := os.Create(pf.Folded)
			if err != nil {
				return nil, fmt.Errorf("bad -profile-folded: %w", err)
			}
			p.foldedFile = f
			w = f
		}
		p.foldedOut = w
	}
	return p, nil
}

// Enabled reports whether a profiler is active.
func (p *Profiling) Enabled() bool { return p.Prof != nil }

// SourceOptions extends opts with the profiler, when one is active, so shard
// readers pick it up the same way they pick up Stats.
func (p *Profiling) SourceOptions(opts []padsrt.SourceOption) []padsrt.SourceOption {
	if !p.Enabled() {
		return opts
	}
	return append(opts, padsrt.WithProf(p.Prof))
}

// Close finishes the run: it stops the progress ticker, snapshots the
// profile, prints the -profile table, and writes folded stacks. Safe to call
// once, after parsing completes.
func (p *Profiling) Close() error {
	if p.progress != nil {
		p.progress.Stop()
	}
	if !p.Enabled() {
		return nil
	}
	pr := p.Prof.Snapshot()
	if p.table {
		fmt.Fprintln(p.out, "-- parse profile (docs/OBSERVABILITY.md) --")
		pr.WriteTable(p.out)
	}
	var first error
	if p.foldedOut != nil {
		pr.WriteFolded(p.foldedOut)
	}
	if p.foldedFile != nil {
		if err := p.foldedFile.Close(); err != nil {
			first = err
		}
	}
	return first
}

// DataSize stats a data path for the progress ETA: the file size, or -1 for
// stdin ("" or "-") and anything unstattable.
func DataSize(path string) int64 {
	if path == "" || path == "-" {
		return -1
	}
	fi, err := os.Stat(path)
	if err != nil {
		return -1
	}
	return fi.Size()
}
