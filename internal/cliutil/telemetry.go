package cliutil

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pads/internal/padsrt"
	"pads/internal/telemetry"
)

// The observability flags are shared plumbing: every tool that offers
// -stats / -trace / -trace-last / -json registers them through these helpers
// so names, help text, and validation errors never drift between tools
// (docs/OBSERVABILITY.md).

// StatsFlag registers the shared -stats flag.
func StatsFlag() *bool {
	return flag.Bool("stats", false, "print runtime parse counters to stderr (docs/OBSERVABILITY.md)")
}

// JSONFlag registers the shared -json flag.
func JSONFlag() *bool {
	return flag.Bool("json", false, "write machine-readable JSON to stdout instead of the human report")
}

// TraceFlags holds the shared trace flag values.
type TraceFlags struct {
	Path string // -trace: output file, "-" for stderr
	Last int    // -trace-last: bounded ring size, 0 streams everything
}

// NewTraceFlags registers the shared -trace and -trace-last flags.
func NewTraceFlags() *TraceFlags {
	tf := &TraceFlags{}
	flag.StringVar(&tf.Path, "trace", "", "write a JSONL parse trace to `FILE` ('-' for stderr)")
	flag.IntVar(&tf.Last, "trace-last", 0, "with -trace, keep only the last N events (bounded ring, safe on huge inputs)")
	return tf
}

// Telemetry is a tool run's configured observability: a Stats when -stats
// was given, a Tracer when -trace was given, or nils. Close it when the
// parse finishes.
type Telemetry struct {
	Stats  *telemetry.Stats
	Tracer *telemetry.Tracer

	traceFile *os.File  // owned output file; nil for stderr or no trace
	statsOut  io.Writer // destination for the -stats block; nil disables
}

// OpenTelemetry validates the observability flag values and builds the
// observers. Tools that do not register the trace flags pass "" and 0.
func OpenTelemetry(stats bool, tracePath string, traceLast int) (*Telemetry, error) {
	if traceLast < 0 {
		return nil, fmt.Errorf("bad -trace-last %d (must be >= 0)", traceLast)
	}
	if traceLast > 0 && tracePath == "" {
		return nil, fmt.Errorf("-trace-last requires -trace")
	}
	t := &Telemetry{}
	if stats {
		t.Stats = telemetry.NewStats()
		t.statsOut = os.Stderr
	}
	if tracePath != "" {
		w := io.Writer(os.Stderr)
		if tracePath != "-" {
			f, err := os.Create(tracePath)
			if err != nil {
				return nil, fmt.Errorf("bad -trace: %w", err)
			}
			t.traceFile = f
			w = f
		}
		if traceLast > 0 {
			// Bounded ring: events accumulate in memory and the retained
			// tail — full or partial — is drained by Tracer.Close, so
			// tracing a multi-GB source cannot fill the disk or the heap,
			// and truncated runs still flush their final window.
			t.Tracer = telemetry.NewRingTracerTo(traceLast, w)
		} else {
			t.Tracer = telemetry.NewTracer(w)
		}
	}
	return t, nil
}

// SourceOptions extends opts with the stats sink, when one is active, so the
// input Source's buffer/record/speculation counters are collected too.
func (t *Telemetry) SourceOptions(opts []padsrt.SourceOption) []padsrt.SourceOption {
	if t.Stats == nil {
		return opts
	}
	return append(opts, padsrt.WithStats(t.Stats))
}

// Close finishes the run: it drains a ring-mode trace's retained (possibly
// partial) window, flushes a streaming trace, closes the trace file, and
// prints the -stats block to stderr. Tracer.Close is idempotent, so calling
// this from both an error path and a success path cannot duplicate the
// window.
func (t *Telemetry) Close() error {
	var first error
	if err := t.Tracer.Close(); err != nil {
		first = err
	}
	if t.traceFile != nil {
		if err := t.traceFile.Close(); err != nil && first == nil {
			first = err
		}
	}
	if t.statsOut != nil {
		fmt.Fprintln(t.statsOut, "-- parse telemetry (docs/OBSERVABILITY.md) --")
		t.Stats.WriteText(t.statsOut)
	}
	return first
}
