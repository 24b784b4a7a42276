package cliutil

import (
	"flag"
	"fmt"
	"time"

	"pads/internal/atomicio"
	"pads/internal/interp"
	"pads/internal/padsrt"
	"pads/internal/telemetry"
)

// The fault-tolerance flags are shared plumbing like the observability ones:
// every tool that offers -max-errors / -max-error-rate / -fail-fast /
// -quarantine / -retry / -retry-backoff / -max-record registers them here so
// names, help text, and validation never drift (docs/ROBUSTNESS.md).

// RobustFlags holds the shared fault-tolerance flag values.
type RobustFlags struct {
	MaxErrors     int
	MaxErrorRate  float64
	FailFast      bool
	Quarantine    string
	Retry         int
	RetryBackoff  time.Duration
	MaxRecord     int
	MaxBacktracks int
}

// NewRobustFlags registers the shared fault-tolerance flags.
func NewRobustFlags() *RobustFlags {
	rf := &RobustFlags{}
	flag.IntVar(&rf.MaxErrors, "max-errors", 0, "abort once `N` records carried parse errors (0 = unlimited; exit status 3)")
	flag.Float64Var(&rf.MaxErrorRate, "max-error-rate", 0, "abort once the errored-record fraction exceeds `RATE` (0 = disabled; exit status 3)")
	flag.BoolVar(&rf.FailFast, "fail-fast", false, "abort on the first record with parse errors (exit status 3)")
	flag.StringVar(&rf.Quarantine, "quarantine", "", "dead-letter errored records as JSONL to `FILE` (docs/ROBUSTNESS.md)")
	flag.IntVar(&rf.Retry, "retry", 0, "retry transient input read errors up to `N` times before giving up")
	flag.DurationVar(&rf.RetryBackoff, "retry-backoff", 10*time.Millisecond, "initial `DELAY` between read retries, doubling per attempt")
	flag.IntVar(&rf.MaxRecord, "max-record", 0, "clamp records longer than `N` bytes and flag them ErrRecordTooLong (0 = unlimited)")
	flag.IntVar(&rf.MaxBacktracks, "max-backtracks", 0, "abort the parse after `N` speculation retreats — a runaway-ambiguity guard (0 = unlimited)")
	return rf
}

// SourceOptions extends opts with the resource-guard options the flags ask
// for: read retries, the record length cap, and the backtrack budget. The
// limits merge into one padsrt.Limits so the options don't overwrite each
// other.
func (rf *RobustFlags) SourceOptions(opts []padsrt.SourceOption) []padsrt.SourceOption {
	if rf.Retry > 0 {
		opts = append(opts, padsrt.WithRetry(rf.Retry, rf.RetryBackoff))
	}
	if rf.MaxRecord > 0 || rf.MaxBacktracks > 0 {
		opts = append(opts, padsrt.WithLimits(padsrt.Limits{
			MaxRecordLen:  rf.MaxRecord,
			MaxBacktracks: rf.MaxBacktracks,
		}))
	}
	return opts
}

// Robustness is a tool run's configured fault-tolerance: the error-budget
// Policy (nil when no budget flag was given) and the open quarantine file.
// Close it when the parse finishes, before Telemetry.Close so the
// quarantined count lands in the -stats block.
type Robustness struct {
	Policy *interp.Policy

	q     *interp.Quarantine
	qfile *atomicio.File
	stats *telemetry.Stats
}

// Open validates the fault-tolerance flag values, creates the quarantine
// file, and builds the error-budget policy. stats may be nil.
func (rf *RobustFlags) Open(stats *telemetry.Stats) (*Robustness, error) {
	if rf.MaxErrors < 0 {
		return nil, fmt.Errorf("bad -max-errors %d (must be >= 0)", rf.MaxErrors)
	}
	if rf.MaxErrorRate < 0 || rf.MaxErrorRate > 1 {
		return nil, fmt.Errorf("bad -max-error-rate %g (must be in [0, 1])", rf.MaxErrorRate)
	}
	if rf.Retry < 0 {
		return nil, fmt.Errorf("bad -retry %d (must be >= 0)", rf.Retry)
	}
	if rf.MaxRecord < 0 {
		return nil, fmt.Errorf("bad -max-record %d (must be >= 0)", rf.MaxRecord)
	}
	if rf.MaxBacktracks < 0 {
		return nil, fmt.Errorf("bad -max-backtracks %d (must be >= 0)", rf.MaxBacktracks)
	}
	r := &Robustness{stats: stats}
	pol := &interp.Policy{MaxErrors: rf.MaxErrors, MaxErrorRate: rf.MaxErrorRate, FailFast: rf.FailFast}
	if rf.Quarantine != "" {
		// Entries stream into a hidden temp file; Close fsyncs and renames
		// it into place (internal/atomicio), so a crashed run never leaves
		// a torn quarantine behind — a reader sees the previous complete
		// file or the new complete one.
		f, err := atomicio.Create(rf.Quarantine)
		if err != nil {
			return nil, fmt.Errorf("bad -quarantine: %w", err)
		}
		r.qfile = f
		r.q = interp.NewQuarantine(f)
		pol.Sink = r.q
	}
	if pol.Active() {
		r.Policy = pol
	}
	return r, nil
}

// Close finishes the run: it folds the quarantined-record count into the
// stats (when both exist), surfaces any quarantine write error, and commits
// the quarantine file — fsync plus atomic rename into place, so the file
// appears complete or not at all.
func (r *Robustness) Close() error {
	var first error
	if r.q != nil {
		if r.stats != nil {
			r.stats.Faults.Quarantined += r.q.Count()
		}
		if err := r.q.Err(); err != nil {
			first = fmt.Errorf("quarantine: %w", err)
		}
	}
	if r.qfile != nil {
		if first != nil {
			r.qfile.Abort()
		} else if err := r.qfile.Commit(); err != nil {
			first = err
		}
	}
	return first
}
