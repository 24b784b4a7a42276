// Package telemetry is the observability layer of the runtime: mergeable
// counters describing how a parse behaved (buffer pressure, speculation
// churn, intern-cache effectiveness, per-worker utilization), a structured
// JSONL tracer for per-decision parse events, and the machine-readable
// benchmark report emitted by padsbench -json.
//
// The design rule is zero overhead when disabled: every producer holds a
// possibly-nil *Stats or *Tracer and guards each update with a nil check, so
// the uninstrumented hot path pays one predictable branch and no allocation.
// A Stats is written by exactly one goroutine (its Source / interpreter);
// concurrent engines give every worker a private Stats and fold them with
// Merge on the coordinating goroutine (see segment.Exec).
//
// Counter semantics, the trace event schema, and the overhead guarantee are
// documented in docs/OBSERVABILITY.md.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// SourceStats counts padsrt.Source activity: the buffer, record, intern, and
// speculation machinery of the runtime cursor.
type SourceStats struct {
	// Buffer pressure.
	BytesRead    uint64 `json:"bytes_read"`    // bytes pulled from the underlying reader
	Fills        uint64 `json:"fills"`         // read calls that grew the window
	Compacts     uint64 `json:"compacts"`      // window compactions (shifts)
	CompactBytes uint64 `json:"compact_bytes"` // bytes copied by compactions

	// Intern cache (string base types; see Source.internString).
	InternHits   uint64 `json:"intern_hits"`
	InternMisses uint64 `json:"intern_misses"`

	// Speculation (Punion / Popt backtracking).
	Checkpoints  uint64 `json:"checkpoints"`    // checkpoints pushed
	Commits      uint64 `json:"commits"`        // checkpoints resolved by Commit
	Restores     uint64 `json:"restores"`       // checkpoints resolved by Restore (backtracks)
	MaxSpecDepth uint64 `json:"max_spec_depth"` // deepest checkpoint nesting observed

	// Records.
	RecordsBegun   uint64 `json:"records_begun"`
	RecordsEnded   uint64 `json:"records_ended"`
	EORResyncs     uint64 `json:"eor_resyncs"`      // SkipToEOR calls that skipped data
	EORResyncBytes uint64 `json:"eor_resync_bytes"` // bytes discarded by those skips

	// Fault tolerance (docs/ROBUSTNESS.md).
	ReadRetries   uint64 `json:"read_retries,omitempty"`      // transient read errors retried
	TruncatedRecs uint64 `json:"truncated_records,omitempty"` // records clamped to MaxRecordLen
}

// add folds o into s, field by field (maxima take the max).
func (s *SourceStats) add(o *SourceStats) {
	s.BytesRead += o.BytesRead
	s.Fills += o.Fills
	s.Compacts += o.Compacts
	s.CompactBytes += o.CompactBytes
	s.InternHits += o.InternHits
	s.InternMisses += o.InternMisses
	s.Checkpoints += o.Checkpoints
	s.Commits += o.Commits
	s.Restores += o.Restores
	if o.MaxSpecDepth > s.MaxSpecDepth {
		s.MaxSpecDepth = o.MaxSpecDepth
	}
	s.RecordsBegun += o.RecordsBegun
	s.RecordsEnded += o.RecordsEnded
	s.EORResyncs += o.EORResyncs
	s.EORResyncBytes += o.EORResyncBytes
	s.ReadRetries += o.ReadRetries
	s.TruncatedRecs += o.TruncatedRecs
}

// FaultStats counts contained failures: faults that were absorbed by the
// degradation machinery instead of killing the run (docs/ROBUSTNESS.md).
type FaultStats struct {
	ChunkFailures uint64 `json:"chunk_failures,omitempty"` // segment workers that panicked
	ChunkRetries  uint64 `json:"chunk_retries,omitempty"`  // panicked segments parsed again
	ChunkRescues  uint64 `json:"chunk_rescues,omitempty"`  // retries that succeeded
	Quarantined   uint64 `json:"quarantined,omitempty"`    // records written to the dead-letter sink
}

// add folds o into f.
func (f *FaultStats) add(o *FaultStats) {
	f.ChunkFailures += o.ChunkFailures
	f.ChunkRetries += o.ChunkRetries
	f.ChunkRescues += o.ChunkRescues
	f.Quarantined += o.Quarantined
}

// WorkerStat is one worker goroutine's share of a parallel run: how many
// records and bytes its segments held and how long they took wall-clock,
// so skew between workers is visible (segment.Exec).
type WorkerStat struct {
	Worker  int    `json:"worker"` // worker index, 0-based
	Records uint64 `json:"records"`
	Bytes   uint64 `json:"bytes"`
	WallNS  int64  `json:"wall_ns"`
}

// Wall returns the worker's wall-clock time.
func (w WorkerStat) Wall() time.Duration { return time.Duration(w.WallNS) }

// Stats aggregates every counter family for one parse (or one worker of a
// parallel parse). The zero value is ready to use; maps allocate lazily.
type Stats struct {
	Source SourceStats `json:"source"`

	// FieldErrors tallies parse errors by dotted field path (the
	// interpreter's per-field error accounting; section 5 of the paper makes
	// error behavior observable per field, this makes it countable).
	FieldErrors map[string]uint64 `json:"field_errors,omitempty"`

	// UnionChoices histograms union branch selection, keyed
	// "UnionType.branch" (the no-match case is keyed "UnionType.<none>").
	// Saggitarius-style ambiguity diagnosis starts here: a union whose
	// histogram is spread across branches is doing real speculation work.
	UnionChoices map[string]uint64 `json:"union_choices,omitempty"`

	// Workers holds per-worker utilization rows for parallel runs, one per
	// worker goroutine; empty for sequential parses.
	Workers []WorkerStat `json:"workers,omitempty"`

	// Faults counts contained failures: segment-level panic containment in
	// the executor and quarantined (dead-lettered) records.
	Faults FaultStats `json:"faults"`
}

// NewStats returns an empty Stats.
func NewStats() *Stats { return &Stats{} }

// FieldError tallies one erroneous parse of the field at path.
func (s *Stats) FieldError(path string) {
	if s.FieldErrors == nil {
		s.FieldErrors = make(map[string]uint64)
	}
	s.FieldErrors[path]++
}

// UnionChoice tallies one selection of branch within union.
func (s *Stats) UnionChoice(union, branch string) {
	if s.UnionChoices == nil {
		s.UnionChoices = make(map[string]uint64)
	}
	s.UnionChoices[union+"."+branch]++
}

// Merge folds o into s: counters add, maxima take the max, maps merge, and
// worker rows append. It is how a coordinator combines per-worker Stats; o
// is left untouched.
func (s *Stats) Merge(o *Stats) {
	if o == nil {
		return
	}
	s.Source.add(&o.Source)
	for k, v := range o.FieldErrors {
		if s.FieldErrors == nil {
			s.FieldErrors = make(map[string]uint64)
		}
		s.FieldErrors[k] += v
	}
	for k, v := range o.UnionChoices {
		if s.UnionChoices == nil {
			s.UnionChoices = make(map[string]uint64)
		}
		s.UnionChoices[k] += v
	}
	s.Workers = append(s.Workers, o.Workers...)
	s.Faults.add(&o.Faults)
}

// WriteText renders the human-readable stats block the -stats flag prints.
// Sections with no activity are omitted so small runs stay small.
func (s *Stats) WriteText(w io.Writer) {
	src := &s.Source
	fmt.Fprintf(w, "records        begun %d, ended %d\n", src.RecordsBegun, src.RecordsEnded)
	fmt.Fprintf(w, "buffer         %d bytes read in %d fills; %d compactions copied %d bytes\n",
		src.BytesRead, src.Fills, src.Compacts, src.CompactBytes)
	fmt.Fprintf(w, "speculation    %d checkpoints (%d commits, %d restores), max depth %d\n",
		src.Checkpoints, src.Commits, src.Restores, src.MaxSpecDepth)
	if hits, misses := src.InternHits, src.InternMisses; hits+misses > 0 {
		fmt.Fprintf(w, "intern cache   %d hits, %d misses (%.1f%% hit rate)\n",
			hits, misses, 100*float64(hits)/float64(hits+misses))
	}
	if src.EORResyncs > 0 {
		fmt.Fprintf(w, "panic resync   %d skips discarded %d bytes\n", src.EORResyncs, src.EORResyncBytes)
	}
	if src.ReadRetries+src.TruncatedRecs > 0 {
		fmt.Fprintf(w, "resource guard %d transient reads retried, %d records clamped to the length cap\n",
			src.ReadRetries, src.TruncatedRecs)
	}
	if f := &s.Faults; f.ChunkFailures+f.ChunkRetries+f.Quarantined > 0 {
		fmt.Fprintf(w, "contained      %d worker panics (%d retried, %d rescued), %d records quarantined\n",
			f.ChunkFailures, f.ChunkRetries, f.ChunkRescues, f.Quarantined)
	}
	if len(s.FieldErrors) > 0 {
		fmt.Fprintf(w, "field errors   (%d paths)\n", len(s.FieldErrors))
		for _, k := range sortedKeys(s.FieldErrors) {
			fmt.Fprintf(w, "  %-28s %d\n", k, s.FieldErrors[k])
		}
	}
	if len(s.UnionChoices) > 0 {
		fmt.Fprintf(w, "union choices  (%d branches)\n", len(s.UnionChoices))
		for _, k := range sortedKeys(s.UnionChoices) {
			fmt.Fprintf(w, "  %-28s %d\n", k, s.UnionChoices[k])
		}
	}
	if len(s.Workers) > 0 {
		fmt.Fprintf(w, "workers        (%d goroutines)\n", len(s.Workers))
		for _, ws := range s.Workers {
			fmt.Fprintf(w, "  worker %-3d %10d records %12d bytes %10.3fms\n",
				ws.Worker, ws.Records, ws.Bytes, float64(ws.WallNS)/1e6)
		}
	}
}

func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// MarshalJSONIndent renders the stats as indented JSON (the counters block
// attached to padsbench -json rows).
func (s *Stats) MarshalJSONIndent() ([]byte, error) { return json.MarshalIndent(s, "", "  ") }
