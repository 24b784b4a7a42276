package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// Event kinds emitted by the interpreter. The set is deliberately small and
// flat: one JSONL line per parsing decision, so traces grep and join well.
const (
	EvRecordBegin     = "record_begin"     // a record window opened
	EvRecordEnd       = "record_end"       // a record window closed
	EvFieldEnter      = "field_enter"      // a struct field parse started
	EvFieldExit       = "field_exit"       // a struct field parse finished (Err set on failure)
	EvBranchAttempt   = "branch_attempt"   // a union branch speculation started
	EvBranchBacktrack = "branch_backtrack" // the branch failed and the cursor restored
	EvBranchSelect    = "branch_select"    // the branch matched and committed
	EvError           = "error"            // a structural error outside field scope (literal, panic resync, no branch)
)

// Event is one structured trace record. Offsets are absolute byte offsets in
// the input (rebased offsets for sharded sources, so a parallel trace lines
// up with the file); Rec is the 1-based record number.
type Event struct {
	Ev     string `json:"ev"`
	Name   string `json:"name,omitempty"`   // type, dotted field path, or union name
	Branch string `json:"branch,omitempty"` // union branch name
	Off    int64  `json:"off"`              // byte offset where the event begins
	End    int64  `json:"end,omitempty"`    // byte offset where the span ends (exit/backtrack events)
	Rec    int    `json:"rec,omitempty"`    // 1-based record number
	Err    string `json:"err,omitempty"`    // error description for failures
}

// Tracer collects Events, either streaming them as JSONL to a writer or
// retaining only the most recent ones in a bounded ring — the mode that makes
// tracing a multi-gigabyte source safe: memory stays O(ring), and the tail of
// the trace (usually where the interesting failure is) survives.
//
// A Tracer is safe for concurrent use; sharded parses (segment.Exec)
// share one tracer, so events from different workers interleave but each is
// internally consistent (rebased offsets and record numbers).
type Tracer struct {
	mu      sync.Mutex
	w       *bufio.Writer // nil in ring-only mode
	enc     *json.Encoder
	ring    []Event   // bounded retention; nil when unbounded streaming
	out     io.Writer // ring mode: where Close drains the retained window
	next    int       // ring write cursor
	wrapped bool
	closed  bool
	emitted uint64
}

// NewTracer streams every event to w as one JSON object per line.
func NewTracer(w io.Writer) *Tracer {
	bw := bufio.NewWriter(w)
	return &Tracer{w: bw, enc: json.NewEncoder(bw)}
}

// NewRingTracer retains only the last n events in memory (n must be > 0);
// read them back with Events or WriteJSONL.
func NewRingTracer(n int) *Tracer {
	if n <= 0 {
		n = 1
	}
	return &Tracer{ring: make([]Event, n)}
}

// NewRingTracerTo is NewRingTracer with an owned output: Close drains the
// retained window to w. Binding the destination at construction means the
// final (possibly partial) window reaches the trace file on every exit path
// that closes the tracer — clean EOF, error budget stop, or fault-truncated
// input — not just the paths that remember to call WriteJSONL.
func NewRingTracerTo(n int, w io.Writer) *Tracer {
	t := NewRingTracer(n)
	t.out = w
	return t
}

// Emit records one event. On a nil Tracer it is a no-op, so call sites can
// thread a possibly-nil tracer without guarding (the interpreter still
// guards, to skip building the event at all).
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.emitted++
	if t.ring != nil {
		t.ring[t.next] = e
		t.next++
		if t.next == len(t.ring) {
			t.next = 0
			t.wrapped = true
		}
		return
	}
	t.enc.Encode(e)
}

// Emitted reports how many events the tracer has seen (including any that a
// bounded ring has since evicted).
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.emitted
}

// Events returns the retained events, oldest first. In streaming mode it
// returns nil: the events have already been written out.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ring == nil {
		return nil
	}
	if !t.wrapped {
		return append([]Event(nil), t.ring[:t.next]...)
	}
	out := make([]Event, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// WriteJSONL writes the retained ring events to w as JSONL (no-op in
// streaming mode, where events were written as they happened).
func (t *Tracer) WriteJSONL(w io.Writer) error {
	events := t.Events()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Flush forces buffered streaming output to the underlying writer.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.w == nil {
		return nil
	}
	return t.w.Flush()
}

// Close finalizes the tracer: in ring mode with an owned output
// (NewRingTracerTo) it drains the retained — possibly partial — window to
// that output; in streaming mode it flushes. Close is idempotent: the first
// call writes, later calls are no-ops, so defensive defers on error paths
// cannot duplicate the window.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	out := t.out
	t.mu.Unlock()
	if t.ring != nil && out != nil {
		return t.WriteJSONL(out)
	}
	return t.Flush()
}
