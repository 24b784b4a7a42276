package padsd

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"pads/internal/telemetry"
)

// metrics is the daemon's own counter set, separate from the per-parse
// telemetry.Stats (which are per-request and folded into the aggregate
// below): request outcomes, admission decisions, containment activity, and
// liveness gauges. All fields are atomics — handlers update them from many
// goroutines — and render through telemetry.MetricsHandler like any other
// collector.
type metrics struct {
	reqTotal  atomic.Uint64
	req2xx    atomic.Uint64
	req4xx    atomic.Uint64
	req5xx    atomic.Uint64
	throttled atomic.Uint64 // 429s: tenant bucket or stream cap
	overload  atomic.Uint64 // 503s: global concurrency or draining
	panics    atomic.Uint64 // handler panics contained
	deadline  atomic.Uint64 // parses aborted by deadline expiry
	cancelled atomic.Uint64 // parses aborted by client disconnect or drain
	budget    atomic.Uint64 // parses aborted by an error budget

	records     atomic.Uint64
	errored     atomic.Uint64
	bytesIn     atomic.Uint64
	quarantined atomic.Uint64

	jobsStarted   atomic.Uint64 // out-of-core jobs accepted (incl. resumes)
	jobsCompleted atomic.Uint64 // jobs that ran to a finalized manifest
	jobsFailed    atomic.Uint64 // jobs that died on a job-fatal error
	jobsCancelled atomic.Uint64 // jobs stopped by DELETE or drain hard stop
	jobsPoisoned  atomic.Uint64 // completed jobs with >=1 poisoned segment

	active     atomic.Int64
	jobsActive atomic.Int64
	draining   atomic.Bool
}

// WritePrometheus implements telemetry.Collector.
func (m *metrics) WritePrometheus(w io.Writer) {
	counter := func(name string, v uint64) {
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, v)
	}
	gauge := func(name string, v int64) {
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, v)
	}
	counter("padsd_requests_total", m.reqTotal.Load())
	counter("padsd_responses_2xx_total", m.req2xx.Load())
	counter("padsd_responses_4xx_total", m.req4xx.Load())
	counter("padsd_responses_5xx_total", m.req5xx.Load())
	counter("padsd_throttled_total", m.throttled.Load())
	counter("padsd_overload_rejects_total", m.overload.Load())
	counter("padsd_panics_recovered_total", m.panics.Load())
	counter("padsd_deadline_aborts_total", m.deadline.Load())
	counter("padsd_cancel_aborts_total", m.cancelled.Load())
	counter("padsd_budget_aborts_total", m.budget.Load())
	counter("padsd_records_parsed_total", m.records.Load())
	counter("padsd_records_errored_total", m.errored.Load())
	counter("padsd_ingest_bytes_total", m.bytesIn.Load())
	counter("padsd_quarantined_total", m.quarantined.Load())
	counter("padsd_jobs_started_total", m.jobsStarted.Load())
	counter("padsd_jobs_completed_total", m.jobsCompleted.Load())
	counter("padsd_jobs_failed_total", m.jobsFailed.Load())
	counter("padsd_jobs_cancelled_total", m.jobsCancelled.Load())
	counter("padsd_jobs_poisoned_total", m.jobsPoisoned.Load())
	gauge("padsd_parses_active", m.active.Load())
	gauge("padsd_jobs_active", m.jobsActive.Load())
	d := int64(0)
	if m.draining.Load() {
		d = 1
	}
	gauge("padsd_draining", d)
}

func (m *metrics) status(code int) {
	switch {
	case code >= 500:
		m.req5xx.Add(1)
	case code >= 400:
		m.req4xx.Add(1)
	default:
		m.req2xx.Add(1)
	}
}

// lockedStats folds every request's private telemetry.Stats into one
// aggregate under a mutex and renders it on /metrics, so the runtime's
// source/speculation/intern counters (pads_source_* et al.) describe the
// daemon's lifetime traffic. Requests never write to it directly — each
// parse runs with its own Stats (the same discipline segment.Exec uses)
// and folds once at the end, keeping the hot path lock-free.
type lockedStats struct {
	mu sync.Mutex
	st *telemetry.Stats
}

func newLockedStats() *lockedStats { return &lockedStats{st: telemetry.NewStats()} }

func (l *lockedStats) fold(o *telemetry.Stats) {
	if o == nil {
		return
	}
	l.mu.Lock()
	l.st.Merge(o)
	// Per-request worker rows would grow without bound on a daemon; the
	// aggregate keeps counters only.
	l.st.Workers = nil
	l.mu.Unlock()
}

// WritePrometheus implements telemetry.Collector.
func (l *lockedStats) WritePrometheus(w io.Writer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.st.WritePrometheus(w)
}
