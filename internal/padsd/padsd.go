// Package padsd is the fault-tolerant, multi-tenant parse daemon of ROADMAP
// item 2: a long-running stdlib-HTTP service that holds a registry of
// compiled descriptions (upload → sema-check → lower to IR once,
// content-addressed) and parses concurrent data streams against them —
// accumulator reports, XML and delimited conversion — with the robustness
// discipline of docs/ROBUSTNESS.md enforced end to end:
//
//   - Admission control before buffering: a global concurrency cap,
//     per-tenant token buckets and stream caps, and a body size cap reject
//     with 429/503/413 instead of queueing bytes. Memory stays O(record) per
//     admitted stream (padsrt.Limits), so overload degrades, never OOMs.
//   - Deadline propagation through the runtime: every parse runs under a
//     context whose expiry reaches the parse loop via the padsrt
//     SetCancel/SetDeadline hook — the source goes sticky-errored and
//     hard-stops reads, so the VM, generated parsers, and worker shards all
//     abort mid-record through their ordinary error paths.
//   - Per-tenant error budgets and dead-letter tails: interp.Policy applies
//     the same budgets as the CLI flags, and every errored record lands in a
//     bounded per-tenant quarantine ring, downloadable as JSONL.
//   - Panic containment per request, /healthz and /readyz probes, and
//     Prometheus metrics via telemetry.MetricsHandler.
//   - Graceful drain: StartDrain stops admissions (readyz goes 503), Drain
//     waits for in-flight parses within a budget and then cancels the rest
//     through the same deadline hook.
//
// The chaos suite (chaos_test.go) replays internal/fault's deterministic
// fault reader through the ingest path — enabled per request by the
// X-Pads-Fault header when Config.Chaos is set — so the whole degradation
// matrix is tested seed-reproducibly.
package padsd

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pads/internal/accum"
	"pads/internal/cliutil"
	"pads/internal/core"
	"pads/internal/fault"
	"pads/internal/fmtconv"
	"pads/internal/interp"
	"pads/internal/padsrt"
	"pads/internal/segment"
	"pads/internal/telemetry"
	"pads/internal/value"
	"pads/internal/xmlgen"
)

// Config tunes the daemon. The zero value gets production-shaped defaults
// (see New); every cap exists so that no client behavior — slow, huge,
// poisonous, or merely numerous — can grow the daemon's memory or wedge it.
type Config struct {
	// MaxConcurrent caps parse streams across all tenants (default
	// 2*GOMAXPROCS). At the cap new parses get 503 + Retry-After.
	MaxConcurrent int
	// MaxBodyBytes caps one request body (default 1 GiB; <0 unlimited).
	MaxBodyBytes int64
	// MaxDescBytes caps one description upload (default 1 MiB).
	MaxDescBytes int
	// MaxDescriptions caps the compiled-description registry (default 256).
	MaxDescriptions int
	// MaxTenants caps the tenant table (default 1024).
	MaxTenants int

	// Limits are the per-parse resource guards. Zero fields get defaults
	// (1 MiB records, 4 MiB speculation window, depth 256, 1M backtracks) —
	// a daemon must always bound these, so unlike the CLI the zero value is
	// guarded, not unlimited.
	Limits padsrt.Limits
	// Retry / RetryBackoff forward to padsrt.WithRetry for transient ingest
	// errors (default 2 retries, 5ms).
	Retry        int
	RetryBackoff time.Duration

	// ParseTimeout is the default per-request parse deadline (default 60s);
	// clients may lower (never raise past MaxTimeout, default 10m) via the
	// X-Pads-Timeout-Ms header or timeout_ms query parameter.
	ParseTimeout time.Duration
	MaxTimeout   time.Duration

	// Tenant is the per-tenant admission and budget policy.
	Tenant TenantConfig
	// QuarantineTail is the per-tenant dead-letter ring size (default 1024).
	QuarantineTail int
	// Quarantine, when non-nil, additionally receives every dead-lettered
	// record write-through as JSONL (all tenants interleaved). The caller
	// owns the writer and closes it after Drain.
	Quarantine io.Writer

	// Chaos honors the X-Pads-Fault request header, wrapping the ingest
	// path in internal/fault's deterministic fault reader. For tests and
	// staging only; off by default.
	Chaos bool

	// JobDir enables the async out-of-core job API (POST /v1/jobs): data
	// files are resolved under it and every job's manifest, quarantine,
	// and output live in it, so jobs survive a daemon restart as resumable
	// manifests. Empty disables the API (the endpoints answer 404).
	JobDir string
	// MaxJobs caps concurrently running jobs (default 2) — each holds
	// O(workers × segment) memory on top of the parse traffic.
	MaxJobs int
	// JobWorkers is the default per-job worker count (default GOMAXPROCS);
	// a job request may lower it.
	JobWorkers int
	// JobSegmentSize is the default per-job segment buffer (default
	// segment.DefaultSegSize).
	JobSegmentSize int64
	// RetryAfterSeed seeds the deterministic Retry-After jitter added to
	// 429/503 responses (docs/OBSERVABILITY.md). Any fixed value gives a
	// replayable jitter sequence; zero is a fine seed.
	RetryAfterSeed uint64
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 30
	}
	if c.MaxDescBytes <= 0 {
		c.MaxDescBytes = 1 << 20
	}
	if c.MaxDescriptions <= 0 {
		c.MaxDescriptions = 256
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 1024
	}
	if c.Limits.MaxRecordLen <= 0 {
		c.Limits.MaxRecordLen = 1 << 20
	}
	if c.Limits.MaxSpecBytes <= 0 {
		c.Limits.MaxSpecBytes = 4 << 20
	}
	if c.Limits.MaxSpecDepth <= 0 {
		c.Limits.MaxSpecDepth = 256
	}
	if c.Limits.MaxBacktracks <= 0 {
		c.Limits.MaxBacktracks = 1 << 20
	}
	if c.Retry == 0 {
		c.Retry = 2
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 5 * time.Millisecond
	}
	if c.ParseTimeout <= 0 {
		c.ParseTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.QuarantineTail <= 0 {
		c.QuarantineTail = 1024
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 2
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = runtime.GOMAXPROCS(0)
	}
	if c.JobSegmentSize <= 0 {
		c.JobSegmentSize = segment.DefaultSegSize
	}
	return c
}

// Server is one daemon instance. Create with New, mount Handler on an
// http.Server, and call Drain on shutdown.
type Server struct {
	cfg Config
	reg *registry
	met *metrics
	agg *lockedStats
	mux *http.ServeMux

	sem chan struct{} // global parse-slot semaphore (non-blocking acquire)

	mu       sync.Mutex // guards tenants, draining, inflight registration
	tenants  map[string]*tenant
	draining bool
	inflight sync.WaitGroup

	hardCtx  context.Context // cancelled when the drain budget expires
	hardStop context.CancelFunc

	quarW *interp.Quarantine // write-through sink over cfg.Quarantine, or nil

	jobMu     sync.Mutex // guards jobs and jobOwned
	jobs      map[string]*jobState
	jobOwned  map[string]string // manifest path -> running job id (exclusivity)
	jobSem    chan struct{}     // job-slot semaphore (non-blocking acquire)
	jobSeq    atomic.Uint64     // job id counter
	jitterSeq atomic.Uint64     // Retry-After jitter ordinal
}

// New builds a daemon over the config (zero value fine).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		reg:      newRegistry(cfg.MaxDescriptions),
		met:      &metrics{},
		agg:      newLockedStats(),
		sem:      make(chan struct{}, cfg.MaxConcurrent),
		tenants:  make(map[string]*tenant),
		mux:      http.NewServeMux(),
		jobs:     make(map[string]*jobState),
		jobOwned: make(map[string]string),
		jobSem:   make(chan struct{}, cfg.MaxJobs),
	}
	// Start the job id sequence past any manifests already in the job
	// directory: a restarted daemon must not hand a new job the id (and thus
	// the manifest/quarantine/output paths) of a job from a previous life.
	s.jobSeq.Store(maxJobSeq(cfg.JobDir))
	s.hardCtx, s.hardStop = context.WithCancel(context.Background())
	if cfg.Quarantine != nil {
		s.quarW = interp.NewQuarantine(cfg.Quarantine)
	}

	mh := telemetry.NewMetricsHandler(s.met, s.agg)
	s.mux.HandleFunc("POST /v1/descriptions", s.wrap(s.handleUpload))
	s.mux.HandleFunc("GET /v1/descriptions", s.wrap(s.handleList))
	s.mux.HandleFunc("GET /v1/descriptions/{id}", s.wrap(s.handleDescribe))
	s.mux.HandleFunc("POST /v1/parse/accum", s.wrap(s.parseEndpoint(modeAccum)))
	s.mux.HandleFunc("POST /v1/parse/xml", s.wrap(s.parseEndpoint(modeXML)))
	s.mux.HandleFunc("POST /v1/parse/csv", s.wrap(s.parseEndpoint(modeCSV)))
	s.mux.HandleFunc("POST /v1/jobs", s.wrap(s.handleJobSubmit))
	s.mux.HandleFunc("GET /v1/jobs", s.wrap(s.handleJobList))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.wrap(s.handleJobStatus))
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.wrap(s.handleJobResult))
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.wrap(s.handleJobCancel))
	s.mux.HandleFunc("GET /v1/quarantine", s.wrap(s.handleQuarantine))
	s.mux.HandleFunc("GET /v1/tenants", s.wrap(s.handleTenants))
	s.mux.Handle("GET /metrics", mh)
	s.mux.HandleFunc("GET /healthz", s.wrap(s.handleHealthz))
	s.mux.HandleFunc("GET /readyz", s.wrap(s.handleReadyz))
	return s
}

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// respWriter tracks the status and first-write state so middleware can
// classify outcomes and the panic handler knows whether a 500 can still be
// sent.
type respWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *respWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *respWriter) Write(p []byte) (int, error) {
	if !w.wrote {
		w.status = http.StatusOK
		w.wrote = true
	}
	return w.ResponseWriter.Write(p)
}

// wrap is the containment middleware: request metrics plus per-request
// panic recovery, so one poisoned request can never take the daemon down
// (the per-segment analogue is segment.Exec's retry).
func (s *Server) wrap(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rw := &respWriter{ResponseWriter: w}
		s.met.reqTotal.Add(1)
		defer func() {
			if p := recover(); p != nil {
				s.met.panics.Add(1)
				if !rw.wrote {
					http.Error(rw, fmt.Sprintf("internal error: %v", p), http.StatusInternalServerError)
				}
			}
			if rw.status == 0 {
				rw.status = http.StatusOK
			}
			s.met.status(rw.status)
		}()
		h(rw, r)
	}
}

// tenantFor resolves the request's tenant (X-Pads-Tenant, default
// "default"), creating it on first sight. A full tenant table refuses new
// names rather than growing without bound.
func (s *Server) tenantFor(r *http.Request) (*tenant, error) {
	name := r.Header.Get("X-Pads-Tenant")
	if name == "" {
		name = "default"
	}
	if len(name) > 64 {
		name = name[:64]
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[name]
	if !ok {
		if len(s.tenants) >= s.cfg.MaxTenants {
			return nil, fmt.Errorf("tenant table full (%d tenants)", len(s.tenants))
		}
		t = newTenant(name, s.cfg.Tenant, s.cfg.QuarantineTail, time.Now())
		s.tenants[name] = t
	}
	return t, nil
}

// beginParse registers an in-flight parse unless the daemon is draining.
// Registration and the draining flag share a lock so Drain's Wait cannot
// race a late Add.
func (s *Server) beginParse() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

// --- description registry endpoints ---

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	src, err := io.ReadAll(io.LimitReader(r.Body, int64(s.cfg.MaxDescBytes)+1))
	if err != nil {
		http.Error(w, fmt.Sprintf("reading description: %v", err), http.StatusBadRequest)
		return
	}
	if len(src) > s.cfg.MaxDescBytes {
		http.Error(w, "description too large", http.StatusRequestEntityTooLarge)
		return
	}
	name := r.URL.Query().Get("name")
	if name == "" {
		name = "desc-" + descID(src)
	}
	e, cached, err := s.reg.add(src, name, time.Now())
	if err != nil {
		var ce *core.CompileError
		if errors.As(err, &ce) {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		if errors.Is(err, ErrRegistryFull) {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	status := http.StatusCreated
	if cached {
		status = http.StatusOK
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(e.snapshot())
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.reg.list())
}

func (s *Server) handleDescribe(w http.ResponseWriter, r *http.Request) {
	e, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		http.Error(w, "unknown description", http.StatusNotFound)
		return
	}
	if r.URL.Query().Get("source") == "1" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, e.desc.Source)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(e.snapshot())
}

// --- tenancy and quarantine endpoints ---

func (s *Server) handleQuarantine(w http.ResponseWriter, r *http.Request) {
	t, err := s.tenantFor(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	t.quar.writeJSONL(w)
}

func (s *Server) handleTenants(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	ts := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	s.mu.Unlock()
	out := make([]TenantInfo, len(ts))
	for i, t := range ts {
		out[i] = t.snapshot()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// --- probes ---

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	// Liveness: the process serves. Readiness is readyz's business — a
	// draining daemon is alive (it is finishing work) but not ready.
	io.WriteString(w, "ok\n")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.met.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"active":       s.met.active.Load(),
		"descriptions": s.reg.size(),
	})
}

// --- parse endpoints ---

type parseMode int

const (
	modeAccum parseMode = iota
	modeXML
	modeCSV
)

// ctxReader fails reads once ctx is done, so a parse blocked between body
// chunks notices cancellation at its next read even when the runtime's own
// poll sites are not reached.
type ctxReader struct {
	ctx context.Context
	r   io.Reader
}

func (c *ctxReader) Read(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.r.Read(p)
}

// parseFaultHeader interprets the X-Pads-Fault chaos header: comma-separated
// k=v pairs naming fault.Config fields, e.g.
// "seed=7,short=0.5,transient=0.1,corrupt=0.01,truncate=4096,fail=8192".
func parseFaultHeader(h string) (fault.Config, error) {
	var cfg fault.Config
	for _, kv := range strings.Split(h, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return cfg, fmt.Errorf("bad fault spec %q", kv)
		}
		var err error
		switch k {
		case "seed":
			cfg.Seed, err = strconv.ParseUint(v, 10, 64)
		case "short":
			cfg.ShortReadProb, err = strconv.ParseFloat(v, 64)
		case "transient":
			cfg.TransientProb, err = strconv.ParseFloat(v, 64)
		case "corrupt":
			cfg.CorruptProb, err = strconv.ParseFloat(v, 64)
		case "truncate":
			cfg.TruncateAt, err = strconv.ParseInt(v, 10, 64)
		case "fail":
			cfg.FailAt, err = strconv.ParseInt(v, 10, 64)
		default:
			return cfg, fmt.Errorf("unknown fault key %q", k)
		}
		if err != nil {
			return cfg, fmt.Errorf("bad fault value %q: %v", kv, err)
		}
	}
	return cfg, nil
}

// timeoutFor resolves the request's parse deadline.
func (s *Server) timeoutFor(r *http.Request) time.Duration {
	spec := r.Header.Get("X-Pads-Timeout-Ms")
	if spec == "" {
		spec = r.URL.Query().Get("timeout_ms")
	}
	if spec == "" {
		return s.cfg.ParseTimeout
	}
	ms, err := strconv.ParseInt(spec, 10, 64)
	if err != nil || ms <= 0 {
		return s.cfg.ParseTimeout
	}
	d := time.Duration(ms) * time.Millisecond
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// classify maps a parse error to an HTTP status, counting the abort kind.
func (s *Server) classify(err error) (int, string) {
	var be *interp.BudgetError
	if errors.As(err, &be) {
		s.met.budget.Add(1)
		return http.StatusUnprocessableEntity, err.Error()
	}
	var le *padsrt.LimitError
	if errors.As(err, &le) {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			s.met.deadline.Add(1)
			return http.StatusGatewayTimeout, err.Error()
		case errors.Is(err, context.Canceled):
			s.met.cancelled.Add(1)
			return 499, err.Error() // client closed request (nginx convention)
		default:
			return http.StatusUnprocessableEntity, err.Error()
		}
	}
	if errors.Is(err, context.DeadlineExceeded) {
		s.met.deadline.Add(1)
		return http.StatusGatewayTimeout, err.Error()
	}
	if errors.Is(err, context.Canceled) {
		s.met.cancelled.Add(1)
		return 499, err.Error()
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge, err.Error()
	}
	return http.StatusBadRequest, err.Error()
}

func (s *Server) parseEndpoint(mode parseMode) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// Admission, in cost order: nothing below buffers a single body
		// byte until every gate has passed.
		e, ok := s.reg.get(r.URL.Query().Get("desc"))
		if !ok {
			http.Error(w, "unknown description (upload first: POST /v1/descriptions)", http.StatusNotFound)
			return
		}
		tn, err := s.tenantFor(r)
		if err != nil {
			s.met.throttled.Add(1)
			http.Error(w, err.Error(), http.StatusTooManyRequests)
			return
		}
		admitted, retryAfter := tn.admit(s.cfg.Tenant, time.Now())
		if !admitted {
			s.met.throttled.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter/time.Second)+1+s.retryJitter()))
			http.Error(w, "tenant over rate or stream budget", http.StatusTooManyRequests)
			return
		}
		// settle ends the request's accounting exactly once: it folds the
		// parse's counts into /metrics, leaves the active gauge, and
		// releases the tenant. runParse calls it before the response's final
		// write, so a client that has read a whole response sees counters
		// that include it; the deferred call covers requests refused or
		// failed before the parse.
		var (
			rr         *interp.RecordReader
			st         *telemetry.Stats
			quarBefore uint64
			active     bool
			settled    bool
		)
		settle := func() {
			if settled {
				return
			}
			settled = true
			records, errored := 0, 0
			if rr != nil {
				records, errored = rr.Counts()
				s.met.records.Add(uint64(records))
				s.met.errored.Add(uint64(errored))
				s.met.quarantined.Add(tn.quar.total() - quarBefore)
				s.met.bytesIn.Add(st.Source.BytesRead)
				s.agg.fold(st)
			}
			if active {
				s.met.active.Add(-1)
			}
			tn.release(records, errored)
		}
		defer settle()

		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			s.met.overload.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(1+s.retryJitter()))
			http.Error(w, "parse capacity exhausted", http.StatusServiceUnavailable)
			return
		}
		if !s.beginParse() {
			s.met.overload.Add(1)
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		defer s.inflight.Done()
		s.met.active.Add(1)
		active = true

		// Deadline: request context (client disconnect), drain hard-stop,
		// and the per-request timeout, all reaching the runtime through one
		// cancel hook.
		ctx, cancel := context.WithTimeout(r.Context(), s.timeoutFor(r))
		defer cancel()
		stop := context.AfterFunc(s.hardCtx, cancel)
		defer stop()

		body := io.Reader(r.Body)
		if s.cfg.MaxBodyBytes > 0 {
			body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		if s.cfg.Chaos {
			if h := r.Header.Get("X-Pads-Fault"); h != "" {
				fcfg, err := parseFaultHeader(h)
				if err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				body = fault.NewReader(body, fcfg)
			}
		}
		body = &ctxReader{ctx: ctx, r: body}

		opts, err := cliutil.SourceOptions(
			r.URL.Query().Get("disc"),
			r.URL.Query().Get("ebcdic") == "1",
			r.URL.Query().Get("le") == "1")
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		st = telemetry.NewStats()
		opts = append(opts,
			padsrt.WithLimits(s.cfg.Limits),
			padsrt.WithRetry(s.cfg.Retry, s.cfg.RetryBackoff),
			padsrt.WithStats(st),
			padsrt.WithCancel(ctx.Err))
		src := padsrt.NewSource(bufio.NewReaderSize(body, 64<<10), opts...)

		// Compile-once, parse-many: clone the interpreter, never the
		// description.
		in := e.desc.Interp.Clone()
		in.Stats = st
		e.used()
		if rr, err = in.NewRecordReader(src, nil); err != nil {
			http.Error(w, fmt.Sprintf("description is not record-streamable: %v", err), http.StatusUnprocessableEntity)
			return
		}
		sink := multiRecorder{tn.quar}
		if s.quarW != nil {
			sink = append(sink, s.quarW)
		}
		rr.SetPolicy(&interp.Policy{
			MaxErrors:    s.cfg.Tenant.MaxErrors,
			MaxErrorRate: s.cfg.Tenant.MaxErrorRate,
			FailFast:     s.cfg.Tenant.FailFast,
			Sink:         sink,
		})

		quarBefore = tn.quar.total()
		s.runParse(mode, w, r, rr, settle) // the response is finished inside
	}
}

// runParse drives the record loop for one mode and finishes the response,
// including the error-to-status mapping when the parse dies before (or
// during) streaming. It calls settle once the scan is over and before the
// response's final write.
func (s *Server) runParse(mode parseMode, w http.ResponseWriter, r *http.Request, rr *interp.RecordReader, settle func()) error {
	q := r.URL.Query()
	switch mode {
	case modeAccum:
		// Aggregation buffers no records — only the accumulator — so the
		// status can honestly reflect the whole scan before the first byte
		// of the report is written.
		track, _ := strconv.Atoi(q.Get("track"))
		top, _ := strconv.Atoi(q.Get("top"))
		acc := accum.New(accum.Config{MaxTracked: track, TopN: top})
		n := 0
		for rr.More() {
			acc.Add(rr.Read())
			n++
		}
		settle()
		err := rr.Err()
		if err != nil && !errors.Is(err, io.EOF) {
			code, msg := s.classify(err)
			http.Error(w, msg, code)
			return err
		}
		recs, errs := rr.Counts()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("X-Pads-Records", strconv.Itoa(recs))
		w.Header().Set("X-Pads-Errored", strconv.Itoa(errs))
		bw := bufio.NewWriter(w)
		fmt.Fprintf(bw, "%d records\n\n", n)
		if f := q.Get("field"); f != "" {
			if err := acc.ReportField(bw, "<top>", f); err != nil {
				bw.Flush()
				return err
			}
		} else {
			acc.Report(bw, "<top>")
		}
		return bw.Flush()

	case modeXML, modeCSV:
		// Streaming conversion cannot retract a 200, so scan outcome and
		// counts travel as HTTP trailers.
		w.Header().Set("Trailer", "X-Pads-Records, X-Pads-Errored, X-Pads-Error")
		bw := bufio.NewWriterSize(w, 32<<10)
		var emit func(v value.Value) error
		var finish func()
		if mode == modeXML {
			root := q.Get("root")
			if root == "" {
				root = "source"
			}
			w.Header().Set("Content-Type", "text/xml; charset=utf-8")
			fmt.Fprintf(bw, "<%s>\n", root)
			if h := rr.Header(); h != nil {
				xmlgen.WriteXML(bw, h, "header", 1)
			}
			emit = func(v value.Value) error {
				return xmlgen.WriteXML(bw, v, rr.RecordTypeName(), 1)
			}
			finish = func() { fmt.Fprintf(bw, "</%s>\n", root) }
		} else {
			delims := q.Get("delims")
			if delims == "" {
				delims = "|"
			}
			f := fmtconv.New(strings.Split(delims, ",")...)
			f.DateFormat = q.Get("datefmt")
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			skipErrs := q.Get("skip_errors") == "1"
			emit = func(v value.Value) error {
				if skipErrs && v.PD().Nerr > 0 {
					return nil
				}
				_, err := f.WriteRecord(bw, v)
				return err
			}
			finish = func() {}
		}
		for rr.More() {
			if err := emit(rr.Read()); err != nil {
				break
			}
		}
		settle()
		err := rr.Err()
		if errors.Is(err, io.EOF) {
			err = nil
		}
		finish()
		bw.Flush()
		recs, errs := rr.Counts()
		w.Header().Set("X-Pads-Records", strconv.Itoa(recs))
		w.Header().Set("X-Pads-Errored", strconv.Itoa(errs))
		if err != nil {
			_, msg := s.classify(err) // count the abort kind for /metrics
			w.Header().Set("X-Pads-Error", msg)
		} else {
			w.Header().Set("X-Pads-Error", "")
		}
		return err
	}
	return nil
}

// --- drain ---

// StartDrain flips the daemon into draining mode: /readyz answers 503 and
// new parse requests are refused, while in-flight parses continue.
func (s *Server) StartDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.met.draining.Store(true)
}

// Draining reports whether StartDrain has run.
func (s *Server) Draining() bool { return s.met.draining.Load() }

// Drain is the SIGTERM discipline: stop admitting, let in-flight parses
// finish within ctx's budget, then cancel the stragglers through the
// runtime's deadline hook and wait for them to unwind (the hard stop
// converts each one's next read into a sticky LimitError, so unwinding is
// linear in the description, not the remaining input). It returns nil when
// every parse finished on its own, or ctx's error when the hard stop was
// needed. The write-through quarantine is complete on return — entries are
// written as they arrive — so the caller may close its writer.
func (s *Server) Drain(ctx context.Context) error {
	s.StartDrain()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.hardStop()
		<-done
		return ctx.Err()
	}
}

// Metrics exposes the daemon's Prometheus collectors (for embedding the
// daemon under an existing metrics mux).
func (s *Server) Metrics() []telemetry.Collector {
	return []telemetry.Collector{s.met, s.agg}
}
