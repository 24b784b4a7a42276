package padsd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"pads/internal/cliutil"
	"pads/internal/core"
	"pads/internal/padsrt"
	"pads/internal/segment"
	"pads/internal/telemetry"
)

// The async job API is the daemon face of internal/segment's out-of-core
// execution layer: parses too large for a request body run as durable jobs
// against files on the daemon's disk, segment-at-a-time, journaled to a
// manifest under Config.JobDir so a killed daemon (or an expired drain
// budget) leaves every job resumable.
//
//	POST   /v1/jobs            {"desc":ID,"file":PATH,...}  -> 202 {"id":...}
//	GET    /v1/jobs            job listing
//	GET    /v1/jobs/{id}       status + progress + report summary
//	GET    /v1/jobs/{id}/result  accumulator report / converted output
//	DELETE /v1/jobs/{id}       cancel (the manifest stays; resume later)
//
// Drain interacts with jobs exactly as with parses: StartDrain refuses new
// jobs, Drain waits for running ones within its budget, and the hard stop
// cancels stragglers through the same runtime hook — a cancelled job has
// already committed every finished segment, so a resume picks up there.

// jobRequest is the POST /v1/jobs body.
type jobRequest struct {
	Desc        string `json:"desc"`         // registry ID (required unless resuming)
	File        string `json:"file"`         // data file, relative to JobDir
	Disc        string `json:"disc"`         // record discipline spec (cliutil syntax)
	SegmentSize string `json:"segment_size"` // k/m/g suffixes
	Workers     int    `json:"workers"`
	Resume      string `json:"resume"` // manifest file name under JobDir

	outputSpec
}

// jobState is one job's mutable record.
type jobState struct {
	id       string
	mu       sync.Mutex
	state    string // running | done | failed | cancelled
	errMsg   string
	progress segment.Progress
	rep      *segment.Report
	req      jobRequest
	out      core.Output
	manifest string
	quarPath string
	created  time.Time
	cancel   context.CancelFunc
}

// JobInfo is the status JSON for one job.
type JobInfo struct {
	ID       string           `json:"id"`
	State    string           `json:"state"`
	Error    string           `json:"error,omitempty"`
	Mode     string           `json:"mode"`
	File     string           `json:"file"`
	Manifest string           `json:"manifest"`
	Created  time.Time        `json:"created"`
	Progress segment.Progress `json:"progress"`
	Records  int              `json:"records,omitempty"`
	Errored  int              `json:"errored,omitempty"`
	Poisoned []int            `json:"poisoned,omitempty"`
	Segments int              `json:"segments,omitempty"`
	Skipped  int              `json:"skipped,omitempty"`
	Replayed int              `json:"replayed,omitempty"`
	Quarantd int64            `json:"quarantined,omitempty"`
}

func (j *jobState) snapshot() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	in := JobInfo{
		ID: j.id, State: j.state, Error: j.errMsg, Mode: j.req.Mode,
		File: j.req.File, Manifest: filepath.Base(j.manifest),
		Created: j.created, Progress: j.progress,
	}
	if j.rep != nil {
		in.Records = j.rep.Records
		in.Errored = j.rep.Errored
		in.Segments = j.rep.Segments
		in.Skipped = j.rep.Skipped
		in.Replayed = j.rep.Replayed
		in.Quarantd = j.rep.Quarantined
		for _, p := range j.rep.Poisoned {
			in.Poisoned = append(in.Poisoned, p.Index)
		}
	}
	return in
}

// jobPath confines a client-supplied file name under the job directory.
func (s *Server) jobPath(name string) (string, error) {
	if name == "" {
		return "", errors.New("empty path")
	}
	if filepath.IsAbs(name) || !filepath.IsLocal(name) {
		return "", fmt.Errorf("path %q escapes the job directory", name)
	}
	return filepath.Join(s.cfg.JobDir, name), nil
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if s.cfg.JobDir == "" {
		http.Error(w, "job API disabled (start padsd with -job-dir)", http.StatusNotFound)
		return
	}
	var req jobRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad job request: %v", err), http.StatusBadRequest)
		return
	}
	if req.Mode == "" {
		req.Mode = "accum"
	}

	resume := req.Resume != ""
	var manifest, dataPath string
	var err error
	if resume {
		if manifest, err = s.jobPath(req.Resume); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// Fast path: a manifest owned by a running job answers 409 before
		// the file is touched — a fresh job may not have written it yet, and
		// Peek's error would read as a bad request. The check under jobMu
		// below stays the authoritative one.
		s.jobMu.Lock()
		owner, busy := s.jobOwned[manifest]
		s.jobMu.Unlock()
		if busy {
			http.Error(w, fmt.Sprintf("manifest %s is in use by running job %s", filepath.Base(manifest), owner), http.StatusConflict)
			return
		}
		info, err := segment.Peek(manifest)
		if err != nil {
			http.Error(w, fmt.Sprintf("resume: %v", err), http.StatusBadRequest)
			return
		}
		if req.File != "" {
			if dataPath, err = s.jobPath(req.File); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
		} else {
			// The manifest-recorded input path gets the same confinement as a
			// client-supplied one: a manifest recording (or crafted to record)
			// a path outside the job directory must not let a job read
			// arbitrary daemon-readable files.
			dataPath = info.File
			if rel, err := filepath.Rel(s.cfg.JobDir, dataPath); err != nil || !filepath.IsLocal(rel) {
				http.Error(w, fmt.Sprintf("resume: manifest-recorded input %q escapes the job directory (pass \"file\" to name it under the job directory)", info.File), http.StatusBadRequest)
				return
			}
		}
	} else {
		if dataPath, err = s.jobPath(req.File); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	e, ok := s.reg.get(req.Desc)
	if !ok {
		http.Error(w, "unknown description (upload first: POST /v1/descriptions)", http.StatusNotFound)
		return
	}
	out, err := req.output(e.desc)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad job request: %v", err), http.StatusBadRequest)
		return
	}
	segSize, err := cliutil.ParseSize(req.SegmentSize)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad segment_size: %v", err), http.StatusBadRequest)
		return
	}
	if segSize == 0 {
		segSize = s.cfg.JobSegmentSize
	}
	opts, err := cliutil.SourceOptions(req.Disc, false, false)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	// Admission: the job slot cap, then drain registration (jobs count as
	// in-flight work for Drain).
	select {
	case s.jobSem <- struct{}{}:
	default:
		s.met.overload.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(5+s.retryJitter()))
		http.Error(w, "job capacity exhausted", http.StatusServiceUnavailable)
		return
	}
	if !s.beginParse() {
		<-s.jobSem
		s.met.overload.Add(1)
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}

	// One running job per manifest: two jobs appending the same journal and
	// truncating the same .quar/.out siblings would interleave seg lines and
	// corrupt both, so ownership is claimed under jobMu before the job
	// starts and released when runJob returns (a cancelled job may still be
	// draining — its manifest stays owned until it actually stops).
	s.jobMu.Lock()
	var id string
	if resume {
		if owner, busy := s.jobOwned[manifest]; busy {
			s.jobMu.Unlock()
			<-s.jobSem
			s.inflight.Done()
			http.Error(w, fmt.Sprintf("manifest %s is in use by running job %s", filepath.Base(manifest), owner), http.StatusConflict)
			return
		}
		id = fmt.Sprintf("j%d", s.jobSeq.Add(1))
	} else {
		// Fresh job: take the next id whose manifest is neither owned nor
		// already on disk. The sequence is seeded past existing manifests at
		// startup, so this only skips when one was copied in since.
		for {
			id = fmt.Sprintf("j%d", s.jobSeq.Add(1))
			manifest = filepath.Join(s.cfg.JobDir, id+".manifest")
			if _, busy := s.jobOwned[manifest]; busy {
				continue
			}
			if _, err := os.Lstat(manifest); err != nil {
				break
			}
		}
	}
	s.jobOwned[manifest] = id
	ctx, cancel := context.WithCancel(context.Background())
	j := &jobState{
		id: id, state: "running", req: req, out: out, manifest: manifest,
		quarPath: quarSibling(manifest), created: time.Now(), cancel: cancel,
	}
	s.jobs[id] = j
	s.jobMu.Unlock()
	s.met.jobsStarted.Add(1)
	s.met.jobsActive.Add(1)
	e.used()

	workers := req.Workers
	if workers <= 0 {
		workers = s.cfg.JobWorkers
	}
	go s.runJob(ctx, cancel, j, e, dataPath, opts, segSize, workers, resume)

	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", "/v1/jobs/"+id)
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(j.snapshot())
}

// maxJobSeq scans the job directory for j<N>.manifest files and returns the
// largest N, so a restarted daemon's id sequence continues past its previous
// life instead of recycling ids — a recycled id would aim a fresh job at an
// old job's manifest and output siblings.
func maxJobSeq(dir string) uint64 {
	if dir == "" {
		return 0
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var max uint64
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "j") || !strings.HasSuffix(name, ".manifest") {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "j"), ".manifest"), 10, 64)
		if err == nil && n > max {
			max = n
		}
	}
	return max
}

// quarSibling and outSibling derive a job's output paths from its manifest
// path, so a resumed job (new id, old manifest) finds the same files.
func quarSibling(manifest string) string { return strings.TrimSuffix(manifest, ".manifest") + ".quar" }
func outSibling(manifest string) string  { return strings.TrimSuffix(manifest, ".manifest") + ".out" }

// runJob executes one job to completion on its own goroutine.
func (s *Server) runJob(ctx context.Context, cancel context.CancelFunc, j *jobState, e *descEntry, dataPath string, opts []padsrt.SourceOption, segSize int64, workers int, resume bool) {
	defer func() {
		cancel()
		s.jobMu.Lock()
		delete(s.jobOwned, j.manifest)
		s.jobMu.Unlock()
		s.met.jobsActive.Add(-1)
		<-s.jobSem
		s.inflight.Done()
	}()
	// The drain hard stop reaches the job through the same cancellation
	// path as a parse deadline.
	stop := context.AfterFunc(s.hardCtx, cancel)
	defer stop()

	fail := func(err error) {
		j.mu.Lock()
		defer j.mu.Unlock()
		if errors.Is(err, context.Canceled) {
			j.state = "cancelled"
			s.met.jobsCancelled.Add(1)
		} else {
			j.state = "failed"
			s.met.jobsFailed.Add(1)
		}
		j.errMsg = err.Error()
	}

	in := e.desc.Interp.Clone()
	stats := telemetry.NewStats()
	in.Stats = stats
	// The same per-parse resource guards as the request path: segment
	// workers build their sources from these options.
	opts = append(opts, padsrt.WithLimits(s.cfg.Limits))
	rep, err := e.desc.RunJob(j.out, segment.Config{
		Interp:   in,
		DataPath: dataPath,
		Source:   opts,
		SegSize:  segSize,
		Workers:  workers,
		Manifest: j.manifest,
		Resume:   resume,
		QuarPath: j.quarPath,
		Stats:    stats,
		OutPath:  outSibling(j.manifest),
		Cancel:   ctx.Err,
		Progress: func(p segment.Progress) {
			j.mu.Lock()
			j.progress = p
			j.mu.Unlock()
		},
	})
	s.agg.fold(stats)
	if err != nil {
		fail(err)
		return
	}
	s.met.records.Add(uint64(rep.Records))
	s.met.errored.Add(uint64(rep.Errored))
	s.met.quarantined.Add(uint64(rep.Quarantined))
	j.mu.Lock()
	j.state = "done"
	j.rep = rep
	j.mu.Unlock()
	s.met.jobsCompleted.Add(1)
	if len(rep.Poisoned) > 0 {
		s.met.jobsPoisoned.Add(1)
	}
}

func (s *Server) jobByID(id string) (*jobState, bool) {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) handleJobList(w http.ResponseWriter, _ *http.Request) {
	s.jobMu.Lock()
	js := make([]*jobState, 0, len(s.jobs))
	for _, j := range s.jobs {
		js = append(js, j)
	}
	s.jobMu.Unlock()
	out := make([]JobInfo, len(js))
	for i, j := range js {
		out[i] = j.snapshot()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		http.Error(w, "unknown job", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(j.snapshot())
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		http.Error(w, "unknown job", http.StatusNotFound)
		return
	}
	j.mu.Lock()
	state, rep := j.state, j.rep
	j.mu.Unlock()
	switch state {
	case "running":
		w.Header().Set("Retry-After", strconv.Itoa(2+s.retryJitter()))
		http.Error(w, "job still running", http.StatusConflict)
		return
	case "failed", "cancelled":
		http.Error(w, "job did not complete: "+j.snapshot().Error, http.StatusGone)
		return
	}
	w.Header().Set("Content-Type", contentTypes[j.req.Mode])
	w.Header().Set("X-Pads-Records", strconv.Itoa(rep.Records))
	w.Header().Set("X-Pads-Errored", strconv.Itoa(rep.Errored))
	if err := j.out.Result(w, rep, outSibling(j.manifest)); err != nil {
		http.Error(w, fmt.Sprintf("job output: %v", err), http.StatusInternalServerError)
	}
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		http.Error(w, "unknown job", http.StatusNotFound)
		return
	}
	j.cancel()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(j.snapshot())
}

// retryJitter returns a small deterministic jitter (0-3 seconds) added to
// every Retry-After the daemon sends, so a fleet of clients rejected in the
// same overload instant does not reconverge in the same retry instant
// (docs/OBSERVABILITY.md). The sequence is a pure function of
// Config.RetryAfterSeed and the rejection ordinal, so tests replay it.
func (s *Server) retryJitter() int {
	x := s.cfg.RetryAfterSeed + s.jitterSeq.Add(1)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int((x ^ (x >> 31)) % 4)
}
