package segment

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"pads/internal/accum"
	"pads/internal/atomicio"
	"pads/internal/interp"
	"pads/internal/padsrt"
	"pads/internal/telemetry"
	"pads/internal/value"
)

// Config describes one out-of-core job.
type Config struct {
	// Interp is the compiled description's interpreter (its Stats/Prof
	// should already be observed by the caller; segment workers get private
	// stats that fold into Stats at commit).
	Interp *interp.Interp
	// DescHash identifies the description source (HashBytes of its text);
	// recorded in the manifest and re-verified on resume. Optional.
	DescHash string

	// Data is the input, read positionally (an *os.File preads; any
	// io.ReaderAt works). DataPath is recorded in the manifest so resume can
	// find the input again; DataSize is the authoritative length.
	Data     io.ReaderAt
	DataPath string
	DataSize int64

	// Source options applied to every source built over the input
	// (discipline, coding, byte order, limits).
	Source []padsrt.SourceOption

	// SegSize is the segment buffer size in bytes (DefaultSegSize when 0,
	// floored at MinSegSize). Workers is the worker goroutine count
	// (GOMAXPROCS when <= 0). Peak memory is O(Workers × SegSize).
	SegSize int64
	Workers int

	// Manifest is the path of the job's durable journal. Resume loads an
	// existing manifest (verifying job identity) instead of starting fresh;
	// a fresh run refuses to overwrite an existing manifest.
	Manifest string
	Resume   bool

	// Policy is the per-segment error budget (docs/ROBUSTNESS.md). Unlike
	// the in-memory parallel path — which enforces budgets on merged totals
	// — out-of-core budgets apply to each segment independently: the segment
	// is the fault-isolation boundary, and a segment that exhausts its
	// budget is poisoned, not fatal. Policy.Sink is ignored: each segment
	// collects its dead letters in a private batch, and they land in
	// QuarPath at commit (without a QuarPath none are kept or counted).
	Policy *interp.Policy
	// QuarPath, when non-empty, receives dead-lettered records as JSONL,
	// appended and fsync'd per commit batch in segment order.
	QuarPath string

	// AccumCfg configures accumulation (the default mode, when Emit is
	// nil): each segment folds into a private accumulator, merged in
	// segment order, checkpointed to the manifest sidecar at every commit.
	AccumCfg accum.Config

	// Emit switches the job to emit mode: it renders one parsed record into
	// out, and the bytes are appended to OutPath in segment order.
	// EmitPrologue/EmitEpilogue bracket the stream (header is the parsed
	// source header, nil if the description has none). Mode names the emit
	// flavor in the manifest ("xml", "fmt"); accum mode ignores it.
	Emit         func(out *bytes.Buffer, v value.Value)
	EmitPrologue func(out *bytes.Buffer, header value.Value)
	EmitEpilogue func(out *bytes.Buffer)
	Mode         string
	OutPath      string

	// Stats, when non-nil, accumulates the job's telemetry: each segment
	// parses under a private Stats folded in at commit, and Stats.Workers
	// gains one row per worker goroutine (Exec).
	Stats *telemetry.Stats

	// Cancel, polled between records by every source the job builds
	// (padsrt.WithCancel), aborts the job with a resumable error when it
	// returns non-nil.
	Cancel func() error

	// Progress, when non-nil, is called after every commit batch with
	// cumulative counts. It runs on the coordinator goroutine.
	Progress func(Progress)
}

// Progress is a point-in-time view of a running job.
type Progress struct {
	Segments  int `json:"segments"`
	Committed int `json:"committed"`
	Poisoned  int `json:"poisoned"`
	Records   int `json:"records"`
	Errored   int `json:"errored"`
}

// PoisonedSeg reports one isolated segment failure: the segment kept its
// partial results (records before the trip are counted, its quarantine tail
// is written), the job went on without it.
type PoisonedSeg struct {
	Index   int    `json:"index"`
	Off     int64  `json:"off"`
	Len     int64  `json:"len"`
	Reason  string `json:"reason"`
	Records int    `json:"records"`
	Errored int    `json:"errored"`
}

// Report is a completed job's summary. Poisoned segments do not make the
// job fail — Run returns a Report with them listed, and tools exit 3.
type Report struct {
	Records     int
	Errored     int
	Segments    int
	Skipped     int // segments already committed by a previous run
	Replayed    int // skipped segments re-parsed accumulator-only to catch the sidecar up
	Quarantined int64
	Poisoned    []PoisonedSeg
	Acc         *accum.Accum // accum mode only
}

// segResult is one parsed segment, produced by a worker, consumed by the
// coordinator in segment order.
type segResult struct {
	seg     Seg
	records int
	errored int
	dead    *interp.Batch // dead letters, when the job has a quarantine file
	out     []byte
	acc     *accum.Accum
	poison  string // non-empty: the segment is poisoned with this reason
}

type job struct {
	cfg        Config
	opts       []padsrt.SourceOption // cfg.Source plus the Cancel hook
	pol        interp.Policy         // per-segment budgets; Sink fills quarBuf
	quarBuf    bytes.Buffer
	rr         *interp.RecordReader
	disc       padsrt.Discipline
	segSize    int64
	headerEnd  int64
	headerRecs int
	plan       *Plan
	m          *manifest

	quarF     *os.File
	quarOff   int64
	quarCount int64
	outF      *os.File
	outOff    int64

	acc      *accum.Accum
	records  int
	errored  int
	poisoned []PoisonedSeg
	skipped  int
	replayed int
}

// Run executes (or resumes) an out-of-core job.
func Run(cfg Config) (*Report, error) {
	if cfg.Interp == nil {
		return nil, errors.New("segment: Config.Interp is required")
	}
	if cfg.Data == nil || cfg.DataSize < 0 {
		return nil, errors.New("segment: Config.Data and DataSize are required")
	}
	if cfg.Manifest == "" {
		return nil, errors.New("segment: Config.Manifest is required")
	}
	if cfg.Emit != nil && cfg.OutPath == "" {
		return nil, errors.New("segment: emit mode needs Config.OutPath")
	}
	j := &job{cfg: cfg, segSize: cfg.SegSize}
	if j.segSize <= 0 {
		j.segSize = DefaultSegSize
	}
	if j.segSize < MinSegSize {
		j.segSize = MinSegSize
	}
	if cfg.Workers <= 0 {
		j.cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Emit == nil {
		j.cfg.Mode = "accum"
		j.acc = accum.New(cfg.AccumCfg)
	} else if j.cfg.Mode == "" {
		j.cfg.Mode = "emit"
	}

	j.opts = cfg.Source[:len(cfg.Source):len(cfg.Source)]
	if cfg.Cancel != nil {
		j.opts = append(j.opts, padsrt.WithCancel(cfg.Cancel))
	}
	if cfg.Policy != nil {
		j.pol = *cfg.Policy
	}
	j.pol.Sink = nil // wired to the quarantine file once it is open

	// The header parses once, sequentially, over a positional source. The
	// probe reads ahead in fill-sized blocks, but only the header's bytes
	// count as read here: the segments count the rest (Task.Source).
	hs := padsrt.NewSectionSource(cfg.Data, 0, cfg.DataSize, j.opts...)
	var hst *telemetry.Stats
	if cfg.Stats != nil {
		hst = telemetry.NewStats()
		hs.SetStats(hst)
	}
	rr, err := cfg.Interp.NewRecordReader(hs, nil)
	if err != nil {
		return nil, err
	}
	if err := hs.Err(); err != nil {
		return nil, fmt.Errorf("segment: parse source header: %w", err)
	}
	if hst != nil {
		hst.Source.BytesRead = uint64(hs.Pos().Byte)
		cfg.Stats.Merge(hst)
	}
	j.rr = rr
	j.disc = hs.Discipline()
	j.headerEnd = hs.Pos().Byte
	j.headerRecs = hs.RecordNum()

	if cfg.Resume {
		err = j.resume()
	} else {
		err = j.fresh()
	}
	if err != nil {
		j.closeFiles()
		if j.m != nil {
			j.m.close()
		}
		return nil, err
	}
	if j.quarF != nil {
		j.pol.Sink = interp.NewQuarantine(&j.quarBuf)
	}
	if j.m.done != nil {
		// The job already completed; re-emit its report so a resume racing
		// the job's own completion (a kill that lands after the last commit)
		// is a no-op instead of an error.
		rep, err := j.completedReport()
		j.closeFiles()
		j.m.close()
		return rep, err
	}
	rep, err := j.run()
	j.closeFiles()
	j.m.close()
	return rep, err
}

// fresh plans the job and creates its manifest and outputs.
func (j *job) fresh() error {
	plan, err := PlanSegments(j.cfg.Data, j.headerEnd, j.cfg.DataSize-j.headerEnd, j.disc, j.segSize)
	if err != nil {
		return err
	}
	j.plan = plan
	head, tail, err := fileIdentity(j.cfg.Data, j.cfg.DataSize)
	if err != nil {
		return err
	}
	jl := jobLine{
		File: j.cfg.DataPath, Size: j.cfg.DataSize, Head: head, Tail: tail,
		Desc: j.cfg.DescHash, Disc: j.disc.Name(), Mode: j.cfg.Mode,
		SegSize: j.segSize, HeaderEnd: j.headerEnd, HeaderRecs: j.headerRecs,
		Segments: len(plan.Segs), Quar: j.cfg.QuarPath, Out: j.cfg.OutPath,
		Created: time.Now().UTC().Format(time.RFC3339),
	}
	var prologue []byte
	if j.cfg.Emit != nil && j.cfg.EmitPrologue != nil {
		var buf bytes.Buffer
		j.cfg.EmitPrologue(&buf, j.rr.Header())
		prologue = buf.Bytes()
		jl.OutBase = int64(len(prologue))
	}
	// The manifest's O_EXCL creation is the gate for everything below: an
	// existing manifest means an existing job whose committed quarantine and
	// output files must not be truncated by a fresh run aimed at the same
	// paths. Only after the manifest is reserved do the output files get
	// created.
	m, err := createManifest(j.cfg.Manifest, jl)
	if err != nil {
		return err
	}
	j.m = m
	abort := func(err error) error {
		// Nothing committed yet: drop the reserved manifest so a corrected
		// retry is not told to resume an empty job.
		m.close()
		j.m = nil
		os.Remove(j.cfg.Manifest)
		return err
	}
	if j.cfg.QuarPath != "" {
		f, err := os.Create(j.cfg.QuarPath)
		if err != nil {
			return abort(err)
		}
		j.quarF = f
	}
	if j.cfg.Emit != nil {
		f, err := os.Create(j.cfg.OutPath)
		if err != nil {
			return abort(err)
		}
		j.outF = f
		if len(prologue) > 0 {
			if _, err := f.Write(prologue); err != nil {
				return abort(err)
			}
			if err := f.Sync(); err != nil {
				return abort(err)
			}
			j.outOff = int64(len(prologue))
		}
	}
	return nil
}

// resume loads the manifest, re-verifies job identity, re-plans the region
// (segmentation is deterministic) and cross-checks committed segments,
// restores the output files to their last committed lengths, and reloads
// the accumulator sidecar — replaying any committed segments past the
// sidecar's checkpoint accumulator-only.
func (j *job) resume() error {
	m, err := loadManifest(j.cfg.Manifest)
	if err != nil {
		return err
	}
	j.m = m
	jl := &m.job

	// Job identity. Every mismatch is fatal: resuming against different
	// data or a different description silently corrupts output.
	head, tail, err := fileIdentity(j.cfg.Data, j.cfg.DataSize)
	if err != nil {
		return err
	}
	switch {
	case jl.Size != j.cfg.DataSize:
		return fmt.Errorf("segment: resume: input is %d bytes, manifest recorded %d", j.cfg.DataSize, jl.Size)
	case jl.Head != head || jl.Tail != tail:
		return fmt.Errorf("segment: resume: input content changed since the manifest was written")
	case jl.Desc != "" && j.cfg.DescHash != "" && jl.Desc != j.cfg.DescHash:
		return fmt.Errorf("segment: resume: description changed since the manifest was written")
	case jl.Disc != j.disc.Name():
		return fmt.Errorf("segment: resume: discipline is %s, manifest recorded %s", j.disc.Name(), jl.Disc)
	case jl.Mode != j.cfg.Mode:
		return fmt.Errorf("segment: resume: job mode is %s, manifest recorded %s", j.cfg.Mode, jl.Mode)
	case jl.HeaderEnd != j.headerEnd || jl.HeaderRecs != j.headerRecs:
		return fmt.Errorf("segment: resume: source header parses differently (%d bytes/%d records, manifest recorded %d/%d)",
			j.headerEnd, j.headerRecs, jl.HeaderEnd, jl.HeaderRecs)
	}
	// The manifest's segmentation parameters win over flags: they are part
	// of the job.
	j.segSize = jl.SegSize
	j.cfg.QuarPath = jl.Quar
	j.cfg.OutPath = jl.Out

	plan, err := PlanSegments(j.cfg.Data, j.headerEnd, j.cfg.DataSize-j.headerEnd, j.disc, j.segSize)
	if err != nil {
		return err
	}
	j.plan = plan
	if len(plan.Segs) != jl.Segments {
		return fmt.Errorf("segment: resume: re-planned %d segments, manifest recorded %d", len(plan.Segs), jl.Segments)
	}
	for _, sl := range m.segs {
		s := plan.Segs[sl.Index]
		if s.Off != sl.Off || s.Len != sl.Len || s.RecBase != sl.RecBase {
			return fmt.Errorf("segment: resume: segment %d re-planned as [%d,+%d) rec %d, manifest recorded [%d,+%d) rec %d",
				sl.Index, s.Off, s.Len, s.RecBase, sl.Off, sl.Len, sl.RecBase)
		}
	}

	// Restore committed totals and the poisoned list.
	j.skipped = len(m.segs)
	var lastQuar, lastOut int64
	if j.cfg.Emit != nil {
		lastOut = jl.OutBase
	}
	for _, sl := range m.segs {
		j.records += sl.Records
		j.errored += sl.Errs
		lastQuar = sl.QuarOff
		j.quarCount = sl.QuarCount
		if sl.OutOff > lastOut {
			lastOut = sl.OutOff
		}
	}
	j.poisoned = j.poisonedFromManifest()

	if j.m.done != nil {
		// Completed job: the outputs are final (the emit epilogue sits past
		// the last committed OutOff); leave every file exactly as it is.
		return nil
	}

	// Truncate outputs back to the committed frontier: anything past it was
	// written by a batch whose manifest lines never landed. A file shorter
	// than the frontier is fatal — the committed bytes are gone (truncated or
	// replaced out-of-band), and Truncate would silently extend it with NULs.
	reopen := func(path string, committed int64, what string) (*os.File, error) {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return nil, err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		if st.Size() < committed {
			f.Close()
			return nil, fmt.Errorf("segment: resume: %s %s is %d bytes, manifest committed %d — the file was truncated or replaced since the last run",
				what, path, st.Size(), committed)
		}
		if err := f.Truncate(committed); err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.Seek(committed, io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
		return f, nil
	}
	if j.cfg.QuarPath != "" {
		f, err := reopen(j.cfg.QuarPath, lastQuar, "quarantine file")
		if err != nil {
			return err
		}
		j.quarF = f
		j.quarOff = lastQuar
	}
	if j.cfg.Emit != nil {
		f, err := reopen(j.cfg.OutPath, lastOut, "output file")
		if err != nil {
			return err
		}
		j.outF = f
		j.outOff = lastOut
	}

	if j.cfg.Emit == nil && j.m.done == nil {
		if err := j.restoreAccum(); err != nil {
			return err
		}
	}
	return nil
}

// marshalSidecar snapshots the current accumulator and cumulative totals as
// the sidecar that checkpoints segment `through`. Marshaling is
// deterministic (json.Marshal orders map keys), so regenerating the sidecar
// from a caught-up accumulator reproduces the bytes the original commit
// hashed into its manifest line.
func (j *job) marshalSidecar(through int) ([]byte, error) {
	accJSON, err := json.Marshal(j.acc)
	if err != nil {
		return nil, err
	}
	return json.Marshal(&sidecarFile{
		Through: through, Records: j.records, Errored: j.errored, Acc: accJSON,
	})
}

// restoreAccum loads the accumulator sidecar into j.acc and replays any
// committed segments past its checkpoint (the sidecar is written after its
// manifest lines, so a crash between the two leaves it at most one batch
// behind; a job whose first batch never committed one has none). Replay is
// accumulator-only: quarantine entries and counts for those segments
// committed already; re-parsing them is deterministic, so merging only
// their accumulators reproduces the uninterrupted state.
func (j *job) restoreAccum() error {
	path := sidecarPath(j.cfg.Manifest)
	through := -1
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		var sc sidecarFile
		if err := json.Unmarshal(data, &sc); err != nil {
			return fmt.Errorf("segment: sidecar %s corrupt: %v", path, err)
		}
		if sc.Through < 0 || sc.Through >= len(j.m.segs) {
			return fmt.Errorf("segment: sidecar %s checkpoints segment %d, manifest committed %d", path, sc.Through, len(j.m.segs))
		}
		if want := j.m.segs[sc.Through].AccHash; want != HashBytes(data) {
			return fmt.Errorf("segment: sidecar %s does not match its manifest checkpoint", path)
		}
		if err := json.Unmarshal(sc.Acc, j.acc); err != nil {
			return fmt.Errorf("segment: sidecar %s accumulator: %v", path, err)
		}
		through = sc.Through
	case !os.IsNotExist(err):
		return err
	}
	if through+1 >= len(j.m.segs) {
		return nil
	}
	if err := j.replay(j.acc, through+1); err != nil {
		return err
	}
	j.replayed = len(j.m.segs) - (through + 1)
	// Rewrite the sidecar from the caught-up accumulator: if the remaining
	// work is empty (the crash landed between the final batch's manifest
	// append and its sidecar write), run() goes straight to finalize, and
	// without this the manifest would complete over a stale sidecar. The
	// rewrite only lands when its bytes reproduce the hash the last commit
	// journaled — otherwise the old sidecar stays and the next resume simply
	// replays the same gap again.
	sidecar, err := j.marshalSidecar(len(j.m.segs) - 1)
	if err != nil {
		return err
	}
	if HashBytes(sidecar) == j.m.segs[len(j.m.segs)-1].AccHash {
		return atomicio.WriteFile(path, sidecar, 0o644)
	}
	return nil
}

// completedReport rebuilds a finished job's report from its manifest (and,
// in accum mode, its sidecar), so resuming a job that already finished
// returns the same answer as the run that finished it.
func (j *job) completedReport() (*Report, error) {
	rep := &Report{
		Records: j.m.done.Records, Errored: j.m.done.Errored,
		Segments: j.m.job.Segments, Skipped: len(j.m.segs),
		Poisoned: j.poisonedFromManifest(),
	}
	if len(j.m.segs) > 0 {
		rep.Quarantined = j.m.segs[len(j.m.segs)-1].QuarCount
	}
	if j.cfg.Emit == nil {
		// The sidecar trails the manifest by design (it is written after the
		// seg lines that name its hash), so a finished manifest may sit next
		// to a sidecar that is one batch behind — or, for a job with zero
		// segments, next to no sidecar at all. Rather than silently serving a
		// short accumulator, replay the uncovered segments accumulator-only
		// and repair the sidecar on disk.
		j.acc = accum.New(j.cfg.AccumCfg)
		j.records, j.errored = rep.Records, rep.Errored
		if err := j.restoreAccum(); err != nil {
			return nil, err
		}
		rep.Replayed, rep.Acc = j.replayed, j.acc
	}
	return rep, nil
}

func (j *job) poisonedFromManifest() []PoisonedSeg {
	var out []PoisonedSeg
	for _, sl := range j.m.segs {
		if sl.Status == segPoisoned {
			out = append(out, PoisonedSeg{
				Index: sl.Index, Off: sl.Off, Len: sl.Len, Reason: sl.Reason,
				Records: sl.Records, Errored: sl.Errs,
			})
		}
	}
	return out
}

func (j *job) closeFiles() {
	if j.quarF != nil {
		j.quarF.Close()
		j.quarF = nil
	}
	if j.outF != nil {
		j.outF.Close()
		j.outF = nil
	}
}

// replay re-parses the committed segments from `from` to the frontier
// accumulator-only, merging them into acc in segment order: their counts
// and quarantine entries committed already, and re-parsing is
// deterministic.
func (j *job) replay(acc *accum.Accum, from int) error {
	err := j.exec(j.plan.Segs[from:len(j.m.segs)], nil, nil, func(rs []segResult) error {
		for _, res := range rs {
			acc.Merge(res.acc)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("segment: replay: %w", err)
	}
	return nil
}

// exec runs segs on the executor with the job's workers, each reading its
// segments into a private buffer of its own. failed decides what a
// segment that panicked twice means (nil: the job fails).
func (j *job) exec(segs []Seg, st *telemetry.Stats, failed func(Seg, error) (segResult, error), commit func([]segResult) error) error {
	// Exec runs at most one worker per segment, so a worker count beyond
	// that (a client's "workers" is unbounded) sizes nothing.
	bufs := make([][]byte, min(j.cfg.Workers, len(segs)))
	return Exec(segs, j.cfg.Workers, st, nil, func(t *Task) (segResult, error) {
		return j.parseSeg(t, &bufs[t.Worker])
	}, failed, commit)
}

// parseSeg reads one segment into buf and parses it. Cancellation, a
// deadline or a failed read stops the job (resumably); any other error
// poisons the segment, which keeps its partial results.
func (j *job) parseSeg(t *Task, buf *[]byte) (segResult, error) {
	seg := t.Seg
	res := segResult{seg: seg}
	if int64(cap(*buf)) < seg.Len {
		*buf = make([]byte, seg.Len)
	}
	b := (*buf)[:seg.Len]
	if _, err := io.ReadFull(io.NewSectionReader(j.cfg.Data, seg.Off, seg.Len), b); err != nil {
		return res, fmt.Errorf("segment: read segment %d [%d,+%d): %w", seg.Index, seg.Off, seg.Len, err)
	}
	var out bytes.Buffer
	each := func(v value.Value) { j.cfg.Emit(&out, v) }
	if j.cfg.Emit == nil {
		res.acc = accum.New(j.cfg.AccumCfg)
		each = res.acc.Add
	}
	p := ScanRecords(j.rr, t.Source(b, j.headerRecs, j.opts), &j.pol, true, each)
	res.records, res.errored, res.dead, res.out = p.Records, p.Errored, p.Batch, out.Bytes()
	// A budget, a resource cap (record length, backtrack budget,
	// speculation limits) or a sticky read error is this segment's data:
	// isolate the segment. Cancellation and deadlines stop the job.
	var le *padsrt.LimitError
	if errors.As(p.Err, &le) && le.Cause != nil {
		return res, p.Err
	}
	if p.Err != nil {
		res.poison = p.Err.Error()
	}
	return res, nil
}

// commit durably applies a batch of consecutive segment results, in segment
// order. The write order is the crash-safety argument (docs/ROBUSTNESS.md):
// quarantine and output appends land and fsync before the manifest lines
// that commit them — so a crash leaves at worst orphan output bytes past
// the committed frontier, which resume truncates — and the accumulator
// sidecar lands after the manifest lines that name its hash, so the
// sidecar is at most one batch behind and resume replays the gap.
func (j *job) commit(batch []segResult) error {
	if j.quarF != nil {
		j.quarBuf.Reset()
		for _, res := range batch {
			if res.dead != nil {
				j.quarCount += int64(len(res.dead.Entries))
				if st := j.cfg.Stats; st != nil {
					st.Faults.Quarantined += uint64(len(res.dead.Entries))
				}
				res.dead.FlushTo(j.pol.Sink)
			}
		}
		if j.quarBuf.Len() > 0 {
			if _, err := j.quarF.Write(j.quarBuf.Bytes()); err != nil {
				return err
			}
			if err := j.quarF.Sync(); err != nil {
				return err
			}
		}
		j.quarOff += int64(j.quarBuf.Len())
	}
	if j.outF != nil {
		n := 0
		for _, res := range batch {
			if len(res.out) > 0 {
				w, err := j.outF.Write(res.out)
				n += w
				if err != nil {
					return err
				}
			}
		}
		if n > 0 {
			if err := j.outF.Sync(); err != nil {
				return err
			}
		}
		j.outOff += int64(n)
	}

	lines := make([]segLine, 0, len(batch))
	for _, res := range batch {
		j.records += res.records
		j.errored += res.errored
		if res.acc != nil {
			j.acc.Merge(res.acc)
		}
		sl := segLine{
			Index: res.seg.Index, Off: res.seg.Off, Len: res.seg.Len, RecBase: res.seg.RecBase,
			Status: segDone, Records: res.records, Errs: res.errored,
			QuarOff: j.quarOff, QuarCount: j.quarCount, OutOff: j.outOff,
		}
		if res.poison != "" {
			sl.Status = segPoisoned
			sl.Reason = res.poison
			j.poisoned = append(j.poisoned, PoisonedSeg{
				Index: res.seg.Index, Off: res.seg.Off, Len: res.seg.Len,
				Reason: res.poison, Records: res.records, Errored: res.errored,
			})
		}
		lines = append(lines, sl)
	}

	var sidecar []byte
	if j.acc != nil {
		var err error
		sidecar, err = j.marshalSidecar(lines[len(lines)-1].Index)
		if err != nil {
			return err
		}
		lines[len(lines)-1].AccHash = HashBytes(sidecar)
	}
	if err := j.m.appendSegs(lines); err != nil {
		return err
	}
	if sidecar != nil {
		if err := atomicio.WriteFile(sidecarPath(j.cfg.Manifest), sidecar, 0o644); err != nil {
			return err
		}
	}
	if j.cfg.Progress != nil {
		j.cfg.Progress(Progress{
			Segments: len(j.plan.Segs), Committed: len(j.m.segs),
			Poisoned: len(j.poisoned), Records: j.records, Errored: j.errored,
		})
	}
	return nil
}

// run executes the segments past the committed frontier on the executor:
// workers parse, and each contiguous run of finished segments commits in
// segment order. A segment whose worker panicked twice is poisoned with no
// contribution.
func (j *job) run() (*Report, error) {
	err := j.exec(j.plan.Segs[len(j.m.segs):], j.cfg.Stats, func(seg Seg, err error) (segResult, error) {
		return segResult{seg: seg, poison: fmt.Sprintf("worker panicked twice: %v", err)}, nil
	}, j.commit)
	if err != nil {
		return nil, err
	}

	// Everything committed: close the stream and finalize the journal.
	if j.outF != nil && j.cfg.EmitEpilogue != nil {
		var buf bytes.Buffer
		j.cfg.EmitEpilogue(&buf)
		if _, err := j.outF.Write(buf.Bytes()); err != nil {
			return nil, err
		}
		if err := j.outF.Sync(); err != nil {
			return nil, err
		}
	}
	done := doneLine{Records: j.records, Errored: j.errored}
	for _, p := range j.poisoned {
		done.Poisoned = append(done.Poisoned, p.Index)
	}
	if err := j.m.finalize(done); err != nil {
		return nil, err
	}
	return &Report{
		Records: j.records, Errored: j.errored, Segments: len(j.plan.Segs),
		Skipped: j.skipped, Replayed: j.replayed, Quarantined: j.quarCount,
		Poisoned: j.poisoned, Acc: j.acc,
	}, nil
}
