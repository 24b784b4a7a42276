package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pads/internal/core"
	"pads/internal/datagen"
	"pads/internal/fmtconv"
	"pads/internal/padsrt"
	"pads/internal/segment"
	"pads/internal/telemetry"
	"pads/internal/value"
)

// The sirius-ooc-fmt job: a Sirius corpus of about 16 MB on disk, cut into
// 1 MiB segments (about 16, so both workers stay busy and commits come in
// batches) and formatted by two workers.
const (
	oocRecords = 90000
	oocSegSize = 1 << 20
	oocWorkers = 2
)

// runSiriusOOCFmt is padsfmt -out-of-core: segment.Run in emit mode with
// fmtconv, two workers, a fresh job directory per pass and a durable
// manifest.
func runSiriusOOCFmt(e *env) (*outcome, error) {
	corpus := filepath.Join(e.work, "sirius.raw")
	st, err := writeSirius(corpus, e.seed)
	if err != nil {
		return nil, err
	}
	desc, compileDur, err := compile(siriusDescPath)
	if err != nil {
		return nil, err
	}
	data, err := os.Open(corpus)
	if err != nil {
		return nil, err
	}
	defer data.Close()

	jobs := 0
	var last oocOutput
	// pass runs one job; the output of the last job stays on disk for the
	// check, every earlier job directory is removed.
	pass := func(tr *oocTrace) error {
		jobs++
		dir := filepath.Join(e.work, fmt.Sprintf("job%d", jobs))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return err
		}
		o, err := oocJob(desc, data, corpus, st.Bytes, dir, tr)
		if err != nil {
			return err
		}
		if last.dir != "" {
			if err := os.RemoveAll(last.dir); err != nil {
				return err
			}
		}
		last = o
		if o.records != st.Records || o.poisoned != 0 {
			return fmt.Errorf("sirius-ooc-fmt: job %d parsed %d records with %d poisoned segments", jobs, o.records, o.poisoned)
		}
		return nil
	}
	if err := pass(nil); err != nil { // warm-up
		return nil, err
	}
	setup := timedSetup()
	from := cal.mark()
	fmt.Fprintf(e.log, "sirius-ooc-fmt: %d records, %d bytes, %d segments, setup %.2fs\n", st.Records, st.Bytes, last.segments, setup.Seconds())

	out := &outcome{}
	if !e.trace {
		times, mem, err := wallPasses(e.seconds*3/4, 3, func() error { return pass(nil) })
		if err != nil {
			return nil, err
		}
		k := cal.scale(from) // the samples taken between the jobs
		out.attempted = len(times)
		raw, err := os.ReadFile(corpus)
		if err != nil {
			return nil, err
		}
		sel, cnt, err := siriusRefPasses(e.seconds/4, raw)
		if err != nil {
			return nil, err
		}
		records := float64(len(times) * st.Records)
		out.values = map[string]float64{
			"setup_s":                setup.Seconds(),
			"throughput_mb_s":        mbPerSec(st.Bytes, refTime(median(times), k)),
			"select_mb_s":            mbPerSec(st.Bytes, sel),
			"count_mb_s":             mbPerSec(st.Bytes, cnt),
			"allocs_per_record":      float64(mem.mallocs) / records,
			"alloc_bytes_per_record": float64(mem.bytes) / records,
			"peak_rss_mb":            rss.peak(),
			"latency_p50_ms":         ms(refTime(median(times), k)),
			"latency_p99_ms":         ms(refTime(percentile(times, 99), k)),
		}
	} else {
		v := layerDefaults()
		v["core.compile_ms"] = ms(compileDur)
		untraced, _, err := wallPasses(e.seconds/3, 2, func() error { return pass(nil) })
		ku, from := cal.scale(from), cal.mark()
		if err != nil {
			return nil, err
		}
		var tr *oocTrace
		var readS, gaps, batches []time.Duration
		traced, mem, err := wallPasses(e.seconds/3, 2, func() error {
			tr = newOOCTrace()
			if err := pass(tr); err != nil {
				return err
			}
			readS = append(readS, time.Duration(tr.preadNS))
			gaps = append(gaps, median(tr.gaps()))
			batches = append(batches, time.Duration(len(tr.commits)))
			return nil
		})
		if err != nil {
			return nil, err
		}
		kt := cal.scale(from)
		out.attempted = len(untraced) + len(traced)
		if err := tr.timePlan(data, st.Bytes); err != nil {
			return nil, err
		}
		setSourceStats(v, tr.stats)
		v["padsrt.read_s"] = median(readS).Seconds()
		v["segment.plan_s"] = tr.plan.Seconds()
		v["segment.segments"] = float64(last.segments)
		v["segment.commit_batches"] = float64(median(batches))
		v["segment.commit_gap_ms"] = ms(median(gaps))
		v["runtime.gc_cycles"] = float64(mem.gcs) / float64(len(traced))
		v["runtime.gc_pause_ms"] = float64(mem.pauseNS) / 1e6 / float64(len(traced))
		v["trace.throughput_mb_s"] = mbPerSec(st.Bytes, refTime(median(traced), kt))
		v["trace.overhead_pct"] = overheadPct(refTime(median(untraced), ku), refTime(median(traced), kt))
		if err := fmtLayer(v, desc, corpus, e.seconds/3); err != nil {
			return nil, err
		}
		out.values = v
		if err := tr.spans.write(e.spans); err != nil {
			return nil, err
		}
	}

	seq, err := sequentialFmt(desc, corpus)
	if err != nil {
		return nil, err
	}
	if last.out, err = os.ReadFile(last.outPath); err != nil {
		return nil, err
	}
	out.check(checkOOC(last, st.Records, seq))
	return out, nil
}

func writeSirius(path string, seed uint64) (datagen.SiriusStats, error) {
	f, err := os.Create(path)
	if err != nil {
		return datagen.SiriusStats{}, err
	}
	cfg := datagen.DefaultSirius(oocRecords)
	cfg.Seed = mix(seed, 1)
	st, err := datagen.Sirius(f, cfg)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return st, fmt.Errorf("generating sirius corpus: %w", err)
	}
	return st, nil
}

// newFormatter is padsfmt's formatter with its default delimiter.
func newFormatter() *fmtconv.Formatter { return fmtconv.New("|") }

// oocJob runs one out-of-core job in dir.
func oocJob(desc *core.Description, data *os.File, path string, size int64, dir string, tr *oocTrace) (oocOutput, error) {
	f := newFormatter()
	o := oocOutput{dir: dir, outPath: filepath.Join(dir, "out.fmt")}
	cfg := segment.Config{
		Interp:   desc.Interp,
		DescHash: segment.HashBytes([]byte(desc.Source)),
		Data:     data,
		DataPath: path,
		DataSize: size,
		Source:   []padsrt.SourceOption{padsrt.WithDiscipline(padsrt.Newline())},
		SegSize:  oocSegSize,
		Workers:  oocWorkers,
		Manifest: filepath.Join(dir, "job.manifest"),
		Mode:     "fmt",
		OutPath:  o.outPath,
		Emit:     func(out *bytes.Buffer, v value.Value) { f.WriteRecord(out, v) },
	}
	if tr != nil {
		tr.observe(&cfg)
	}
	rep, err := segment.Run(cfg)
	if err != nil {
		return o, err
	}
	o.records, o.segments, o.poisoned = rep.Records, rep.Segments, len(rep.Poisoned)
	o.committed = rep.Segments - len(rep.Poisoned)
	return o, nil
}

// sequentialFmt is the reference output: fmtconv over a sequential
// RecordReader parse of the whole corpus.
func sequentialFmt(desc *core.Description, path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rr, err := desc.Interp.NewRecordReader(padsrt.NewSource(bufio.NewReaderSize(f, 1<<20)), nil)
	if err != nil {
		return nil, err
	}
	fm := newFormatter()
	var out bytes.Buffer
	for rr.More() {
		fm.WriteRecord(&out, rr.Read())
	}
	if err := rr.Err(); err != nil && !errors.Is(err, io.EOF) {
		return nil, err
	}
	return out.Bytes(), nil
}

// fmtLayer times Formatter.Append over records parsed beforehand from the
// first few MB of the corpus, in seconds per MB of input.
func fmtLayer(v map[string]float64, desc *core.Description, path string, budget time.Duration) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	head := make([]byte, 2<<20)
	n, err := io.ReadFull(f, head)
	f.Close()
	if err != nil && !errors.Is(err, io.ErrUnexpectedEOF) {
		return err
	}
	head = head[:bytes.LastIndexByte(head[:n], '\n')+1]
	recs, allocs, allocBytes, err := preParse(desc.Interp, head)
	if err != nil {
		return err
	}
	v["interp.allocs_per_record"] = allocs
	v["interp.alloc_bytes_per_record"] = allocBytes
	fm := newFormatter()
	var buf []byte
	var ts []time.Duration
	t0 := time.Now()
	for len(ts) < 3 || time.Since(t0) < budget {
		c0 := cpuTime()
		for _, r := range recs {
			buf = fm.Append(buf[:0], r)
		}
		ts = append(ts, cpuTime().Sub(c0))
	}
	v["fmtconv.write_s_per_mb"] = median(ts).Seconds() / (float64(len(head)) / 1e6)
	return nil
}

// wallPasses is passes for a job with parallel workers and durable writes:
// each pass is timed in wall time, with the share of the machine's CPUs the
// host took during it (steal) taken out, since CPU time would hide both
// the parallelism and the waits on fsync.
func wallPasses(budget time.Duration, min int, pass func() error) ([]time.Duration, memSnap, error) {
	var times []time.Duration
	var mem memSnap
	t0 := time.Now()
	for len(times) < min || time.Since(t0) < budget {
		cal.sample()
		m0 := readMem()
		rss.begin()
		s0 := stealTicks()
		w0 := time.Now()
		if err := pass(); err != nil {
			return times, mem, err
		}
		wall := time.Since(w0)
		s1 := stealTicks()
		rss.end()
		times = append(times, time.Duration(float64(wall)*(1-stealFraction(s0, s1, wall))))
		mem = mem.add(readMem().sub(m0))
	}
	return times, mem, nil
}

// oocTrace observes one job from outside: the preads the workers make
// through the job's io.ReaderAt, the Progress callback after each commit
// batch, the job's telemetry, and a separate timing of PlanSegments.
type oocTrace struct {
	spans   *tracer
	stats   *telemetry.Stats
	mu      sync.Mutex
	preadNS int64
	commits []time.Time
	plan    time.Duration
}

func newOOCTrace() *oocTrace { return &oocTrace{spans: newTracer(), stats: telemetry.NewStats()} }

func (t *oocTrace) observe(cfg *segment.Config) {
	cfg.Data = &tracedReaderAt{r: cfg.Data, t: t}
	cfg.Stats = t.stats
	start := time.Now()
	cfg.Progress = func(segment.Progress) {
		now := time.Now()
		t.mu.Lock()
		prev := start
		if n := len(t.commits); n > 0 {
			prev = t.commits[n-1]
		}
		t.commits = append(t.commits, now)
		t.mu.Unlock()
		t.spans.record("segment.commit_gap", 0, 0, prev, now)
	}
}

func (t *oocTrace) gaps() []time.Duration {
	var gs []time.Duration
	for i := 1; i < len(t.commits); i++ {
		gs = append(gs, t.commits[i].Sub(t.commits[i-1]))
	}
	return gs
}

// timePlan times segment.PlanSegments over the records region, as the job
// plans it: after the summary header line.
func (t *oocTrace) timePlan(data io.ReaderAt, size int64) error {
	head := make([]byte, 256)
	n, err := data.ReadAt(head, 0)
	if err != nil && !errors.Is(err, io.EOF) {
		return err
	}
	off := int64(bytes.IndexByte(head[:n], '\n') + 1)
	t0 := time.Now()
	if _, err := segment.PlanSegments(data, off, size-off, padsrt.Newline(), oocSegSize); err != nil {
		return err
	}
	t.plan = time.Since(t0)
	t.spans.record("segment.plan", 0, 0, t0, t0.Add(t.plan))
	return nil
}

type tracedReaderAt struct {
	r io.ReaderAt
	t *oocTrace
}

func (r *tracedReaderAt) ReadAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := r.r.ReadAt(p, off)
	t1 := time.Now()
	r.t.mu.Lock()
	r.t.preadNS += int64(t1.Sub(t0))
	r.t.mu.Unlock()
	r.t.spans.record("padsrt.pread", 0, 0, t0, t1)
	return n, err
}
