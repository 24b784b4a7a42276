package segment

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"pads/internal/interp"
	"pads/internal/padsrt"
	"pads/internal/telemetry"
	"pads/internal/telemetry/prof"
	"pads/internal/value"
)

// Task is one segment handed to a worker: the segment, the index of the
// worker goroutine running it, and the attempt's private observers (nil
// when the run has none), which Exec folds into the run's in segment order
// when the segment commits.
type Task struct {
	Seg    Seg
	Worker int
	Stats  *telemetry.Stats
	Prof   *prof.Profiler
}

// Source builds the task's parse source over b, the segment's bytes,
// borrowed in place: positions start at the segment's offset, record
// numbers follow recBase+Seg.RecBase earlier records, and counters and
// profile go to the task's private observers whatever opts attach. A
// borrowed source never fills, so the segment's bytes count as read here,
// once.
func (t *Task) Source(b []byte, recBase int, opts []padsrt.SourceOption) *padsrt.Source {
	src := padsrt.NewBorrowedSource(b, opts...)
	src.SetBase(t.Seg.Off, recBase+t.Seg.RecBase)
	src.SetStats(t.Stats)
	src.SetProf(t.Prof)
	if t.Stats != nil {
		t.Stats.Source.BytesRead += uint64(len(b))
	}
	return src
}

func resolveWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// PlanBytes plans the in-memory region data[off:] for a scan on workers
// goroutines (<= 0 means GOMAXPROCS): PlanSegments over a bytes.Reader at
// segSize = max(MinSegSize, ⌈region/workers⌉), so each worker gets about
// one segment and a small input stays whole. Disciplines without cheap
// resynchronization (none, custom) get one segment covering the region;
// the input is in memory already, so nothing is lost by not splitting it.
func PlanBytes(data []byte, off int64, disc padsrt.Discipline, workers int) []Seg {
	size := int64(len(data)) - off
	w := int64(resolveWorkers(workers))
	segSize := max(MinSegSize, (size+w-1)/w)
	p, err := PlanSegments(bytes.NewReader(data), off, size, disc, segSize)
	if err != nil {
		return []Seg{{Off: off, Len: size}}
	}
	return p.Segs
}

// Exec is the ordered executor behind every multi-segment scan. It runs
// work on up to workers goroutines (<= 0 means GOMAXPROCS), keeps at most
// 2×workers segments in flight (parsing or waiting for their turn, so
// memory stays O(workers × segment) even behind one slow segment), and
// hands each contiguous run of finished results to commit in segment
// order, on the caller's goroutine.
//
// A panic in work is contained: the segment is retried once with fresh
// observers. A second panic goes to failed, which decides what it means
// (an out-of-core job poisons the segment); with failed nil it is the
// segment's error. The first error in segment order, from work, failed or
// commit, ends the run: the segments before it commit, none after it do.
//
// When st is non-nil each committed segment's private Stats folds into it,
// with its contained panics in st.Faults, and st.Workers gains one row per
// worker goroutine; pf receives each private profiler the same way. Both
// fold in segment order, so their deterministic fields do not depend on
// the worker count.
func Exec[R any](segs []Seg, workers int, st *telemetry.Stats, pf *prof.Profiler,
	work func(t *Task) (R, error), failed func(seg Seg, err error) (R, error),
	commit func(rs []R) error) error {
	if len(segs) == 0 {
		return nil
	}
	workers = min(resolveWorkers(workers), len(segs))

	type done struct {
		i      int
		t      *Task
		r      R
		err    error
		panics int
		wall   time.Duration
	}
	attempt := func(t *Task) (r R, err, panicked error) {
		defer func() {
			if p := recover(); p != nil {
				panicked = fmt.Errorf("segment %d worker panicked: %v\n%s", t.Seg.Index, p, debug.Stack())
			}
		}()
		r, err = work(t)
		return r, err, nil
	}
	run := func(w, i int) done {
		start := time.Now()
		d := done{i: i}
		for {
			d.t = &Task{Seg: segs[i], Worker: w}
			if st != nil {
				d.t.Stats = telemetry.NewStats()
			}
			if pf != nil {
				d.t.Prof = pf.NewWorker()
			}
			var panicked error
			if d.r, d.err, panicked = attempt(d.t); panicked == nil {
				break
			}
			if d.panics++; d.panics == 2 {
				// Both attempts' observers are discarded with them.
				d.t = &Task{Seg: segs[i], Worker: w}
				d.err = panicked
				if failed != nil {
					d.r, d.err = failed(segs[i], panicked)
				}
				break
			}
		}
		d.wall = time.Since(start)
		return d
	}

	window := make(chan struct{}, 2*workers) // slots for segments in flight
	queue := make(chan int)
	// One slot per worker: a worker that finishes while the caller commits
	// hands its result over and takes the next segment without waiting.
	results := make(chan done, workers)
	stop := make(chan struct{})
	go func() {
		defer close(queue)
		for i := range segs {
			select {
			case window <- struct{}{}:
			case <-stop:
				return
			}
			select {
			case queue <- i:
			case <-stop:
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				results <- run(w, i)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	var rows []telemetry.WorkerStat
	if st != nil {
		rows = make([]telemetry.WorkerStat, workers)
		for w := range rows {
			rows[w].Worker = w
		}
	}
	fold := func(d done) {
		pf.Merge(d.t.Prof)
		if st == nil {
			return
		}
		st.Merge(d.t.Stats)
		if d.panics > 0 {
			st.Faults.ChunkFailures += uint64(d.panics)
			st.Faults.ChunkRetries++
			if d.panics == 1 {
				st.Faults.ChunkRescues++
			}
		}
		row := &rows[d.t.Worker]
		if d.t.Stats != nil {
			row.Records += d.t.Stats.Source.RecordsBegun
		}
		row.Bytes += uint64(d.t.Seg.Len)
		row.WallNS += d.wall.Nanoseconds()
	}

	pending := make(map[int]done)
	next := 0
	var firstErr error
	for d := range results {
		if firstErr != nil {
			continue // drain so the workers can exit
		}
		pending[d.i] = d
		var batch []R
		for {
			d, ok := pending[next]
			if !ok {
				break
			}
			if d.err != nil {
				firstErr = d.err
				break
			}
			delete(pending, next)
			fold(d)
			batch = append(batch, d.r)
			next++
		}
		if len(batch) > 0 {
			if err := commit(batch); err != nil && firstErr == nil {
				firstErr = err
			}
			for range batch {
				<-window
			}
		}
		if firstErr != nil {
			close(stop)
		}
	}
	if st != nil {
		st.Workers = append(st.Workers, rows...)
	}
	return firstErr
}

// Part is what one segment's record scan produced besides its consumer's
// output: the counts, the dead letters, and how the scan ended.
type Part struct {
	Records, Errored int
	Batch            *interp.Batch // the segment's dead letters; nil unless the policy has a Sink
	Err              error
}

// ScanRecords parses every record of src through a shard of rr, handing
// each to each: the per-segment body of every record scan on Exec. The
// shard picks up the source's private Stats and Prof (Task.Source), and
// the policy's dead letters collect in a private Batch that the caller
// flushes in segment order, so quarantine output is the same at any worker
// count.
//
// enforce is the one real difference between Exec's record-scanning
// callers. An out-of-core job passes true: the segment enforces pol's
// error budgets itself, and a segment that exhausts them is poisoned (the
// segment is the job's fault-isolation boundary). An in-memory scan passes
// false: a segment sees only its own counts, so the caller checks pol
// against the merged totals as each segment commits.
func ScanRecords(rr *interp.RecordReader, src *padsrt.Source, pol *interp.Policy, enforce bool, each func(value.Value)) Part {
	r := rr.Shard(src)
	var p Part
	if pol.Active() && (enforce || pol.Sink != nil) {
		var sp interp.Policy
		if enforce {
			sp = *pol
		}
		sp.Sink = nil
		if pol.Sink != nil {
			p.Batch = &interp.Batch{}
			sp.Sink = p.Batch
		}
		r.SetPolicy(&sp)
	}
	for r.More() {
		each(r.Read())
	}
	p.Records, p.Errored = r.Counts()
	p.Err = r.Err()
	return p
}
