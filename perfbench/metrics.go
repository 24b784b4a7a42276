package main

import (
	"bytes"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

type metricDef struct {
	name   string
	unit   string
	better string
}

// endToEnd and perLayer are the metrics BENCHMARK.json declares, in its
// order (metrics_test.go keeps the two in step). Every workload reports every
// metric; README.md says what each one measures on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_mb_s", "MB/s", "higher"},
	{"select_mb_s", "MB/s", "higher"},
	{"count_mb_s", "MB/s", "higher"},
	{"allocs_per_record", "allocs", "lower"},
	{"alloc_bytes_per_record", "B", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
}

var perLayer = []metricDef{
	{"core.compile_ms", "ms", "lower"},
	{"padsrt.read_s", "s", "lower"},
	{"padsrt.bytes_read", "B", "lower"},
	{"padsrt.fills", "count", "lower"},
	{"padsrt.compact_bytes", "B", "lower"},
	{"padsrt.checkpoints", "count", "lower"},
	{"padsrt.restores", "count", "lower"},
	{"padsrt.intern_hits", "count", "higher"},
	{"padsrt.intern_misses", "count", "lower"},
	{"padsrt.eor_resyncs", "count", "lower"},
	{"interp.read_s", "s", "lower"},
	{"interp.check_s", "s", "lower"},
	{"interp.allocs_per_record", "allocs", "lower"},
	{"interp.alloc_bytes_per_record", "B", "lower"},
	{"accum.add_s", "s", "lower"},
	{"accum.report_s", "s", "lower"},
	{"xmlgen.write_s_per_mb", "s/MB", "lower"},
	{"fmtconv.write_s_per_mb", "s/MB", "lower"},
	{"segment.plan_s", "s", "lower"},
	{"segment.segments", "count", "lower"},
	{"segment.commit_batches", "count", "lower"},
	{"segment.commit_gap_ms", "ms", "lower"},
	{"padsd.handler_ms_p50", "ms", "lower"},
	{"padsd.transport_ms_p50", "ms", "lower"},
	{"padsd.accum_ms_p50", "ms", "lower"},
	{"padsd.csv_ms_p50", "ms", "lower"},
	{"padsd.xml_ms_p50", "ms", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"trace.throughput_mb_s", "MB/s", "higher"},
	{"trace.overhead_pct", "%", "lower"},
}

// layerDefaults gives every per-layer metric the value 0: a layer that a
// workload never calls does no work there.
func layerDefaults() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}

// memSnap is a reading of the allocator and collector counters.
type memSnap struct {
	mallocs, bytes, gcs uint64
	pauseNS             uint64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: uint64(ms.NumGC), pauseNS: ms.PauseTotalNs}
}

func (a memSnap) sub(b memSnap) memSnap {
	return memSnap{mallocs: a.mallocs - b.mallocs, bytes: a.bytes - b.bytes, gcs: a.gcs - b.gcs, pauseNS: a.pauseNS - b.pauseNS}
}

func (a memSnap) add(b memSnap) memSnap {
	return memSnap{mallocs: a.mallocs + b.mallocs, bytes: a.bytes + b.bytes, gcs: a.gcs + b.gcs, pauseNS: a.pauseNS + b.pauseNS}
}

// passes runs pass until budget has elapsed, at least min times, and
// returns the CPU time of each pass (see cpuTime) plus the allocator
// counters summed over all of them. A calibration sample follows each pass.
func passes(budget time.Duration, min int, pass func() error) ([]time.Duration, memSnap, error) {
	var times []time.Duration
	var mem memSnap
	t0 := time.Now()
	for len(times) < min || time.Since(t0) < budget {
		cal.sample()
		m0 := readMem()
		rss.begin()
		c0 := cpuTime()
		if err := pass(); err != nil {
			return times, mem, err
		}
		times = append(times, cpuTime().Sub(c0))
		rss.end()
		mem = mem.add(readMem().sub(m0))
	}
	return times, mem, nil
}

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile is the nearest-rank percentile p (0 < p <= 100).
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(p/100*float64(len(s))+0.999999) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

func mbPerSec(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rss keeps the resident set's peak of each pass of the run. The peak of
// the whole process (VmHWM) is one extreme of a collector-timed process: with
// two clients on the daemon it moved by a quarter between runs of the same
// seed. The median over passes of each pass's peak is steadier and still
// shows a change in what a pass holds resident.
var rss rssPeaks

// rssEvery is how often the resident set is read while a pass runs.
const rssEvery = 10 * time.Millisecond

type rssPeaks struct {
	mu    sync.Mutex
	on    bool
	cur   float64
	peaks []float64
	once  sync.Once
}

// begin starts a pass: from now until end, the resident set is read every
// rssEvery and its highest reading kept.
func (r *rssPeaks) begin() {
	r.once.Do(func() {
		go func() {
			for range time.Tick(rssEvery) {
				r.read()
			}
		}()
	})
	r.mu.Lock()
	r.on, r.cur = true, 0
	r.mu.Unlock()
	r.read()
}

func (r *rssPeaks) read() {
	v := residentMB()
	r.mu.Lock()
	if r.on && v > r.cur {
		r.cur = v
	}
	r.mu.Unlock()
}

// end closes the pass begun last and keeps its peak.
func (r *rssPeaks) end() {
	r.read()
	r.mu.Lock()
	r.on = false
	r.peaks = append(r.peaks, r.cur)
	r.mu.Unlock()
}

// peak is the median over the passes of each pass's peak, in MB.
func (r *rssPeaks) peak() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := append([]float64(nil), r.peaks...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// residentMB is the process's resident set (VmRSS) in MB, or the Go
// runtime's own footprint where /proc is missing.
func residentMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		if _, rest, ok := bytes.Cut(b, []byte("VmRSS:")); ok {
			if f := bytes.Fields(rest); len(f) > 0 {
				if kb, err := strconv.ParseFloat(string(f[0]), 64); err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / 1e6
}

// cpuStamp is a reading of the CPU time the process has been given, user
// and system, over all its threads. The benchmark times its batch passes in
// CPU time rather than wall time: on a virtual machine whose host takes the
// CPUs away (steal time), wall time measures the neighbours, while the CPU
// time a pass needed stays with the program. A single-goroutine pass uses
// about one CPU-second per wall-second on an idle host, plus the collector's
// concurrent work.
type cpuStamp time.Duration

func cpuTime() cpuStamp {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return cpuStamp(ru.Utime.Nano() + ru.Stime.Nano())
}

func (c cpuStamp) Sub(o cpuStamp) time.Duration { return time.Duration(c - o) }

// stealTicks reads the machine's cumulative steal time (in clock ticks of
// 10 ms, summed over CPUs) from /proc/stat, or 0 without it.
func stealTicks() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return v
}

// stealFraction is the share of the machine's CPU capacity the host took
// between two steal samples over a wall interval.
func stealFraction(before, after float64, wall time.Duration) float64 {
	capacity := wall.Seconds() * float64(runtime.NumCPU()) * 100
	if capacity <= 0 {
		return 0
	}
	f := (after - before) / capacity
	if f < 0 {
		return 0
	}
	if f > 0.9 {
		return 0.9
	}
	return f
}

// setupSamples is how many calibration samples scale the set-up's time.
const setupSamples = 8

// timedSetup is the set-up's cost, called when the set-up ends: the CPU time
// the process has used since it started, in reference seconds, scaled by
// calibration samples taken right after it, while the host runs at the
// speed it ran the set-up at.
func timedSetup() time.Duration {
	d := time.Duration(cpuTime())
	from := cal.mark()
	for i := 0; i < setupSamples; i++ {
		cal.sample()
	}
	return refTime(d, cal.scale(from))
}
