// Package prof is the parse-path profiler: it attributes wall time, bytes
// consumed, heap allocation, and error counts to description AST node paths
// — struct fields, union branches (including failed speculative attempts),
// and array elements — answering "where does my parse spend its time" the
// way the accumulators of the paper answer "what does my data look like".
//
// The profiler follows the telemetry package's zero-overhead-when-disabled
// discipline: every producer holds a possibly-nil *Profiler and guards each
// hook with a nil check, so the unprofiled hot path pays one predictable
// branch and no allocation (the interp alloc-regression test pins this).
// When enabled, the profiler samples whole records — 1 in Every records gets
// per-node timing; the rest pay a few counter increments at the record
// boundary — so cost scales with the sampling rate, not the input.
//
// A Profiler is single-goroutine, like telemetry.Stats: parallel parses give
// every segment a private Profiler (segment.Exec) and fold them with Merge
// on the coordinating goroutine in segment order. All merged
// quantities are commutative integer sums, maxima, or histogram bucket
// counts, so the deterministic parts of a merged profile (counts, bytes,
// errors, record-size histogram) are identical to a sequential run's at any
// worker count.
package prof

import (
	"fmt"
	"io"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"pads/internal/telemetry"
)

// NodeStat is the attribution record of one description node path.
type NodeStat struct {
	Path   string `json:"path"`
	Count  uint64 `json:"count"`            // sampled parses of this node
	Errors uint64 `json:"errors,omitempty"` // sampled parses that erred (incl. backtracked branches)
	SelfNS int64  `json:"self_ns"`          // wall time minus profiled children
	CumNS  int64  `json:"cum_ns"`           // wall time including children

	// SelfBytes/CumBytes count input consumed. A backtracked union branch's
	// speculative bytes are charged to the branch node but not to its
	// parent's children (the cursor restored), so a parent's self bytes
	// reflect what it really kept.
	SelfBytes uint64 `json:"self_bytes"`
	CumBytes  uint64 `json:"cum_bytes"`

	// AllocObjs/AllocBytes estimate heap allocation attributed to record
	// roots: allocation counters are read on a subsample of sampled records
	// (Options.AllocEvery) and scaled up at snapshot time.
	AllocObjs  uint64 `json:"alloc_objs,omitempty"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
}

// add folds o into s (all fields are commutative sums).
func (s *NodeStat) add(o *NodeStat) {
	s.Count += o.Count
	s.Errors += o.Errors
	s.SelfNS += o.SelfNS
	s.CumNS += o.CumNS
	s.SelfBytes += o.SelfBytes
	s.CumBytes += o.CumBytes
	s.AllocObjs += o.AllocObjs
	s.AllocBytes += o.AllocBytes
}

// Options configures a Profiler.
type Options struct {
	// Every samples 1 in Every records for per-node attribution; <= 0 means
	// 1 (profile every record). Unsampled records still contribute to the
	// record counts, the size histogram, and the progress ticker.
	Every int
	// AllocEvery reads heap-allocation counters around 1 in AllocEvery
	// *sampled* records (runtime/metrics is cheap but not free); 0 means
	// the default of 64, < 0 disables allocation attribution.
	AllocEvery int
	// Progress, when non-nil, receives live byte/record/error counts (and
	// periodic hot-node updates) from every record boundary; workers of a
	// parallel run share the parent's Progress through NewWorker.
	Progress *Progress
}

// node is one interned path element: a (parent, segment) pair. Parents are
// always interned before their children, so node indices are topologically
// ordered — Merge relies on this.
type node struct {
	parent int32
	seg    string
}

type nodeKey struct {
	parent int32
	seg    string
}

// frame is one open node span on the profiler's stack.
type frame struct {
	node       int32
	start      time.Time
	startByte  int64
	childNS    int64
	childBytes int64
}

const (
	allocObjsMetric  = "/gc/heap/allocs:objects"
	allocBytesMetric = "/gc/heap/allocs:bytes"
)

// Profiler accumulates per-node attribution for one parse (or one worker of
// a parallel parse). It is written by exactly one goroutine; the hooks are
// called by the interpreter at record, field, branch, and element
// boundaries. The zero overhead contract: callers guard every hook behind a
// nil check, and on unsampled records only BeginRecord/EndRecord run, doing
// a handful of integer updates and no allocation.
type Profiler struct {
	opts  Options
	every uint64

	// Record-boundary state.
	seen     uint64 // records begun
	sampling bool   // current record is sampled
	recStart int64  // byte offset of the current record's start

	// Node table and open spans (sampled records only).
	nodes    []node
	index    map[nodeKey]int32
	stats    []NodeStat // parallel to nodes; Path left empty until snapshot
	pathMemo []string   // parallel to nodes; lazily built dotted paths
	stack    []frame

	// Totals.
	records uint64 // records completed
	sampled uint64
	errored uint64
	bytes   uint64
	t0, t1  time.Time // first sampled record begin .. last sampled record end

	recLat  Hist // per-record parse latency, ns (sampled records)
	recSize Hist // per-record size, bytes (all records)

	// Allocation subsampling.
	allocEvery   uint64
	allocSampled uint64
	allocRec     bool
	allocObjs0   uint64
	allocBytes0  uint64
	allocSamples [2]metrics.Sample

	progress *Progress
}

// New builds a Profiler.
func New(o Options) *Profiler {
	every := o.Every
	if every <= 0 {
		every = 1
	}
	allocEvery := o.AllocEvery
	if allocEvery == 0 {
		allocEvery = 64
	}
	if allocEvery < 0 {
		allocEvery = 0
	}
	p := &Profiler{
		opts:       o,
		every:      uint64(every),
		allocEvery: uint64(allocEvery),
		index:      make(map[nodeKey]int32),
		stack:      make([]frame, 0, 32),
		progress:   o.Progress,
	}
	p.allocSamples[0].Name = allocObjsMetric
	p.allocSamples[1].Name = allocBytesMetric
	return p
}

// NewWorker builds a fresh Profiler with the same configuration, sharing
// the parent's Progress sink — the per-segment profiler of a parallel run.
// Fold it back with Merge on the coordinating goroutine.
func (p *Profiler) NewWorker() *Profiler { return New(p.opts) }

// Sampling reports whether the current record is being profiled; the
// interpreter guards Enter/Exit pairs with it so span hooks cost nothing on
// unsampled records.
func (p *Profiler) Sampling() bool { return p != nil && p.sampling }

// nodeFor interns (parent, seg), returning its id.
func (p *Profiler) nodeFor(parent int32, seg string) int32 {
	k := nodeKey{parent: parent, seg: seg}
	if id, ok := p.index[k]; ok {
		return id
	}
	id := int32(len(p.nodes))
	p.nodes = append(p.nodes, node{parent: parent, seg: seg})
	p.stats = append(p.stats, NodeStat{})
	p.pathMemo = append(p.pathMemo, "")
	p.index[k] = id
	return id
}

// path materializes the dotted path of a node, memoized.
func (p *Profiler) path(id int32) string {
	if p.pathMemo[id] != "" {
		return p.pathMemo[id]
	}
	n := p.nodes[id]
	s := n.seg
	if n.parent >= 0 {
		s = p.path(n.parent) + "." + n.seg
	}
	p.pathMemo[id] = s
	return s
}

// segsOf returns the path elements of a node, root first.
func (p *Profiler) segsOf(id int32) []string {
	var segs []string
	for i := id; i >= 0; i = p.nodes[i].parent {
		segs = append(segs, p.nodes[i].seg)
	}
	for i, j := 0, len(segs)-1; i < j; i, j = i+1, j-1 {
		segs[i], segs[j] = segs[j], segs[i]
	}
	return segs
}

// BeginRecord opens a record span rooted at the record type's name and
// decides whether this record is sampled. Unsampled records pay only this
// decision.
func (p *Profiler) BeginRecord(typeName string, off int64) {
	p.seen++
	p.recStart = off
	p.sampling = p.seen%p.every == 0
	if !p.sampling {
		return
	}
	p.sampled++
	if p.allocEvery > 0 && p.sampled%p.allocEvery == 0 {
		p.allocRec = true
		p.allocSampled++
		metrics.Read(p.allocSamples[:])
		p.allocObjs0 = p.allocSamples[0].Value.Uint64()
		p.allocBytes0 = p.allocSamples[1].Value.Uint64()
	}
	id := p.nodeFor(-1, typeName)
	now := time.Now()
	if p.t0.IsZero() {
		p.t0 = now
	}
	p.stack = append(p.stack, frame{node: id, start: now, startByte: off})
}

// EndRecord closes the record span and folds the sampled attribution into
// the node table — the commit boundary where all per-record bookkeeping
// lands, keeping everything else off the unsampled path.
func (p *Profiler) EndRecord(off int64, errored bool) {
	p.records++
	size := off - p.recStart
	if size < 0 {
		size = 0
	}
	p.bytes += uint64(size)
	p.recSize.Observe(uint64(size))
	if errored {
		p.errored++
	}
	if p.progress != nil {
		p.progress.Add(uint64(size), errored)
	}
	if !p.sampling {
		return
	}
	p.sampling = false
	// Defensive: close any span an unbalanced caller left open so the
	// record frame is on top.
	for len(p.stack) > 1 {
		p.pop(off, errored, false)
	}
	if len(p.stack) == 0 {
		return
	}
	start, rootID := p.stack[0].start, p.stack[0].node
	p.pop(off, errored, false)
	now := time.Now()
	p.t1 = now
	p.recLat.Observe(uint64(now.Sub(start).Nanoseconds()))
	if p.allocRec {
		p.allocRec = false
		metrics.Read(p.allocSamples[:])
		st := &p.stats[rootID]
		st.AllocObjs += p.allocSamples[0].Value.Uint64() - p.allocObjs0
		st.AllocBytes += p.allocSamples[1].Value.Uint64() - p.allocBytes0
	}
	if p.progress != nil && p.sampled&0x3f == 1 {
		p.noteHot()
	}
}

// Enter opens a child span under the current node. Callers must guard with
// Sampling() — the pair discipline is: remember whether Enter ran, and call
// Exit only then, so spans stay balanced even when a record boundary opens
// or closes between the two.
func (p *Profiler) Enter(seg string, off int64) {
	id := p.nodeFor(p.stack[len(p.stack)-1].node, seg)
	p.stack = append(p.stack, frame{node: id, start: time.Now(), startByte: off})
}

// Exit closes the innermost span, attributing its elapsed time and consumed
// bytes.
func (p *Profiler) Exit(off int64, errored bool) { p.pop(off, errored, false) }

// ExitSpeculative closes the innermost span for a union branch that failed
// and backtracked: the attempt's time and bytes are charged to the branch
// node (and its time to the parent), but the speculative bytes do not count
// toward the parent's consumption — the cursor restored them.
func (p *Profiler) ExitSpeculative(off int64) { p.pop(off, true, true) }

func (p *Profiler) pop(off int64, errored, speculative bool) {
	i := len(p.stack) - 1
	f := &p.stack[i]
	el := time.Since(f.start).Nanoseconds()
	nbytes := off - f.startByte
	if nbytes < 0 {
		nbytes = 0
	}
	st := &p.stats[f.node]
	st.Count++
	if errored {
		st.Errors++
	}
	st.CumNS += el
	if self := el - f.childNS; self > 0 {
		st.SelfNS += self
	}
	st.CumBytes += uint64(nbytes)
	if selfB := nbytes - f.childBytes; selfB > 0 {
		st.SelfBytes += uint64(selfB)
	}
	p.stack = p.stack[:i]
	if i > 0 {
		parent := &p.stack[i-1]
		parent.childNS += el
		if !speculative {
			parent.childBytes += nbytes
		}
	}
}

// noteHot publishes the current hottest node to the progress ticker.
func (p *Profiler) noteHot() {
	best, bestNS := int32(-1), int64(0)
	for i := range p.stats {
		if p.stats[i].SelfNS > bestNS {
			best, bestNS = int32(i), p.stats[i].SelfNS
		}
	}
	if best >= 0 {
		p.progress.SetHot(p.path(best))
	}
}

// Merge folds worker o into p: node stats unify by path, counters add,
// histograms merge bucket-wise, and the wall window widens. Like
// telemetry.Stats.Merge it runs on the coordinating goroutine, in segment
// order; because every merged quantity is commutative, the deterministic
// fields of the result do not depend on the fold order or worker count. o
// is left untouched.
func (p *Profiler) Merge(o *Profiler) {
	if o == nil {
		return
	}
	remap := make([]int32, len(o.nodes))
	for i, n := range o.nodes {
		parent := int32(-1)
		if n.parent >= 0 {
			parent = remap[n.parent]
		}
		remap[i] = p.nodeFor(parent, n.seg)
	}
	for i := range o.stats {
		p.stats[remap[i]].add(&o.stats[i])
	}
	p.seen += o.seen
	p.records += o.records
	p.sampled += o.sampled
	p.allocSampled += o.allocSampled
	p.errored += o.errored
	p.bytes += o.bytes
	p.recLat.Merge(&o.recLat)
	p.recSize.Merge(&o.recSize)
	if p.t0.IsZero() || (!o.t0.IsZero() && o.t0.Before(p.t0)) {
		p.t0 = o.t0
	}
	if o.t1.After(p.t1) {
		p.t1 = o.t1
	}
}

// Profile is an immutable snapshot of a Profiler, ready for reporting.
type Profile struct {
	Records      uint64     `json:"records"`
	Sampled      uint64     `json:"sampled"`
	Errored      uint64     `json:"errored"`
	Bytes        uint64     `json:"bytes"`
	WallNS       int64      `json:"wall_ns"`       // first sampled record begin -> last sampled record end
	AttributedNS int64      `json:"attributed_ns"` // sum of record-root cumulative time (unscaled)
	Nodes        []NodeStat `json:"nodes"`         // sorted by self time desc, then path
	RecLat       Hist       `json:"record_latency_ns"`
	RecSize      Hist       `json:"record_size_bytes"`

	segs [][]string // path elements per node, for folded output
}

// Snapshot renders the profiler's current state. Call it after the parse
// (and after merging workers); it does not modify the profiler.
func (p *Profiler) Snapshot() *Profile {
	pr := &Profile{
		Records: p.records,
		Sampled: p.sampled,
		Errored: p.errored,
		Bytes:   p.bytes,
		RecLat:  p.recLat,
		RecSize: p.recSize,
	}
	if !p.t0.IsZero() {
		pr.WallNS = p.t1.Sub(p.t0).Nanoseconds()
	}
	// Scale subsampled allocation measurements up to sampled-record scale.
	allocScale := 0.0
	if p.allocSampled > 0 {
		allocScale = float64(p.sampled) / float64(p.allocSampled)
	}
	type row struct {
		st   NodeStat
		segs []string
	}
	rows := make([]row, 0, len(p.stats))
	for i := range p.stats {
		if p.stats[i].Count == 0 {
			continue
		}
		st := p.stats[i]
		st.Path = p.path(int32(i))
		st.AllocObjs = uint64(float64(st.AllocObjs) * allocScale)
		st.AllocBytes = uint64(float64(st.AllocBytes) * allocScale)
		if p.nodes[i].parent < 0 {
			pr.AttributedNS += st.CumNS
		}
		rows = append(rows, row{st: st, segs: p.segsOf(int32(i))})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].st.SelfNS != rows[j].st.SelfNS {
			return rows[i].st.SelfNS > rows[j].st.SelfNS
		}
		return rows[i].st.Path < rows[j].st.Path
	})
	pr.Nodes = make([]NodeStat, len(rows))
	pr.segs = make([][]string, len(rows))
	for i, r := range rows {
		pr.Nodes[i] = r.st
		pr.segs[i] = r.segs
	}
	return pr
}

// Scale is the sampling expansion factor: multiply sampled quantities by it
// to estimate whole-run totals (1 when every record was sampled).
func (pr *Profile) Scale() float64 {
	if pr.Sampled == 0 {
		return 0
	}
	return float64(pr.Records) / float64(pr.Sampled)
}

// AttributedFrac estimates the fraction of the profiled wall window
// attributed to description nodes (scaled for sampling; 0 when nothing was
// sampled).
func (pr *Profile) AttributedFrac() float64 {
	if pr.WallNS <= 0 {
		return 0
	}
	return float64(pr.AttributedNS) * pr.Scale() / float64(pr.WallNS)
}

// HotNodes returns the top-n nodes by self time in report form.
func (pr *Profile) HotNodes(n int) []telemetry.HotNode {
	if n > len(pr.Nodes) {
		n = len(pr.Nodes)
	}
	out := make([]telemetry.HotNode, 0, n)
	for _, st := range pr.Nodes[:n] {
		out = append(out, telemetry.HotNode{
			Path:   st.Path,
			Count:  st.Count,
			Errors: st.Errors,
			SelfNS: st.SelfNS,
			CumNS:  st.CumNS,
			Bytes:  st.CumBytes,
		})
	}
	return out
}

// WriteTable renders the human -profile report: a header with attribution
// coverage and latency/size quantile bounds, then one row per node sorted by
// self time.
func (pr *Profile) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "records   %d parsed (%d sampled), %d errored, %s\n",
		pr.Records, pr.Sampled, pr.Errored, humanBytes(pr.Bytes))
	if pr.WallNS > 0 {
		fmt.Fprintf(w, "wall      %s profiled, %.1f%% attributed to %d description nodes\n",
			time.Duration(pr.WallNS), 100*pr.AttributedFrac(), len(pr.Nodes))
	}
	if pr.RecLat.N > 0 {
		fmt.Fprintf(w, "latency   %s  mean %s\n", quantileBounds(&pr.RecLat, durationBound), time.Duration(int64(pr.RecLat.Mean())))
	}
	if pr.RecSize.N > 0 {
		fmt.Fprintf(w, "size      %s  mean %s\n", quantileBounds(&pr.RecSize, byteBound), humanBytes(uint64(pr.RecSize.Mean())))
	}
	if len(pr.Nodes) == 0 {
		return
	}
	fmt.Fprintf(w, "%12s %12s %10s %10s %6s  %s\n", "self", "cum", "count", "bytes", "errs", "path")
	for _, st := range pr.Nodes {
		fmt.Fprintf(w, "%12s %12s %10d %10s %6d  %s\n",
			time.Duration(st.SelfNS), time.Duration(st.CumNS), st.Count,
			humanBytes(st.CumBytes), st.Errors, st.Path)
	}
}

// WriteFolded emits folded-stack lines — "root;child;leaf selfNS" — the
// input format of flamegraph tools (flamegraph.pl, inferno, speedscope).
func (pr *Profile) WriteFolded(w io.Writer) {
	for i, st := range pr.Nodes {
		fmt.Fprintf(w, "%s %d\n", strings.Join(pr.segs[i], ";"), st.SelfNS)
	}
}

// WritePrometheus renders the profile in Prometheus text exposition format;
// it satisfies telemetry.Collector so a Profile registers directly with
// telemetry.MetricsHandler.
func (pr *Profile) WritePrometheus(w io.Writer) {
	fmt.Fprintf(w, "# TYPE pads_profile_records_total counter\npads_profile_records_total %d\n", pr.Records)
	fmt.Fprintf(w, "# TYPE pads_profile_records_errored_total counter\npads_profile_records_errored_total %d\n", pr.Errored)
	fmt.Fprintf(w, "# TYPE pads_profile_bytes_total counter\npads_profile_bytes_total %d\n", pr.Bytes)
	if len(pr.Nodes) > 0 {
		fmt.Fprintln(w, "# TYPE pads_profile_node_self_seconds_total counter")
		for _, st := range pr.Nodes {
			fmt.Fprintf(w, "pads_profile_node_self_seconds_total{path=%q} %g\n", st.Path, float64(st.SelfNS)/1e9)
		}
		fmt.Fprintln(w, "# TYPE pads_profile_node_bytes_total counter")
		for _, st := range pr.Nodes {
			fmt.Fprintf(w, "pads_profile_node_bytes_total{path=%q} %d\n", st.Path, st.CumBytes)
		}
		fmt.Fprintln(w, "# TYPE pads_profile_node_errors_total counter")
		for _, st := range pr.Nodes {
			fmt.Fprintf(w, "pads_profile_node_errors_total{path=%q} %d\n", st.Path, st.Errors)
		}
	}
	pr.RecLat.writePromHistogram(w, "pads_profile_record_latency_seconds", 1e9)
	pr.RecSize.writePromHistogram(w, "pads_profile_record_size_bytes", 1)
}

// quantileBounds renders p50/p90/p99 interval bounds of a histogram.
func quantileBounds(h *Hist, bound func(uint64) string) string {
	var b strings.Builder
	for _, q := range []struct {
		name string
		q    float64
	}{{"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}} {
		lo, hi := h.Quantile(q.q)
		if b.Len() > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%s [%s,%s]", q.name, bound(lo), bound(hi))
	}
	return b.String()
}

func durationBound(v uint64) string { return time.Duration(v).String() }

func byteBound(v uint64) string { return humanBytes(v) }

// humanBytes renders a byte count with a binary-ish human unit.
func humanBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}
