package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"time"

	"pads/internal/accum"
	"pads/internal/core"
	"pads/internal/fig10"
	"pads/internal/padsrt"
	"pads/internal/telemetry"
)

// siriusAccumRecords sizes the sirius-accum corpus (about 12 MB): a pass
// through the VM and the accumulator takes over a second.
const siriusAccumRecords = 64000

// runSiriusAccum is the padsacc path: a Sirius corpus streamed through
// padsrt.NewSource -> interp.RecordReader -> accum.Add, then Report, on one
// goroutine.
func runSiriusAccum(e *env) (*outcome, error) {
	raw, st, err := genSirius(e.seed, siriusAccumRecords)
	if err != nil {
		return nil, err
	}
	desc, compileDur, err := compile(siriusDescPath)
	if err != nil {
		return nil, err
	}
	var report bytes.Buffer
	pass := func(tr *tracer, tele *telemetry.Stats) (int, error) {
		return accumPass(desc, raw, &report, tr, tele)
	}
	if _, err := pass(nil, nil); err != nil { // warm-up
		return nil, err
	}
	setup := timedSetup()
	from := cal.mark()
	fmt.Fprintf(e.log, "sirius-accum: %d records, %d bytes, setup %.2fs\n", st.Records, len(raw), setup.Seconds())

	out := &outcome{values: map[string]float64{}}
	records := 0
	countingPass := func() error {
		n, err := pass(nil, nil)
		records += n
		return err
	}
	if !e.trace {
		times, mem, err := passes(e.seconds*3/4, 3, countingPass)
		if err != nil {
			return nil, err
		}
		k := cal.scale(from) // the samples taken between the passes
		out.attempted = len(times)
		sel, cnt, err := siriusRefPasses(e.seconds/4, raw)
		if err != nil {
			return nil, err
		}
		out.values = map[string]float64{
			"setup_s":                setup.Seconds(),
			"throughput_mb_s":        mbPerSec(int64(len(raw)), refTime(median(times), k)),
			"select_mb_s":            mbPerSec(int64(len(raw)), sel),
			"count_mb_s":             mbPerSec(int64(len(raw)), cnt),
			"allocs_per_record":      float64(mem.mallocs) / float64(records),
			"alloc_bytes_per_record": float64(mem.bytes) / float64(records),
			"peak_rss_mb":            rss.peak(),
			"latency_p50_ms":         ms(refTime(median(times), k)),
			"latency_p99_ms":         ms(refTime(percentile(times, 99), k)),
		}
	} else {
		v := layerDefaults()
		v["core.compile_ms"] = ms(compileDur)
		untraced, _, err := passes(e.seconds/3, 2, countingPass)
		ku, from := cal.scale(from), cal.mark()
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		var readS, interpS, addS, reportS []time.Duration
		var tele *telemetry.Stats
		traced, mem, err := passes(e.seconds/3, 2, func() error {
			tr.reset()
			st := telemetry.NewStats()
			n, err := pass(tr, st)
			if err != nil {
				return err
			}
			if st.Source.BytesRead != uint64(len(raw)) {
				out.check(fmt.Errorf("sirius-accum: padsrt read %d bytes, generator wrote %d", st.Source.BytesRead, len(raw)))
			}
			records += n
			tele = st
			readS = append(readS, tr.total("padsrt.read"))
			interpS = append(interpS, tr.self("interp.read"))
			addS = append(addS, tr.total("accum.add"))
			reportS = append(reportS, tr.total("accum.report"))
			return nil
		})
		if err != nil {
			return nil, err
		}
		kt := cal.scale(from)
		out.attempted = len(untraced) + len(traced)
		setSourceStats(v, tele)
		v["padsrt.read_s"] = median(readS).Seconds()
		v["interp.read_s"] = median(interpS).Seconds()
		v["accum.add_s"] = median(addS).Seconds()
		v["accum.report_s"] = median(reportS).Seconds()
		v["runtime.gc_cycles"] = float64(mem.gcs) / float64(len(traced))
		v["runtime.gc_pause_ms"] = float64(mem.pauseNS) / 1e6 / float64(len(traced))
		v["trace.throughput_mb_s"] = mbPerSec(int64(len(raw)), refTime(median(traced), kt))
		v["trace.overhead_pct"] = overheadPct(refTime(median(untraced), ku), refTime(median(traced), kt))
		check, allocs, allocBytes, err := maskAblation(desc, raw, e.seconds/3)
		if err != nil {
			return nil, err
		}
		v["interp.check_s"] = check.Seconds()
		v["interp.allocs_per_record"] = allocs
		v["interp.alloc_bytes_per_record"] = allocBytes
		out.values = v
		if err := tr.write(e.spans); err != nil {
			return nil, err
		}
	}

	truth, err := newSiriusTruth(raw, st)
	if err != nil {
		return nil, err
	}
	out.check(checkSiriusAccum(report.String(), truth))
	return out, nil
}

// accumPass is one padsacc run over the corpus; the report lands in
// report. With a tracer, the calls into interp and accum become spans and
// the source reads through a tracedReader; with tele, the source counts.
func accumPass(desc *core.Description, raw []byte, report *bytes.Buffer, tr *tracer, tele *telemetry.Stats) (int, error) {
	var r io.Reader = bufio.NewReaderSize(bytes.NewReader(raw), 1<<20)
	var opts []padsrt.SourceOption
	if tr != nil {
		r = &tracedReader{r: r, t: tr, name: "padsrt.read"}
		tr.start("pass")
		defer tr.stop()
	}
	if tele != nil {
		opts = append(opts, padsrt.WithStats(tele))
	}
	rr, err := desc.Interp.NewRecordReader(padsrt.NewSource(r, opts...), nil)
	if err != nil {
		return 0, err
	}
	acc := accum.New(accum.DefaultConfig())
	n := 0
	if tr == nil {
		for rr.More() {
			acc.Add(rr.Read())
			n++
		}
	} else {
		for rr.More() {
			tr.start("interp.read")
			v := rr.Read()
			tr.stop()
			tr.start("accum.add")
			acc.Add(v)
			tr.stop()
			n++
		}
	}
	if err := rr.Err(); err != nil && !errors.Is(err, io.EOF) {
		return n, err
	}
	report.Reset()
	fmt.Fprintf(report, "%d records\n\n", n)
	if tr != nil {
		tr.start("accum.report")
	}
	acc.Report(report, "<top>")
	if tr != nil {
		tr.stop()
	}
	return n, nil
}

// maskAblation is the section 4 mask experiment on the VM: parse-only passes
// with full checking (CheckAndSet) against passes with checking off
// (NewMaskNode(Set)). It returns the per-pass difference in median time and
// the allocations per record of the fully checked parse.
func maskAblation(desc *core.Description, raw []byte, budget time.Duration) (time.Duration, float64, float64, error) {
	setMask := padsrt.NewMaskNode(padsrt.Set)
	var full, set []time.Duration
	var mem memSnap
	records := 0
	t0 := time.Now()
	for len(full) < 2 || time.Since(t0) < budget {
		for _, mask := range []*padsrt.MaskNode{nil, setMask} {
			m0 := readMem()
			c0 := cpuTime()
			n, err := parseOnly(desc, raw, mask)
			if err != nil {
				return 0, 0, 0, err
			}
			d := cpuTime().Sub(c0)
			if mask == nil {
				full = append(full, d)
				m := readMem().sub(m0)
				mem.mallocs += m.mallocs
				mem.bytes += m.bytes
				records += n
			} else {
				set = append(set, d)
			}
		}
	}
	return median(full) - median(set), float64(mem.mallocs) / float64(records), float64(mem.bytes) / float64(records), nil
}

// parseOnly reads every record through the VM with no consumer.
func parseOnly(desc *core.Description, raw []byte, mask *padsrt.MaskNode) (int, error) {
	rr, err := desc.Interp.NewRecordReader(padsrt.NewSource(bufio.NewReaderSize(bytes.NewReader(raw), 1<<20)), mask)
	if err != nil {
		return 0, err
	}
	n := 0
	for rr.More() {
		rr.Read()
		n++
	}
	if err := rr.Err(); err != nil && !errors.Is(err, io.EOF) {
		return n, err
	}
	return n, nil
}

// siriusRefPasses times the Figure 10 selection and counting programs of
// the generated parser over data, alternating them for budget, and returns
// the median time of one run of each in reference seconds, scaled by the
// calibration samples taken between them. Counting a corpus in memory takes
// a few milliseconds, so each sample repeats a program until it has run for
// at least refSample.
func siriusRefPasses(budget time.Duration, data []byte) (sel, cnt time.Duration, err error) {
	var sels, cnts []time.Duration
	from := cal.mark()
	t0 := time.Now()
	for len(sels) < 3 || time.Since(t0) < budget {
		cal.sample()
		d, err := repeated(func() error {
			_, err := fig10.PadsSelect(bytes.NewReader(data), io.Discard, selectState)
			return err
		})
		if err != nil {
			return 0, 0, err
		}
		sels = append(sels, d)
		if d, err = repeated(func() error {
			_, err := fig10.PadsCount(bytes.NewReader(data))
			return err
		}); err != nil {
			return 0, 0, err
		}
		cnts = append(cnts, d)
		cal.sample()
	}
	k := cal.scale(from)
	return refTime(median(sels), k), refTime(median(cnts), k), nil
}

const refSample = 200 * time.Millisecond

// repeated runs f until refSample has passed and returns the mean CPU time
// of one run.
func repeated(f func() error) (time.Duration, error) {
	n := 0
	t0, c0 := time.Now(), cpuTime()
	for n == 0 || time.Since(t0) < refSample {
		if err := f(); err != nil {
			return 0, err
		}
		n++
	}
	return cpuTime().Sub(c0) / time.Duration(n), nil
}

// setSourceStats copies the padsrt counters of one pass.
func setSourceStats(v map[string]float64, st *telemetry.Stats) {
	if st == nil {
		return
	}
	s := st.Source
	v["padsrt.bytes_read"] = float64(s.BytesRead)
	v["padsrt.fills"] = float64(s.Fills)
	v["padsrt.compact_bytes"] = float64(s.CompactBytes)
	v["padsrt.checkpoints"] = float64(s.Checkpoints)
	v["padsrt.restores"] = float64(s.Restores)
	v["padsrt.intern_hits"] = float64(s.InternHits)
	v["padsrt.intern_misses"] = float64(s.InternMisses)
	v["padsrt.eor_resyncs"] = float64(s.EORResyncs)
}

func overheadPct(untraced, traced time.Duration) float64 {
	if untraced <= 0 {
		return 0
	}
	return (traced.Seconds()/untraced.Seconds() - 1) * 100
}
