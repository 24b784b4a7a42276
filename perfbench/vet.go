package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"time"

	"pads/internal/fig10"
	"pads/internal/padsrt"
	"pads/internal/telemetry"
)

// siriusVetRecords sizes the sirius-vet corpus (about 35 MB, as in the
// reference figures): the generated parser vets it in a few tenths of a
// second, far above the 20 ms passes of the padsbench trajectory.
const siriusVetRecords = 190000

// runSiriusVet is the Figure 10 path: the generated Sirius parser vets the
// raw corpus, selects from the clean file, and counts the raw corpus. No VM
// and almost no value construction: padsrt dominates.
func runSiriusVet(e *env) (*outcome, error) {
	raw, st, err := genSirius(e.seed, siriusVetRecords)
	if err != nil {
		return nil, err
	}
	// The generated parser is compiled in; core.Compile is timed for the
	// per-layer report only, as every workload reports it.
	_, compileDur, err := compile(siriusDescPath)
	if err != nil {
		return nil, err
	}
	var o vetOutput
	var clean, sel bytes.Buffer
	if o, _, _, _, err = vetRound(raw, &clean, &sel, nil, [3]*telemetry.Stats{}); err != nil { // warm-up
		return nil, err
	}
	setup := timedSetup()
	from := cal.mark()
	fmt.Fprintf(e.log, "sirius-vet: %d records, %d bytes raw, %d clean, setup %.2fs\n", st.Records, len(raw), clean.Len(), setup.Seconds())

	out := &outcome{}
	var vets, sels, cnts []time.Duration
	var mem memSnap
	timedRounds := func(budget time.Duration, tr *tracer, each func(tele [3]*telemetry.Stats)) error {
		var err error
		var times []time.Duration
		times, mem, err = passes(budget, 3, func() error {
			var tele [3]*telemetry.Stats
			if tr != nil {
				tr.reset()
				tele = [3]*telemetry.Stats{telemetry.NewStats(), telemetry.NewStats(), telemetry.NewStats()}
			}
			var v, s, c time.Duration
			var err error
			if o, v, s, c, err = vetRound(raw, &clean, &sel, tr, tele); err != nil {
				return err
			}
			vets, sels, cnts = append(vets, v), append(sels, s), append(cnts, c)
			if each != nil {
				each(tele)
			}
			return nil
		})
		out.attempted += 3 * len(times)
		return err
	}
	// A round is three program runs; passes counts rounds.
	if !e.trace {
		if err := timedRounds(e.seconds, nil, nil); err != nil {
			return nil, err
		}
		rounds := len(vets)
		k := cal.scale(from)
		out.values = map[string]float64{
			"setup_s":         setup.Seconds(),
			"throughput_mb_s": mbPerSec(int64(len(raw)), refTime(median(vets), k)),
			"select_mb_s":     mbPerSec(int64(len(clean.Bytes())), refTime(median(sels), k)),
			"count_mb_s":      mbPerSec(int64(len(raw)), refTime(median(cnts), k)),
			// Allocations per record vetted, over whole rounds.
			"allocs_per_record":      float64(mem.mallocs) / float64(rounds*st.Records),
			"alloc_bytes_per_record": float64(mem.bytes) / float64(rounds*st.Records),
			"peak_rss_mb":            rss.peak(),
			"latency_p50_ms":         ms(refTime(median(vets), k)),
			"latency_p99_ms":         ms(refTime(percentile(vets, 99), k)),
		}
	} else {
		v := layerDefaults()
		v["core.compile_ms"] = ms(compileDur)
		if err := timedRounds(e.seconds/2, nil, nil); err != nil {
			return nil, err
		}
		untracedVet := refTime(median(vets), cal.scale(from))
		from := cal.mark()
		vets = nil
		tr := newTracer()
		var readS []time.Duration
		var first *telemetry.Stats
		err := timedRounds(e.seconds/2, tr, func(tele [3]*telemetry.Stats) {
			// padsrt.read spans of the vetting run only: it is the pass
			// the per-layer padsrt metrics describe.
			readS = append(readS, tr.total("padsrt.read.vet"))
			for i, want := range []int{len(raw), clean.Len(), len(raw)} {
				if got := tele[i].Source.BytesRead; got != uint64(want) {
					out.check(fmt.Errorf("sirius-vet: program %d read %d bytes of a %d byte input", i, got, want))
				}
			}
			if first == nil {
				first = tele[0]
			}
		})
		if err != nil {
			return nil, err
		}
		setSourceStats(v, first)
		v["padsrt.read_s"] = median(readS).Seconds()
		v["runtime.gc_cycles"] = float64(mem.gcs) / float64(len(vets))
		v["runtime.gc_pause_ms"] = float64(mem.pauseNS) / 1e6 / float64(len(vets))
		tracedVet := refTime(median(vets), cal.scale(from))
		v["trace.throughput_mb_s"] = mbPerSec(int64(len(raw)), tracedVet)
		v["trace.overhead_pct"] = overheadPct(untracedVet, tracedVet)
		out.values = v
		if err := tr.write(e.spans); err != nil {
			return nil, err
		}
	}

	truth, err := newVetTruth(raw, st)
	if err != nil {
		return nil, err
	}
	o.cleanFile, o.selected = clean.Bytes(), sel.Bytes()
	out.check(checkSiriusVet(o, truth))
	return out, nil
}

// vetRound runs the three Figure 10 programs once: vetting the raw corpus
// into clean, selecting from clean into sel, and counting the raw corpus.
// It returns their counts and the CPU time of each.
func vetRound(raw []byte, clean, sel *bytes.Buffer, tr *tracer, tele [3]*telemetry.Stats) (o vetOutput, vet, sl, cnt time.Duration, err error) {
	t0 := cpuTime()
	clean.Reset()
	tr.start("gen.vet")
	vs, err := fig10.PadsVetSource(vetSource(raw, tr, "padsrt.read.vet", tele[0]), clean, io.Discard)
	tr.stop()
	if err != nil {
		return
	}
	t1 := cpuTime()
	sel.Reset()
	tr.start("gen.select")
	_, err = fig10.PadsSelectSource(vetSource(clean.Bytes(), tr, "padsrt.read.select", tele[1]), sel, selectState)
	tr.stop()
	if err != nil {
		return
	}
	t2 := cpuTime()
	tr.start("gen.count")
	o.count, err = fig10.PadsCountSource(vetSource(raw, tr, "padsrt.read.count", tele[2]))
	tr.stop()
	if err != nil {
		return
	}
	t3 := cpuTime()
	o.records, o.clean, o.errors = vs.Records, vs.Clean, vs.Errors
	return o, t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), nil
}

// vetSource is the Source a Figure 10 program reads: the same 1 MB buffered
// reader fig10.PadsVet builds, read through a tracedReader and counted when
// traced.
func vetSource(data []byte, tr *tracer, span string, tele *telemetry.Stats) *padsrt.Source {
	var r io.Reader = bufio.NewReaderSize(bytes.NewReader(data), 1<<20)
	if tr == nil {
		return padsrt.NewSource(r)
	}
	return padsrt.NewSource(&tracedReader{r: r, t: tr, name: span}, padsrt.WithStats(tele))
}
