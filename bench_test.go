package pads_test

// The benchmark harness: one benchmark per evaluation artifact of the paper
// (see DESIGN.md's experiment index) plus the ablations it motivates.
//
//	go test -bench=. -benchmem .
//
// E10 (Figure 10): BenchmarkFig10_* — generated-parser vetting/selection vs
// the Perl-equivalent baselines. The paper reports PADS 2.03x faster on
// vetting and 1.23x on selection.
// E11 (section 7): BenchmarkCountRecords_* — the 81s-vs-124s baseline
// (PADS 1.53x faster).
// A1/A2/A3: compiled-vs-interpreted parsing, mask cost, accumulator cost.

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"

	"pads/internal/accum"
	"pads/internal/baseline"
	"pads/internal/core"
	"pads/internal/datagen"
	"pads/internal/fig10"
	"pads/internal/gen/clf"
	"pads/internal/gen/sirius"
	"pads/internal/gen/siriusset"
	"pads/internal/padsrt"
	"pads/internal/telemetry/prof"
)

const benchRecords = 20000

var (
	benchOnce   sync.Once
	siriusData  []byte
	siriusClean []byte
	clfData     []byte
	benchState  = datagen.StateName(0)
)

func benchCorpus(b *testing.B) {
	if b != nil {
		b.Helper()
	}
	benchOnce.Do(func() {
		var buf bytes.Buffer
		if _, err := datagen.Sirius(&buf, datagen.DefaultSirius(benchRecords)); err != nil {
			panic(err)
		}
		siriusData = buf.Bytes()
		var cleanBuf bytes.Buffer
		if _, err := fig10.PadsVet(bytes.NewReader(siriusData), &cleanBuf, io.Discard); err != nil {
			panic(err)
		}
		siriusClean = cleanBuf.Bytes()
		var cbuf bytes.Buffer
		if _, err := datagen.CLF(&cbuf, datagen.DefaultCLF(benchRecords)); err != nil {
			panic(err)
		}
		clfData = cbuf.Bytes()
	})
}

// ---- E10: Figure 10 ----

func BenchmarkFig10_PadsVet(b *testing.B) {
	benchCorpus(b)
	b.SetBytes(int64(len(siriusData)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := fig10.PadsVet(bytes.NewReader(siriusData), io.Discard, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10_PerlVet(b *testing.B) {
	benchCorpus(b)
	b.SetBytes(int64(len(siriusData)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.SiriusVet(bytes.NewReader(siriusData), io.Discard, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10_PadsSelect(b *testing.B) {
	benchCorpus(b)
	b.SetBytes(int64(len(siriusClean)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := fig10.PadsSelect(bytes.NewReader(siriusClean), io.Discard, benchState); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10_PerlSelect(b *testing.B) {
	benchCorpus(b)
	b.SetBytes(int64(len(siriusClean)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.SiriusSelect(bytes.NewReader(siriusClean), io.Discard, benchState); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E11: the record-counting baseline ----

func BenchmarkCountRecords_Pads(b *testing.B) {
	benchCorpus(b)
	b.SetBytes(int64(len(siriusClean)))
	for i := 0; i < b.N; i++ {
		if _, err := fig10.PadsCount(bytes.NewReader(siriusClean)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCountRecords_Perl(b *testing.B) {
	benchCorpus(b)
	b.SetBytes(int64(len(siriusClean)))
	for i := 0; i < b.N; i++ {
		if _, err := baseline.CountRecords(bytes.NewReader(siriusClean)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- A1: compiled vs interpreted parsing (section 1 motivates compiling
// descriptions "rather than simply interpret[ing]" them) ----

func BenchmarkAblation_CompiledVsInterp_Compiled(b *testing.B) {
	benchCorpus(b)
	b.SetBytes(int64(len(siriusClean)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := padsrt.NewBytesSource(siriusClean)
		var hdr sirius.Summary_header_t
		var hdrPD sirius.Summary_header_tPD
		sirius.ReadSummary_header_t(s, nil, &hdrPD, &hdr)
		var e sirius.Entry_t
		var epd sirius.Entry_tPD
		for s.More() {
			sirius.ReadEntry_t(s, nil, &epd, &e)
		}
	}
}

func BenchmarkAblation_CompiledVsInterp_Interp(b *testing.B) {
	benchCorpus(b)
	desc, err := core.CompileFile("testdata/sirius.pads")
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(siriusClean)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := padsrt.NewBytesSource(siriusClean)
		rr, err := desc.Records(s, nil)
		if err != nil {
			b.Fatal(err)
		}
		for rr.More() {
			rr.Read()
		}
	}
}

// ---- Profiler overhead (docs/OBSERVABILITY.md): an attached-but-idle ----
// ---- profiler must be free; sampling cost must scale with 1/Every.   ----

func benchInterpProfiled(b *testing.B, mk func() *prof.Profiler) {
	benchCorpus(b)
	desc, err := core.CompileFile("testdata/sirius.pads")
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(siriusClean)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := mk()
		desc.ObserveProf(p)
		s := padsrt.NewBytesSource(siriusClean, padsrt.WithProf(p))
		rr, err := desc.Records(s, nil)
		if err != nil {
			b.Fatal(err)
		}
		for rr.More() {
			rr.Read()
		}
	}
}

func BenchmarkProfiler_Disabled(b *testing.B) {
	benchInterpProfiled(b, func() *prof.Profiler { return nil })
}

func BenchmarkProfiler_SampleAll(b *testing.B) {
	benchInterpProfiled(b, func() *prof.Profiler { return prof.New(prof.Options{}) })
}

func BenchmarkProfiler_Sample64(b *testing.B) {
	benchInterpProfiled(b, func() *prof.Profiler { return prof.New(prof.Options{Every: 64}) })
}

// ---- A2: mask cost (the run-time knob masks exist to control) ----

func benchMask(b *testing.B, mask *sirius.Entry_tMask) {
	benchCorpus(b)
	b.SetBytes(int64(len(siriusClean)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := padsrt.NewBytesSource(siriusClean)
		var hdr sirius.Summary_header_t
		var hdrPD sirius.Summary_header_tPD
		sirius.ReadSummary_header_t(s, nil, &hdrPD, &hdr)
		var e sirius.Entry_t
		var epd sirius.Entry_tPD
		for s.More() {
			sirius.ReadEntry_t(s, mask, &epd, &e)
		}
	}
}

func BenchmarkAblation_Mask_CheckAndSet(b *testing.B) {
	benchMask(b, sirius.NewEntry_tMask(padsrt.CheckAndSet))
}

func BenchmarkAblation_Mask_SetOnly(b *testing.B) {
	benchMask(b, sirius.NewEntry_tMask(padsrt.Set))
}

func BenchmarkAblation_Mask_Ignore(b *testing.B) {
	benchMask(b, sirius.NewEntry_tMask(padsrt.Ignore))
}

// ---- A3: accumulator overhead (section 5.2) ----

func BenchmarkAblation_Accum_ParseOnly(b *testing.B) {
	benchCorpus(b)
	b.SetBytes(int64(len(clfData)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := padsrt.NewBytesSource(clfData)
		var e clf.Entry_t
		var epd clf.Entry_tPD
		for s.More() {
			clf.ReadEntry_t(s, nil, &epd, &e)
		}
	}
}

func BenchmarkAblation_Accum_ParseAndAccumulate(b *testing.B) {
	benchCorpus(b)
	b.SetBytes(int64(len(clfData)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := padsrt.NewBytesSource(clfData)
		acc := accum.New(accum.DefaultConfig())
		var e clf.Entry_t
		var epd clf.Entry_tPD
		for s.More() {
			clf.ReadEntry_t(s, nil, &epd, &e)
			acc.Add(clf.Entry_tToValue(&e, &epd))
		}
	}
}

// ---- supporting micro-benchmarks ----

func BenchmarkCLFParse_Compiled(b *testing.B) {
	benchCorpus(b)
	b.SetBytes(int64(len(clfData)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := padsrt.NewBytesSource(clfData)
		var e clf.Entry_t
		var epd clf.Entry_tPD
		for s.More() {
			clf.ReadEntry_t(s, nil, &epd, &e)
		}
	}
}

func BenchmarkWriteBack_Sirius(b *testing.B) {
	benchCorpus(b)
	s := padsrt.NewBytesSource(siriusClean)
	var hdr sirius.Summary_header_t
	var hdrPD sirius.Summary_header_tPD
	sirius.ReadSummary_header_t(s, nil, &hdrPD, &hdr)
	var entries []sirius.Entry_t
	for s.More() {
		var e sirius.Entry_t
		var epd sirius.Entry_tPD
		sirius.ReadEntry_t(s, nil, &epd, &e)
		entries = append(entries, e)
	}
	b.SetBytes(int64(len(siriusClean)))
	b.ReportAllocs()
	b.ResetTimer()
	var out []byte
	for i := 0; i < b.N; i++ {
		out = out[:0]
		out = sirius.WriteSummary_header_t(out, &hdr)
		for j := range entries {
			out = sirius.WriteEntry_t(out, &entries[j])
		}
	}
}

// ---- E13: record-sharded parallel parsing (segment.Exec) ----
//
// The vetting task of E10 sharded across worker goroutines; workers=1 is
// the parallel engine's overhead floor against BenchmarkFig10_PadsVet.
// Speedup expectations only hold on multi-core machines — see the E13
// entry in EXPERIMENTS.md for measured curves.

func BenchmarkParallel_Sirius(b *testing.B) {
	benchCorpus(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(len(siriusData)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := fig10.PadsVetParallel(siriusData, io.Discard, io.Discard, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- A4: mask partial evaluation (§9 application-specific customization:
// the parser specialized at compile time to Set — "all error checking
// off" — vs the same mask applied at run time) ----

func BenchmarkAblation_Specialized_RuntimeSetMask(b *testing.B) {
	benchMask(b, sirius.NewEntry_tMask(padsrt.Set))
}

func BenchmarkAblation_Specialized_CompiledSetMask(b *testing.B) {
	benchCorpus(b)
	b.SetBytes(int64(len(siriusClean)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := padsrt.NewBytesSource(siriusClean)
		var hdr siriusset.Summary_header_t
		var hdrPD siriusset.Summary_header_tPD
		siriusset.ReadSummary_header_t(s, nil, &hdrPD, &hdr)
		var e siriusset.Entry_t
		var epd siriusset.Entry_tPD
		for s.More() {
			siriusset.ReadEntry_t(s, nil, &epd, &e)
		}
	}
}
