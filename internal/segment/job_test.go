package segment_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"pads/internal/accum"
	"pads/internal/core"
	"pads/internal/fault"
	"pads/internal/interp"
	"pads/internal/padsrt"
	"pads/internal/segment"
	"pads/internal/value"
)

func compileCLF(t *testing.T) *core.Description {
	t.Helper()
	desc, err := core.CompileFile("../../testdata/clf.pads")
	if err != nil {
		t.Fatal(err)
	}
	return desc
}

// clfCorpus builds a deterministic web-log corpus: mostly well-formed lines
// (padded so a few hundred records span several 64 KiB segments), with every
// 13th line damaged so the quarantine and error counts are exercised.
func clfCorpus(n int) []byte {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		if i%13 == 7 {
			fmt.Fprintf(&b, "!!! damaged line %d — not a log record at all\n", i)
			continue
		}
		fmt.Fprintf(&b, "207.136.%d.%d - - [15/Oct/1997:18:%02d:%02d -0700] \"GET /a/%d/%s HTTP/1.0\" %d %d\n",
			i%200+1, i%250+1, i/60%60, i%60, i,
			bytes.Repeat([]byte{'x'}, 180+i%40), 200+i%2*204, i*31%9973)
	}
	return b.Bytes()
}

// runSequential is the in-memory baseline: one source, one record reader,
// one accumulator, quarantine entries captured in order.
func runSequential(t *testing.T, desc *core.Description, data []byte) (report string, quar []byte, records int) {
	t.Helper()
	s := padsrt.NewSource(bytes.NewReader(data), padsrt.WithDiscipline(padsrt.Newline()))
	rr, err := desc.Records(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	var qbuf bytes.Buffer
	rr.SetPolicy(&interp.Policy{Sink: interp.NewQuarantine(&qbuf)})
	acc := accum.New(accum.Config{})
	for rr.More() {
		acc.Add(rr.Read())
		records++
	}
	if err := rr.Err(); err != nil {
		t.Fatal(err)
	}
	var rbuf bytes.Buffer
	acc.Report(&rbuf, "<top>")
	return rbuf.String(), qbuf.Bytes(), records
}

// oocConfig assembles a Config over a data file in dir, with the manifest
// and quarantine named after tag so runs coexist.
func oocConfig(t *testing.T, desc *core.Description, dir, tag string, data []byte, workers int) segment.Config {
	t.Helper()
	dataPath := filepath.Join(dir, "data.log")
	if _, err := os.Stat(dataPath); err != nil {
		if err := os.WriteFile(dataPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(dataPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	return segment.Config{
		Interp:   desc.Interp,
		DescHash: segment.HashBytes([]byte(desc.Source)),
		Data:     f,
		DataPath: dataPath,
		DataSize: st.Size(),
		Source:   []padsrt.SourceOption{padsrt.WithDiscipline(padsrt.Newline())},
		SegSize:  64 << 10,
		Workers:  workers,
		Manifest: filepath.Join(dir, tag+".manifest"),
		QuarPath: filepath.Join(dir, tag+".quar"),
	}
}

func reportString(t *testing.T, rep *segment.Report) string {
	t.Helper()
	var b bytes.Buffer
	rep.Acc.Report(&b, "<top>")
	return b.String()
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestOutOfCoreMatchesSequential: for 1/2/4/8 workers the out-of-core run
// produces a byte-identical quarantine and an identical accumulator report
// versus the plain sequential scan. The corpus keeps every per-field sample
// count under the sketch thresholds so the reports are exactly comparable
// (boundary-dependent sketches are the documented exception at scale).
func TestOutOfCoreMatchesSequential(t *testing.T) {
	desc := compileCLF(t)
	data := clfCorpus(900)
	wantReport, wantQuar, wantRecords := runSequential(t, desc, data)
	if len(wantQuar) == 0 {
		t.Fatal("corpus produced no quarantine entries; the comparison is vacuous")
	}
	for _, workers := range []int{1, 2, 4, 8} {
		dir := t.TempDir()
		cfg := oocConfig(t, desc, dir, fmt.Sprintf("w%d", workers), data, workers)
		rep, err := segment.Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.Segments < 2 {
			t.Fatalf("workers=%d: %d segments — corpus too small to test merging", workers, rep.Segments)
		}
		if rep.Records != wantRecords {
			t.Fatalf("workers=%d: %d records, want %d", workers, rep.Records, wantRecords)
		}
		if got := reportString(t, rep); got != wantReport {
			t.Errorf("workers=%d: accumulator report differs from sequential run", workers)
		}
		if got := readFile(t, cfg.QuarPath); !bytes.Equal(got, wantQuar) {
			t.Errorf("workers=%d: quarantine differs from sequential run (%d vs %d bytes)", workers, len(got), len(wantQuar))
		}
		if len(rep.Poisoned) != 0 {
			t.Errorf("workers=%d: unexpected poisoned segments: %v", workers, rep.Poisoned)
		}
	}
}

// TestWorkerCountBeyondSegments: a job asked for more workers than it has
// segments (padsd passes a client's "workers" through) runs one worker per
// segment and sizes nothing by the requested count. 1<<62 per-worker
// buffers would not even fit the address space.
func TestWorkerCountBeyondSegments(t *testing.T) {
	desc := compileCLF(t)
	data := clfCorpus(300)
	want, _, _ := runSequential(t, desc, data)
	cfg := oocConfig(t, desc, t.TempDir(), "huge", data, 1<<62)
	rep, err := segment.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := reportString(t, rep); got != want {
		t.Error("accumulator report differs from the sequential run")
	}
}

// interruptAfterCommits wires a Cancel hook that trips once the job has
// committed at least n segments — a deterministic stand-in for SIGKILL that
// stops the run with a durable, partial manifest.
func interruptAfterCommits(cfg *segment.Config, n int) {
	var committed atomic.Int64
	cfg.Progress = func(p segment.Progress) { committed.Store(int64(p.Committed)) }
	cfg.Cancel = func() error {
		if committed.Load() >= int64(n) {
			return errors.New("injected crash")
		}
		return nil
	}
}

// TestResumeAfterInterrupt is the seeded kill/resume chaos test: interrupt a
// job mid-run, tear the manifest tail the way a crashed append would
// (internal/fault), resume, and require byte-identical outputs versus an
// uninterrupted run of the same plan.
func TestResumeAfterInterrupt(t *testing.T) {
	desc := compileCLF(t)
	data := clfCorpus(2000)

	base := t.TempDir()
	baseCfg := oocConfig(t, desc, base, "full", data, 4)
	baseRep, err := segment.Run(baseCfg)
	if err != nil {
		t.Fatal(err)
	}
	wantReport := reportString(t, baseRep)
	wantQuar := readFile(t, baseCfg.QuarPath)

	for _, tc := range []struct {
		name string
		seed uint64
		muck func(t *testing.T, manifest string)
	}{
		{"clean-stop", 1, func(*testing.T, string) {}},
		{"torn-manifest", 2, func(t *testing.T, m string) {
			// A crash mid-append tears the manifest line before the sidecar
			// write ever runs (commit fsyncs the manifest first), so the
			// faithful post-crash state is a torn journal tail plus a sidecar
			// from an earlier batch — emulated here as no sidecar at all,
			// which resume replays from zero.
			if err := fault.TearTail(m, 0xfeed); err != nil {
				t.Fatal(err)
			}
			if err := os.Remove(m + ".accum"); err != nil {
				t.Fatal(err)
			}
		}},
		{"lost-sidecar", 3, func(t *testing.T, m string) {
			if err := os.Remove(m + ".accum"); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Interrupt only after two committed segments, so even the torn
			// tail (which can eat the final committed line) leaves at least
			// one segment for resume to skip. One worker makes the interrupt
			// deterministic: the cancel poll at each segment's first record
			// fires before the remaining segments parse (more workers could finish every
			// segment before polling). The resume below uses four workers —
			// the plan, not the worker count, defines the output.
			dir := t.TempDir()
			cfg := oocConfig(t, desc, dir, "job", data, 1)
			interruptAfterCommits(&cfg, 2)
			if _, err := segment.Run(cfg); err == nil {
				t.Fatal("interrupted run reported success")
			}
			tc.muck(t, cfg.Manifest)

			resumed := oocConfig(t, desc, dir, "job", data, 4)
			resumed.Resume = true
			rep, err := segment.Run(resumed)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if rep.Skipped == 0 {
				t.Error("resume re-parsed everything; no committed segments were skipped")
			}
			if got := reportString(t, rep); got != wantReport {
				t.Error("resumed accumulator report differs from uninterrupted run")
			}
			if got := readFile(t, resumed.QuarPath); !bytes.Equal(got, wantQuar) {
				t.Errorf("resumed quarantine differs from uninterrupted run (%d vs %d bytes)", len(got), len(wantQuar))
			}
			info, err := segment.Peek(resumed.Manifest)
			if err != nil {
				t.Fatal(err)
			}
			if !info.Complete {
				t.Error("resumed manifest not finalized")
			}
		})
	}
}

// TestPeekLeavesTornManifest: Peek reads a journal whose last line was cut
// without writing to it. The torn line is ignored, the file keeps every
// byte, and a resume still repairs the tail and finishes the job.
func TestPeekLeavesTornManifest(t *testing.T) {
	desc := compileCLF(t)
	data := clfCorpus(2000)
	dir := t.TempDir()
	cfg := oocConfig(t, desc, dir, "job", data, 1)
	interruptAfterCommits(&cfg, 2)
	if _, err := segment.Run(cfg); err == nil {
		t.Fatal("interrupted run reported success")
	}
	f, err := os.OpenFile(cfg.Manifest, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"seg","index":`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before := readFile(t, cfg.Manifest)

	info, err := segment.Peek(cfg.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	if info.Complete || info.Committed < 2 {
		t.Errorf("torn manifest reads as %+v, want an incomplete job with its commits", info)
	}
	if after := readFile(t, cfg.Manifest); !bytes.Equal(after, before) {
		t.Fatalf("Peek changed the manifest: %d bytes before, %d after", len(before), len(after))
	}

	resumed := oocConfig(t, desc, dir, "job", data, 2)
	resumed.Resume = true
	if _, err := segment.Run(resumed); err != nil {
		t.Fatalf("resume of a peeked torn manifest: %v", err)
	}
	if info, err := segment.Peek(resumed.Manifest); err != nil || !info.Complete {
		t.Fatalf("resumed manifest: %+v, %v", info, err)
	}
}

// TestResumeQuarantinePathFromManifest: the manifest's quarantine path wins
// over the resuming caller's, so a resume that names none (a bare
// `-resume MANIFEST`) still appends the rest of the dead letters.
func TestResumeQuarantinePathFromManifest(t *testing.T) {
	desc := compileCLF(t)
	data := clfCorpus(2000)
	full := oocConfig(t, desc, t.TempDir(), "full", data, 2)
	if _, err := segment.Run(full); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := oocConfig(t, desc, dir, "job", data, 1)
	interruptAfterCommits(&cfg, 2)
	if _, err := segment.Run(cfg); err == nil {
		t.Fatal("interrupted run reported success")
	}
	resumed := oocConfig(t, desc, dir, "job", data, 2)
	resumed.Resume, resumed.QuarPath = true, ""
	if _, err := segment.Run(resumed); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got, want := readFile(t, cfg.QuarPath), readFile(t, full.QuarPath); !bytes.Equal(got, want) {
		t.Fatalf("resumed quarantine differs from uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}
}

// TestResumeCompletedJob: resuming a finalized manifest re-reports without
// touching (or truncating) any output.
func TestResumeCompletedJob(t *testing.T) {
	desc := compileCLF(t)
	data := clfCorpus(600)
	dir := t.TempDir()
	cfg := oocConfig(t, desc, dir, "job", data, 2)
	rep1, err := segment.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	quar1 := readFile(t, cfg.QuarPath)

	again := oocConfig(t, desc, dir, "job", data, 2)
	again.Resume = true
	rep2, err := segment.Run(again)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Records != rep1.Records || rep2.Errored != rep1.Errored {
		t.Fatalf("re-report (%d, %d) != original (%d, %d)", rep2.Records, rep2.Errored, rep1.Records, rep1.Errored)
	}
	if rep2.Skipped != rep1.Segments {
		t.Fatalf("re-report skipped %d of %d segments", rep2.Skipped, rep1.Segments)
	}
	if got := reportString(t, rep2); got != reportString(t, rep1) {
		t.Error("re-reported accumulator differs")
	}
	if got := readFile(t, again.QuarPath); !bytes.Equal(got, quar1) {
		t.Error("re-report modified the quarantine file")
	}
}

// TestFreshRunRefusesExistingManifest: starting over requires removing the
// manifest explicitly — a fresh run never clobbers a journal, and the
// refusal must fire before the quarantine/output files are touched: a
// truncate-then-refuse would destroy the committed outputs the manifest
// still vouches for.
func TestFreshRunRefusesExistingManifest(t *testing.T) {
	desc := compileCLF(t)
	data := clfCorpus(600)
	dir := t.TempDir()
	cfg := oocConfig(t, desc, dir, "job", data, 2)
	rep1, err := segment.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	quar1 := readFile(t, cfg.QuarPath)
	if len(quar1) == 0 {
		t.Fatal("corpus produced no quarantine bytes; the clobber check is vacuous")
	}

	cfg2 := oocConfig(t, desc, dir, "job", data, 2)
	_, err = segment.Run(cfg2)
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("already exists")) {
		t.Fatalf("expected an already-exists refusal, got %v", err)
	}
	if got := readFile(t, cfg.QuarPath); !bytes.Equal(got, quar1) {
		t.Fatalf("refused fresh run modified the quarantine file (%d vs %d bytes)", len(got), len(quar1))
	}

	// The job is still intact: a resume re-reports the original answer.
	again := oocConfig(t, desc, dir, "job", data, 2)
	again.Resume = true
	rep2, err := segment.Run(again)
	if err != nil {
		t.Fatal(err)
	}
	if got := reportString(t, rep2); got != reportString(t, rep1) {
		t.Error("re-report after the refused fresh run differs from the original")
	}
}

// TestResumeRefusesShortenedOutputs: a resume whose quarantine file is
// shorter than the manifest's committed frontier must fail — truncating up
// to the frontier would silently extend the file with NUL bytes in place of
// the committed entries.
func TestResumeRefusesShortenedOutputs(t *testing.T) {
	desc := compileCLF(t)
	data := clfCorpus(2000)
	dir := t.TempDir()
	cfg := oocConfig(t, desc, dir, "job", data, 1)
	interruptAfterCommits(&cfg, 2)
	if _, err := segment.Run(cfg); err == nil {
		t.Fatal("interrupted run reported success")
	}
	if err := os.Truncate(cfg.QuarPath, 0); err != nil {
		t.Fatal(err)
	}
	resumed := oocConfig(t, desc, dir, "job", data, 2)
	resumed.Resume = true
	_, err := segment.Run(resumed)
	if err == nil || !strings.Contains(err.Error(), "truncated or replaced") {
		t.Fatalf("resume over a shortened quarantine file: got %v", err)
	}
}

// stripDoneLine rewrites a finalized manifest without its done line,
// reconstructing the journal state of a crash that landed after the final
// batch's manifest append but before finalize.
func stripDoneLine(t *testing.T, path string) {
	t.Helper()
	var keep []byte
	for _, ln := range bytes.Split(readFile(t, path), []byte("\n")) {
		if len(ln) == 0 || bytes.Contains(ln, []byte(`"kind":"done"`)) {
			continue
		}
		keep = append(append(keep, ln...), '\n')
	}
	if err := os.WriteFile(path, keep, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestResumeWithStaleSidecarBeforeFinalize: a crash between the final
// batch's manifest append and its sidecar write leaves every segment
// committed with the sidecar a batch behind (here: gone entirely). The
// resume that finalizes such a job must leave a caught-up sidecar behind,
// so later re-reports serve the full accumulator without replaying.
func TestResumeWithStaleSidecarBeforeFinalize(t *testing.T) {
	desc := compileCLF(t)
	data := clfCorpus(900)
	dir := t.TempDir()
	cfg := oocConfig(t, desc, dir, "job", data, 2)
	rep1, err := segment.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := reportString(t, rep1)

	stripDoneLine(t, cfg.Manifest)
	if err := os.Remove(cfg.Manifest + ".accum"); err != nil {
		t.Fatal(err)
	}

	resumed := oocConfig(t, desc, dir, "job", data, 2)
	resumed.Resume = true
	rep2, err := segment.Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Replayed != rep1.Segments {
		t.Errorf("resume replayed %d of %d committed segments", rep2.Replayed, rep1.Segments)
	}
	if got := reportString(t, rep2); got != want {
		t.Error("resumed accumulator report differs from the uninterrupted run")
	}

	again := oocConfig(t, desc, dir, "job", data, 2)
	again.Resume = true
	rep3, err := segment.Run(again)
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Replayed != 0 {
		t.Errorf("re-report replayed %d segments; finalize left a stale sidecar", rep3.Replayed)
	}
	if got := reportString(t, rep3); got != want {
		t.Error("re-reported accumulator differs from the uninterrupted run")
	}
}

// TestCompletedJobMissingSidecarRepaired: re-reporting a finalized job whose
// sidecar was lost (or left a batch behind by a crash between the final
// append and finalize) replays the uncovered segments accumulator-only and
// repairs the sidecar, instead of erroring or silently serving a short
// accumulator.
func TestCompletedJobMissingSidecarRepaired(t *testing.T) {
	desc := compileCLF(t)
	data := clfCorpus(900)
	dir := t.TempDir()
	cfg := oocConfig(t, desc, dir, "job", data, 2)
	rep1, err := segment.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := reportString(t, rep1)
	if err := os.Remove(cfg.Manifest + ".accum"); err != nil {
		t.Fatal(err)
	}

	resumed := oocConfig(t, desc, dir, "job", data, 2)
	resumed.Resume = true
	rep2, err := segment.Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Replayed != rep1.Segments {
		t.Errorf("repair replayed %d of %d segments", rep2.Replayed, rep1.Segments)
	}
	if got := reportString(t, rep2); got != want {
		t.Error("repaired accumulator report differs from the original run")
	}

	// The repair is durable: the next re-report reads the rewritten sidecar.
	again := oocConfig(t, desc, dir, "job", data, 2)
	again.Resume = true
	rep3, err := segment.Run(again)
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Replayed != 0 {
		t.Errorf("second re-report replayed %d segments; the sidecar repair did not land", rep3.Replayed)
	}
	if got := reportString(t, rep3); got != want {
		t.Error("second re-report differs from the original run")
	}
}

// TestPoisonedSegmentIsolation: a segment that exhausts its error budget is
// poisoned and reported, while the job completes and keeps every healthy
// segment's records — the per-segment fault isolation contract.
func TestPoisonedSegmentIsolation(t *testing.T) {
	desc := compileCLF(t)
	good := clfCorpus(600)
	var garbage bytes.Buffer
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&garbage, "@@@ corrupted block %d %s\n", i, bytes.Repeat([]byte{'?'}, 30))
	}
	data := append(append(append([]byte{}, good...), garbage.Bytes()...), good...)

	dir := t.TempDir()
	cfg := oocConfig(t, desc, dir, "job", data, 4)
	cfg.Policy = &interp.Policy{MaxErrors: 50}
	rep, err := segment.Run(cfg)
	if err != nil {
		t.Fatalf("poisoned segments must not abort the job: %v", err)
	}
	if len(rep.Poisoned) == 0 {
		t.Fatal("no poisoned segments; the garbage region should have tripped the budget")
	}
	if len(rep.Poisoned) == rep.Segments {
		t.Fatal("every segment poisoned; isolation test needs healthy segments too")
	}
	if rep.Records < 1000 {
		t.Fatalf("only %d records survived; healthy segments should be intact", rep.Records)
	}
	for _, p := range rep.Poisoned {
		if p.Reason == "" {
			t.Errorf("poisoned segment %d has no reason", p.Index)
		}
	}
	info, err := segment.Peek(cfg.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Complete {
		t.Error("job with poisoned segments did not finalize its manifest")
	}
	if info.Poisoned != len(rep.Poisoned) {
		t.Errorf("manifest records %d poisoned segments, report %d", info.Poisoned, len(rep.Poisoned))
	}

	// A resume of the completed job must not re-parse poisoned segments
	// into different totals.
	again := oocConfig(t, desc, dir, "job", data, 4)
	again.Resume = true
	rep2, err := segment.Run(again)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Records != rep.Records || len(rep2.Poisoned) != len(rep.Poisoned) {
		t.Errorf("re-report (%d records, %d poisoned) != original (%d, %d)",
			rep2.Records, len(rep2.Poisoned), rep.Records, len(rep.Poisoned))
	}
}

// setLineEmitter switches a config to emit mode with a trivial one-line-per-
// record renderer bracketed by prologue/epilogue markers, standing in for
// the padsxml/padsfmt emitters.
func setLineEmitter(cfg *segment.Config, outPath string) {
	cfg.Mode = "lines"
	cfg.OutPath = outPath
	cfg.EmitPrologue = func(out *bytes.Buffer, _ value.Value) { out.WriteString("BEGIN\n") }
	cfg.Emit = func(out *bytes.Buffer, v value.Value) {
		fmt.Fprintf(out, "rec nerr=%d\n", v.PD().Nerr)
	}
	cfg.EmitEpilogue = func(out *bytes.Buffer) { out.WriteString("END\n") }
}

// TestEmitModeResume: emit-mode jobs (padsxml/padsfmt) resume to
// byte-identical output, including the epilogue.
func TestEmitModeResume(t *testing.T) {
	desc := compileCLF(t)
	data := clfCorpus(1200)

	base := t.TempDir()
	baseCfg := oocConfig(t, desc, base, "full", data, 4)
	setLineEmitter(&baseCfg, filepath.Join(base, "full.out"))
	if _, err := segment.Run(baseCfg); err != nil {
		t.Fatal(err)
	}
	want := readFile(t, baseCfg.OutPath)
	if len(want) == 0 {
		t.Fatal("emit run produced no output")
	}

	// One worker: the cancel pre-check before each segment parse fires
	// deterministically once the first commit lands (more workers could race
	// through every remaining segment before polling).
	dir := t.TempDir()
	cfg := oocConfig(t, desc, dir, "job", data, 1)
	setLineEmitter(&cfg, filepath.Join(dir, "job.out"))
	interruptAfterCommits(&cfg, 1)
	if _, err := segment.Run(cfg); err == nil {
		t.Fatal("interrupted run reported success")
	}

	resumed := oocConfig(t, desc, dir, "job", data, 4)
	setLineEmitter(&resumed, filepath.Join(dir, "job.out"))
	resumed.Resume = true
	if _, err := segment.Run(resumed); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, resumed.OutPath); !bytes.Equal(got, want) {
		t.Errorf("resumed emit output differs (%d vs %d bytes)", len(got), len(want))
	}
}
