package pads_test

// Cross-path agreement for the segment executor's two callers: the
// in-memory -workers scans (core.AccumulateParallel) and out-of-core jobs
// (segment.Run) must agree with the sequential AccumulateReader and with
// each other — on the records they count, the dead letters they write, and
// the input bytes they report.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pads/internal/accum"
	"pads/internal/core"
	"pads/internal/fault"
	"pads/internal/interp"
	"pads/internal/padsrt"
	"pads/internal/segment"
	"pads/internal/telemetry"
)

func compileSirius(t *testing.T) *core.Description {
	t.Helper()
	desc, err := core.CompileFile("testdata/sirius.pads")
	if err != nil {
		t.Fatal(err)
	}
	return desc
}

// oocRun runs an accumulate-mode out-of-core job over data, written to a
// fresh file, with the given worker count; quar names its quarantine file
// when non-empty.
func oocRun(t *testing.T, desc *core.Description, data []byte, workers int, quar bool, st *telemetry.Stats) (*segment.Report, []byte) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "data")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cfg := segment.Config{
		Interp: desc.Interp, Data: f, DataPath: path, DataSize: int64(len(data)),
		SegSize: segment.MinSegSize, Workers: workers,
		Manifest: filepath.Join(dir, "job.manifest"), AccumCfg: accum.DefaultConfig(), Stats: st,
	}
	if quar {
		cfg.QuarPath = filepath.Join(dir, "job.quar")
	}
	rep, err := segment.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !quar {
		return rep, nil
	}
	q, err := os.ReadFile(cfg.QuarPath)
	if err != nil {
		t.Fatal(err)
	}
	return rep, q
}

// TestCrossPathQuarantineAgreement: a corrupted Sirius corpus, with
// quarantine on and no budgets, gives the same Good/Bad/ErrCounts and a
// byte-identical quarantine JSONL through the sequential reader, the
// in-memory executor at 1/2/4/8 workers, and out-of-core jobs at 1/2/4
// workers.
func TestCrossPathQuarantineAgreement(t *testing.T) {
	benchCorpus(nil)
	desc := compileSirius(t)
	corrupt := fault.Corrupt(siriusData, 41, 0.0005)
	cfg := accum.DefaultConfig()

	var wantQ bytes.Buffer
	desc.Policy = &interp.Policy{Sink: interp.NewQuarantine(&wantQ)}
	want, wantN, err := desc.AccumulateReader(bytes.NewReader(corrupt), nil, cfg)
	desc.Policy = nil
	if err != nil {
		t.Fatal(err)
	}
	if want.Bad == 0 || wantQ.Len() == 0 {
		t.Fatal("corruption produced no bad records; the test would prove nothing")
	}
	check := func(path string, acc *accum.Accum, n int, q []byte) {
		t.Helper()
		if n != wantN || acc.Good != want.Good || acc.Bad != want.Bad || !reflect.DeepEqual(acc.ErrCounts, want.ErrCounts) {
			t.Fatalf("%s: records %d good %d bad %d errs %v, want %d/%d/%d/%v",
				path, n, acc.Good, acc.Bad, acc.ErrCounts, wantN, want.Good, want.Bad, want.ErrCounts)
		}
		if !bytes.Equal(q, wantQ.Bytes()) {
			t.Fatalf("%s: quarantine differs from sequential (%d vs %d bytes)", path, len(q), wantQ.Len())
		}
	}

	for _, workers := range []int{1, 2, 4, 8} {
		var q bytes.Buffer
		desc.Policy = &interp.Policy{Sink: interp.NewQuarantine(&q)}
		acc, n, err := desc.AccumulateParallel(corrupt, nil, cfg, workers)
		desc.Policy = nil
		if err != nil {
			t.Fatalf("in-memory workers=%d: %v", workers, err)
		}
		check(fmt.Sprintf("in-memory workers=%d", workers), acc, n, q.Bytes())
	}
	for _, workers := range []int{1, 2, 4} {
		rep, q := oocRun(t, desc, corrupt, workers, true, nil)
		if rep.Segments < 2 || len(rep.Poisoned) != 0 {
			t.Fatalf("out-of-core workers=%d: %d segments, %d poisoned; want several, none poisoned",
				workers, rep.Segments, len(rep.Poisoned))
		}
		check(fmt.Sprintf("out-of-core workers=%d", workers), rep.Acc, rep.Records, q)
	}
}

// TestBytesReadCountsInputOnce: every path reports each input byte as read
// exactly once — the header probe counts the header, the executor counts
// each segment as it builds the segment's borrowed source.
func TestBytesReadCountsInputOnce(t *testing.T) {
	benchCorpus(nil)
	desc := compileSirius(t)
	cfg := accum.DefaultConfig()
	paths := []struct {
		name string
		run  func(st *telemetry.Stats) error
	}{
		{"AccumulateReader", func(st *telemetry.Stats) error {
			_, _, err := desc.AccumulateReader(bytes.NewReader(siriusData), []padsrt.SourceOption{padsrt.WithStats(st)}, cfg)
			return err
		}},
		{"AccumulateParallel/1", func(st *telemetry.Stats) error {
			_, _, err := desc.AccumulateParallel(siriusData, nil, cfg, 1)
			return err
		}},
		{"AccumulateParallel/4", func(st *telemetry.Stats) error {
			_, _, err := desc.AccumulateParallel(siriusData, nil, cfg, 4)
			return err
		}},
		{"segment.Run/2", func(st *telemetry.Stats) error {
			oocRun(t, desc, siriusData, 2, false, st)
			return nil
		}},
	}
	for _, p := range paths {
		st := telemetry.NewStats()
		desc.Observe(st, nil)
		err := p.run(st)
		desc.Observe(nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if got := st.Source.BytesRead; got != uint64(len(siriusData)) {
			t.Errorf("%s: bytes_read %d, want the input's %d", p.name, got, len(siriusData))
		}
	}
}

// TestParallelHeaderOnlyInput: an input that is only a source header (no
// records region) gives the in-memory executor no segments, and its report
// is the sequential path's.
func TestParallelHeaderOnlyInput(t *testing.T) {
	benchCorpus(nil)
	desc := compileSirius(t)
	header := siriusData[:bytes.IndexByte(siriusData, '\n')+1]
	cfg := accum.DefaultConfig()
	for _, data := range [][]byte{header, nil} {
		seq, seqN, err := desc.AccumulateReader(bytes.NewReader(data), nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		par, parN, err := desc.AccumulateParallel(data, nil, cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		var want, got bytes.Buffer
		seq.Report(&want, "<top>")
		par.Report(&got, "<top>")
		if parN != seqN || got.String() != want.String() {
			t.Fatalf("%d-byte input: parallel %d records, report\n%s\nwant %d records, report\n%s",
				len(data), parN, got.String(), seqN, want.String())
		}
	}
}
