package pads_test

// End-to-end fault-tolerance tests (docs/ROBUSTNESS.md): the runtime
// invariants under injected faults are that nothing panics, transient read
// errors are survivable with retries and sticky without, data corruption
// stays localized in parse descriptors, dead-letter output is byte-identical
// at any worker count, and error budgets abort scans deterministically.

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"pads/internal/accum"
	"pads/internal/core"
	"pads/internal/fault"
	"pads/internal/interp"
	"pads/internal/padsrt"
	"pads/internal/segment"
	"pads/internal/telemetry"
)

func compileCLF(t *testing.T) *core.Description {
	t.Helper()
	desc, err := core.CompileFile("testdata/clf.pads")
	if err != nil {
		t.Fatal(err)
	}
	return desc
}

// TestFaultTransientRetryMatchesClean: a reader that injects short reads
// and transient errors must — with retries enabled — produce exactly the
// run a clean reader produces: same record count, same accumulator report.
func TestFaultTransientRetryMatchesClean(t *testing.T) {
	benchCorpus(nil)
	desc := compileCLF(t)
	cfg := accum.DefaultConfig()

	cleanAcc, cleanN, err := desc.AccumulateReader(bytes.NewReader(clfData), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}

	faulty := fault.NewReader(bytes.NewReader(clfData),
		fault.Config{Seed: 7, ShortReadProb: 0.3, TransientProb: 0.3})
	opts := []padsrt.SourceOption{padsrt.WithRetry(8, 0)}
	gotAcc, gotN, err := desc.AccumulateReader(faulty, opts, cfg)
	if err != nil {
		t.Fatalf("faulty reader with retries: %v", err)
	}
	if gotN != cleanN {
		t.Fatalf("records = %d, want %d", gotN, cleanN)
	}
	var want, got bytes.Buffer
	cleanAcc.Report(&want, "<top>")
	gotAcc.Report(&got, "<top>")
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("accumulator report differs between clean and retried-faulty runs")
	}
}

// TestFaultTransientNoRetrySticky: without retries the first transient
// read error surfaces as a sticky Source error — the scan stops early and
// reports it; nothing panics.
func TestFaultTransientNoRetrySticky(t *testing.T) {
	benchCorpus(nil)
	desc := compileCLF(t)

	faulty := fault.NewReader(bytes.NewReader(clfData),
		fault.Config{Seed: 7, TransientProb: 1, MaxTransientRun: 1})
	_, n, err := desc.AccumulateReader(faulty, nil, accum.DefaultConfig())
	if err == nil {
		t.Fatal("transient failure without retries did not surface")
	}
	if !padsrt.IsTransient(err) {
		t.Fatalf("err = %v, not recognized as transient", err)
	}
	if n > 0 {
		// The first read already failed; no records can have been parsed.
		t.Fatalf("parsed %d records past a failed first read", n)
	}
}

// TestCorruptionLocalizedDeterministic: flipping bytes inside record bodies
// (newlines preserved) must keep errors inside per-record parse descriptors
// — the scan completes — and the dead-letter stream must be byte-identical
// across repeated runs and across worker counts.
func TestCorruptionLocalizedDeterministic(t *testing.T) {
	benchCorpus(nil)
	desc := compileCLF(t)
	corrupt := fault.CorruptKeeping(clfData, 11, 0.0005, '\n')
	if bytes.Equal(corrupt, clfData) {
		t.Fatal("corruption flipped nothing; the test would prove nothing")
	}
	cfg := accum.DefaultConfig()

	scanSeq := func() ([]byte, int) {
		var q bytes.Buffer
		desc.Policy = &interp.Policy{Sink: interp.NewQuarantine(&q)}
		defer func() { desc.Policy = nil }()
		_, n, err := desc.AccumulateReader(bytes.NewReader(corrupt), nil, cfg)
		if err != nil {
			t.Fatalf("sequential scan of corrupted data failed hard: %v", err)
		}
		return q.Bytes(), n
	}
	wantQ, wantN := scanSeq()
	if len(wantQ) == 0 {
		t.Fatal("no records quarantined despite corruption")
	}
	gotQ, gotN := scanSeq()
	if !bytes.Equal(wantQ, gotQ) || gotN != wantN {
		t.Fatal("repeated sequential scans diverged")
	}

	for _, workers := range []int{1, 4} {
		var q bytes.Buffer
		desc.Policy = &interp.Policy{Sink: interp.NewQuarantine(&q)}
		_, n, err := desc.AccumulateParallel(corrupt, nil, cfg, workers)
		desc.Policy = nil
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if n != wantN {
			t.Fatalf("workers=%d: %d records, want %d", workers, n, wantN)
		}
		if !bytes.Equal(q.Bytes(), wantQ) {
			t.Fatalf("workers=%d: quarantine stream differs from sequential (%d vs %d bytes)",
				workers, q.Len(), len(wantQ))
		}
	}
}

// TestErrorBudgetAborts: budgets trip deterministically — fail-fast on the
// first errored record, max-errors at the threshold — and surface as
// *BudgetError on both the sequential and the parallel path.
func TestErrorBudgetAborts(t *testing.T) {
	benchCorpus(nil)
	desc := compileCLF(t)
	corrupt := fault.CorruptKeeping(clfData, 11, 0.0005, '\n')
	cfg := accum.DefaultConfig()

	desc.Policy = &interp.Policy{FailFast: true}
	_, _, err := desc.AccumulateReader(bytes.NewReader(corrupt), nil, cfg)
	var be *interp.BudgetError
	if !errors.As(err, &be) || be.Errored != 1 {
		t.Fatalf("fail-fast: err = %v, want BudgetError with Errored=1", err)
	}

	desc.Policy = &interp.Policy{MaxErrors: 3}
	_, _, err = desc.AccumulateReader(bytes.NewReader(corrupt), nil, cfg)
	if !errors.As(err, &be) || be.Errored != 3 {
		t.Fatalf("max-errors=3 sequential: err = %v, want BudgetError with Errored=3", err)
	}

	// Parallel budgets are enforced on merged counts at chunk boundaries:
	// the abort is still deterministic, but Errored may exceed the
	// threshold by up to a chunk's worth of errors.
	_, _, err = desc.AccumulateParallel(corrupt, nil, cfg, 4)
	desc.Policy = nil
	if !errors.As(err, &be) || be.Errored < 3 {
		t.Fatalf("max-errors=3 parallel: err = %v, want BudgetError with Errored>=3", err)
	}
}

// TestParallelContainmentRescue: a worker that panics on its first attempt
// at one segment must not kill the run — the executor retries the segment,
// the committed result matches a clean run, and the containment counters
// record exactly one failure, retry, and rescue.
func TestParallelContainmentRescue(t *testing.T) {
	data := []byte(strings.Repeat("0123456789abcde\n", 1<<14)) // 256 KiB
	var mu sync.Mutex
	failed := false

	run := func(poison bool, st *telemetry.Stats) int {
		total := 0
		segs := segment.PlanBytes(data, 0, nil, 4)
		if len(segs) < 2 {
			t.Fatalf("planned %d segments, want several", len(segs))
		}
		err := segment.Exec(segs, 4, st, nil,
			func(task *segment.Task) (int, error) {
				if poison && task.Seg.Index == 1 {
					mu.Lock()
					first := !failed
					failed = true
					mu.Unlock()
					if first {
						panic("injected worker fault")
					}
				}
				src := task.Source(data[task.Seg.Off:task.Seg.End()], 0, nil)
				n := 0
				for src.More() {
					ok, err := src.BeginRecord()
					if err != nil {
						return n, err
					}
					if !ok {
						break
					}
					src.SkipToEOR()
					src.EndRecord(&padsrt.PD{})
					n++
				}
				return n, nil
			}, nil,
			func(ns []int) error {
				for _, n := range ns {
					total += n
				}
				return nil
			})
		if err != nil {
			t.Fatalf("poison=%v: %v", poison, err)
		}
		return total
	}

	want := run(false, nil)
	st := &telemetry.Stats{}
	got := run(true, st)
	if got != want {
		t.Fatalf("rescued run counted %d records, clean run %d", got, want)
	}
	f := st.Faults
	if f.ChunkFailures != 1 || f.ChunkRetries != 1 || f.ChunkRescues != 1 {
		t.Fatalf("fault counters = %+v, want exactly one failure/retry/rescue", f)
	}
}

// TestQuarantineDeterministicAcrossWorkers: under a hard fault that strikes
// mid-record — framing-destroying corruption that merges records until the
// MaxRecordLen clamp cuts them — the dead-letter stream must still be
// byte-identical at every worker count. This is the strongest determinism
// claim in docs/ROBUSTNESS.md: chunk-ordered Batch flushing makes worker
// scheduling invisible even when the records themselves were torn apart.
func TestQuarantineDeterministicAcrossWorkers(t *testing.T) {
	benchCorpus(nil)
	desc := compileCLF(t)
	// Corrupt WITHOUT preserving '\n': some newlines flip away, adjacent
	// records merge, and the merged bodies blow through the record clamp —
	// a hard mid-record fault, not a polite per-field error.
	corrupt := fault.Corrupt(clfData, 23, 0.0008)
	if bytes.Count(corrupt, []byte("\n")) == bytes.Count(clfData, []byte("\n")) {
		t.Fatal("corruption left framing intact; the test would prove nothing")
	}
	opts := []padsrt.SourceOption{padsrt.WithLimits(padsrt.Limits{MaxRecordLen: 512})}
	cfg := accum.DefaultConfig()

	var wantQ []byte
	wantN := 0
	{
		var q bytes.Buffer
		desc.Policy = &interp.Policy{Sink: interp.NewQuarantine(&q)}
		_, n, err := desc.AccumulateReader(bytes.NewReader(corrupt), opts, cfg)
		desc.Policy = nil
		if err != nil {
			t.Fatalf("sequential scan of torn data failed hard: %v", err)
		}
		wantQ, wantN = q.Bytes(), n
	}
	if len(wantQ) == 0 {
		t.Fatal("no records quarantined despite torn framing")
	}

	for _, workers := range []int{1, 2, 4, 8} {
		var q bytes.Buffer
		desc.Policy = &interp.Policy{Sink: interp.NewQuarantine(&q)}
		_, n, err := desc.AccumulateParallel(corrupt, opts, cfg, workers)
		desc.Policy = nil
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if n != wantN {
			t.Fatalf("workers=%d: %d records, want %d", workers, n, wantN)
		}
		if !bytes.Equal(q.Bytes(), wantQ) {
			t.Fatalf("workers=%d: quarantine differs from sequential (%d vs %d bytes)",
				workers, q.Len(), len(wantQ))
		}
	}
}
