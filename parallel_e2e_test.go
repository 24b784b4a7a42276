package pads_test

// End-to-end determinism tests for the record-sharded parallel scans on
// the segment executor (segment.Exec): on the synthetic Sirius and CLF corpora, the
// parallel paths must produce byte-identical outputs to the sequential
// ones — with one worker everywhere, and for the order-preserving merges
// (vet/select/count, ParseAllParallel) at any worker count.

import (
	"bytes"
	"strings"
	"testing"

	"pads/internal/accum"
	"pads/internal/core"
	"pads/internal/fig10"
	"pads/internal/padsrt"
)

func TestParallelVetSirius(t *testing.T) {
	benchCorpus(nil)
	var wantClean, wantErr bytes.Buffer
	wantStats, err := fig10.PadsVet(bytes.NewReader(siriusData), &wantClean, &wantErr)
	if err != nil {
		t.Fatal(err)
	}
	if wantStats.Errors == 0 {
		t.Fatal("corpus has no erroneous records; the test would prove nothing")
	}
	for _, workers := range []int{1, 2, 4, 8} {
		var gotClean, gotErr bytes.Buffer
		gotStats, err := fig10.PadsVetParallel(siriusData, &gotClean, &gotErr, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if gotStats != wantStats {
			t.Fatalf("workers=%d: stats %+v, want %+v", workers, gotStats, wantStats)
		}
		if !bytes.Equal(gotClean.Bytes(), wantClean.Bytes()) {
			t.Fatalf("workers=%d: clean stream differs from sequential", workers)
		}
		if !bytes.Equal(gotErr.Bytes(), wantErr.Bytes()) {
			t.Fatalf("workers=%d: error stream differs from sequential", workers)
		}
	}
}

func TestParallelSelectSirius(t *testing.T) {
	benchCorpus(nil)
	var want bytes.Buffer
	wantStats, err := fig10.PadsSelect(bytes.NewReader(siriusClean), &want, benchState)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		var got bytes.Buffer
		gotStats, err := fig10.PadsSelectParallel(siriusClean, &got, benchState, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if gotStats != wantStats {
			t.Fatalf("workers=%d: stats %+v, want %+v", workers, gotStats, wantStats)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("workers=%d: selection output differs from sequential", workers)
		}
	}
}

func TestParallelCountSirius(t *testing.T) {
	benchCorpus(nil)
	want, err := fig10.PadsCount(bytes.NewReader(siriusClean))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		got, err := fig10.PadsCountParallel(siriusClean, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got != want {
			t.Fatalf("workers=%d: %d records, want %d", workers, got, want)
		}
	}
}

// TestParallelAccumulate: the interpreter path. With workers=1 the whole
// accumulator report — good/bad counts, per-code error tallies, min/max/avg,
// quantiles, histogram, top values — is byte-identical to the sequential
// reader's, on both corpora (Sirius carries the documented error
// population, so parse-descriptor error counts are exercised too). With
// workers=4 the exact components must still match; only the sampled
// quantile lines and — for fields with more distinct values than
// MaxTracked, where each shard's tracker saturates independently — the
// top-values block may differ (the two documented approximations of
// accum.Merge).
func TestParallelAccumulate(t *testing.T) {
	benchCorpus(nil)
	cases := []struct {
		name string
		desc string
		data []byte
	}{
		{"sirius", "testdata/sirius.pads", siriusData},
		{"clf", "testdata/clf.pads", clfData},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			desc, err := core.CompileFile(tc.desc)
			if err != nil {
				t.Fatal(err)
			}
			cfg := accum.DefaultConfig()
			seqAcc, seqN, err := desc.AccumulateReader(bytes.NewReader(tc.data), nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var seqRep bytes.Buffer
			seqAcc.Report(&seqRep, "<top>")

			oneAcc, oneN, err := desc.AccumulateParallel(tc.data, nil, cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			if oneN != seqN {
				t.Fatalf("workers=1: %d records, want %d", oneN, seqN)
			}
			var oneRep bytes.Buffer
			oneAcc.Report(&oneRep, "<top>")
			if oneRep.String() != seqRep.String() {
				t.Fatalf("workers=1 report differs from sequential:\n--- parallel\n%.2000s\n--- sequential\n%.2000s",
					oneRep.String(), seqRep.String())
			}

			fourAcc, fourN, err := desc.AccumulateParallel(tc.data, nil, cfg, 4)
			if err != nil {
				t.Fatal(err)
			}
			if fourN != seqN {
				t.Fatalf("workers=4: %d records, want %d", fourN, seqN)
			}
			if fourAcc.Good != seqAcc.Good || fourAcc.Bad != seqAcc.Bad {
				t.Fatalf("workers=4: good/bad %d/%d, want %d/%d", fourAcc.Good, fourAcc.Bad, seqAcc.Good, seqAcc.Bad)
			}
			for code, n := range seqAcc.ErrCounts {
				if fourAcc.ErrCounts[code] != n {
					t.Fatalf("workers=4: err %v count %d, want %d", code, fourAcc.ErrCounts[code], n)
				}
			}
			// The full multi-worker reports agree except possibly on the
			// sampled quantile lines and the tracked-top-values blocks.
			var fourRep bytes.Buffer
			fourAcc.Report(&fourRep, "<top>")
			if got, want := stripApprox(fourRep.String()), stripApprox(seqRep.String()); got != want {
				t.Fatalf("workers=4 report differs beyond the approximate lines:\n--- parallel\n%.2000s\n--- sequential\n%.2000s", got, want)
			}
		})
	}
}

// stripApprox drops the report lines that accum.Merge does not promise to
// reproduce exactly across shards: the reservoir-sampled quantiles and the
// top-values block (whose tracked set is exact only while no shard's
// tracker saturates). Counts, error tallies, min/max/avg, histograms, and
// branch distributions remain and must match byte-for-byte.
func stripApprox(report string) string {
	var out []string
	for _, line := range strings.Split(report, "\n") {
		switch {
		case strings.HasPrefix(line, "quantiles"),
			strings.HasPrefix(line, "top "),
			strings.HasPrefix(line, "tracked "),
			strings.HasPrefix(line, "val:"),
			strings.HasPrefix(line, "SUMMING "):
			continue
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}

// TestParseAllParallel: the whole-source parse used by padsquery. The
// reassembled value tree must answer queries identically to the sequential
// parse, at any worker count.
func TestParseAllParallel(t *testing.T) {
	benchCorpus(nil)
	desc, err := core.CompileFile("testdata/sirius.pads")
	if err != nil {
		t.Fatal(err)
	}
	seqVal, err := desc.ParseAll(padsrt.NewBytesSource(siriusClean))
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"count(/es/elt)",
		"sum(/es/elt/header/order_num)",
		"count(/es/elt/events/elt)",
	}
	for _, workers := range []int{1, 4} {
		parVal, err := desc.ParseAllParallel(siriusClean, nil, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, q := range queries {
			_, wantAgg, wantIsAgg, err := desc.RunQuery(q, seqVal)
			if err != nil {
				t.Fatalf("query %q: %v", q, err)
			}
			_, gotAgg, gotIsAgg, err := desc.RunQuery(q, parVal)
			if err != nil {
				t.Fatalf("workers=%d query %q: %v", workers, q, err)
			}
			if !wantIsAgg || !gotIsAgg || gotAgg != wantAgg {
				t.Fatalf("workers=%d query %q = %v, want %v", workers, q, gotAgg, wantAgg)
			}
		}
	}
}
