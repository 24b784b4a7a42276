package interp_test

import (
	"bytes"
	"testing"

	"pads/internal/datagen"
	"pads/internal/interp"
	"pads/internal/padsrt"
)

// TestVMAllocsPerRecord pins the VM loop's allocation budget on a clean
// synthetic Sirius corpus. The tree-walking interpreter spends ~99
// allocations per record here; the VM spent ~73 while it allocated every
// value node on its own, and ~25 since leaves come from per-Interp chunks
// and each struct is one allocation with its field array (alloc.go). The
// pin sits over the measured need with headroom, so the test flags a
// regression, not noise.
func TestVMAllocsPerRecord(t *testing.T) {
	const records = 200
	const maxPerRecord = 30.0 // AST walk ~99, VM measured ~24.6

	desc := checkFile(t, "sirius.pads")
	var buf bytes.Buffer
	cfg := datagen.DefaultSirius(records)
	cfg.SortViolations = 0
	cfg.SyntaxErrors = 0
	if _, err := datagen.Sirius(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	vm, err := interp.New(desc)
	if err != nil {
		t.Fatalf("description did not lower to IR: %v", err)
	}

	parsed := 0
	avg := testing.AllocsPerRun(5, func() {
		s := padsrt.NewBytesSource(data)
		rr, err := vm.NewRecordReader(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		parsed = 0
		for rr.More() {
			if rr.Read().PD().Nerr != 0 {
				t.Fatal("clean corpus parsed with errors")
			}
			parsed++
		}
	}) / records
	if parsed != records {
		t.Fatalf("parsed %d records, want %d", parsed, records)
	}
	if avg > maxPerRecord {
		t.Errorf("VM allocations = %.1f per record, pinned max %.1f", avg, maxPerRecord)
	}
}
