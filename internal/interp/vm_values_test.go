package interp_test

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"pads/internal/accum"
	"pads/internal/datagen"
	"pads/internal/interp"
	"pads/internal/padsrt"
	"pads/internal/value"
)

// The VM carves leaf values from per-Interp chunks and shares each struct's
// field names with the IR (alloc.go, docs/IR.md). These tests pin what that
// must not change: consumers may keep values, a scan's live heap does not
// grow with the records behind it, and clones parse concurrently.

// siriusData generates a Sirius corpus with the default error population.
func siriusData(t *testing.T, records int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := datagen.Sirius(&buf, datagen.DefaultSirius(records)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readStrings parses data record by record and renders each record.
func readStrings(in *interp.Interp, data []byte) ([]string, error) {
	rr, err := in.NewRecordReader(padsrt.NewBorrowedSource(data), nil)
	if err != nil {
		return nil, err
	}
	var out []string
	for rr.More() {
		out = append(out, value.String(rr.Read()))
	}
	return out, rr.Err()
}

// TestVMRetainedValuesUnchanged keeps every record a scan returns and checks
// that none changed by the end of the scan: no later record may write into
// an earlier record's nodes, whichever chunk they came from.
func TestVMRetainedValuesUnchanged(t *testing.T) {
	desc := checkFile(t, "sirius.pads")
	rr, err := newVM(t, desc).NewRecordReader(padsrt.NewBorrowedSource(siriusData(t, 2000)), nil)
	if err != nil {
		t.Fatal(err)
	}
	var kept []value.Value
	var text []string
	var pds []padsrt.PD
	for rr.More() {
		v := rr.Read()
		kept = append(kept, v)
		text = append(text, value.String(v))
		pds = append(pds, *v.PD())
	}
	if rr.Err() != nil {
		t.Fatal(rr.Err())
	}
	bad := 0
	for i, v := range kept {
		if got := value.String(v); got != text[i] {
			t.Fatalf("record %d changed after it was read:\n got %s\nwant %s", i+1, got, text[i])
		}
		if *v.PD() != pds[i] {
			t.Fatalf("record %d descriptor changed after it was read: %+v, was %+v", i+1, *v.PD(), pds[i])
		}
		if pds[i].Nerr > 0 {
			bad++
		}
	}
	if bad == 0 {
		t.Fatal("corpus has no bad records; the test would not cover error values")
	}

	// Records of one type share their Names array with the IR, so an
	// append by a consumer must copy rather than write into it.
	first, second := kept[0].(*value.Struct), kept[1].(*value.Struct)
	grown := append(first.Names, "extra")
	if &grown[0] == &first.Names[0] {
		t.Fatal("appending to a shared Names array wrote into it")
	}
	if got := value.String(second); got != text[1] {
		t.Fatalf("an append to record 1's names changed record 2:\n got %s\nwant %s", got, text[1])
	}
}

// TestVMLiveHeapFlat scans through a RecordReader into an accumulator, which
// keeps nothing of the values, and checks the live heap twice. It must be
// the same after 32k records as after 4k: a chunk that held pointers would
// keep the nodes it points to alive, and if those sat in earlier chunks the
// reader's current chunks would chain back through every record scanned.
// And the scan may add no more than the accumulator and the current chunks
// to the heap it started with: pooling the nodes that point to other nodes
// keeps thousands of records alive even where the chain is broken.
func TestVMLiveHeapFlat(t *testing.T) {
	const early, late = 4000, 32000
	const slack = 4 << 20

	desc := checkFile(t, "sirius.pads")
	data := siriusData(t, late)
	rr, err := newVM(t, desc).NewRecordReader(padsrt.NewBorrowedSource(data), nil)
	if err != nil {
		t.Fatal(err)
	}
	a := accum.New(accum.DefaultConfig())
	heapInuse := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	atStart := heapInuse()
	var atEarly uint64
	n := 0
	for rr.More() {
		a.Add(rr.Read())
		if n++; n == early {
			atEarly = heapInuse()
		}
	}
	atLate := heapInuse()
	runtime.KeepAlive(rr)
	runtime.KeepAlive(a)
	if n != late {
		t.Fatalf("scanned %d records, want %d", n, late)
	}
	t.Logf("heap in use after GC: %d KiB at the start, %d KiB at %d records, %d KiB at %d",
		atStart>>10, atEarly>>10, early, atLate>>10, late)
	if atEarly > atStart+slack {
		t.Errorf("the first %d records left %d KiB live, over %d KiB: the scan keeps values it has passed",
			early, (atEarly-atStart)>>10, slack>>10)
	}
	if atLate > atEarly+slack {
		t.Errorf("live heap grew from %d KiB at %d records to %d KiB at %d: values outlive their records",
			atEarly>>10, early, atLate>>10, late)
	}
}

// TestVMClonesParseConcurrently runs several clones of one compiled Interp
// at once, as segment workers and padsd requests do, and checks each parse
// against a sequential one. Leaf chunks are per-Interp state, so run it
// under -race.
func TestVMClonesParseConcurrently(t *testing.T) {
	const workers = 4
	desc := checkFile(t, "sirius.pads")
	data := siriusData(t, 1000)
	in := newVM(t, desc)
	want, err := readStrings(in, data)
	if err != nil {
		t.Fatal(err)
	}

	got := make([][]string, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w], errs[w] = readStrings(in.Clone(), data)
		}(w)
	}
	wg.Wait()
	for w := range got {
		if errs[w] != nil {
			t.Fatalf("clone %d: %v", w, errs[w])
		}
		if len(got[w]) != len(want) {
			t.Fatalf("clone %d read %d records, want %d", w, len(got[w]), len(want))
		}
		for i := range want {
			if got[w][i] != want[i] {
				t.Fatalf("clone %d record %d:\n got %s\nwant %s", w, i+1, got[w][i], want[i])
			}
		}
	}
}
