package sirius

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"pads/internal/datagen"
	"pads/internal/dsl"
	"pads/internal/interp"
	"pads/internal/padsrt"
	"pads/internal/sema"
	"pads/internal/value"
)

func interpreter(t *testing.T) *interp.Interp {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "..", "testdata", "sirius.pads"))
	if err != nil {
		t.Fatal(err)
	}
	prog, errs := dsl.Parse(string(src))
	if len(errs) > 0 {
		t.Fatalf("parse: %v", errs[0])
	}
	desc, serrs := sema.Check(prog)
	if len(serrs) > 0 {
		t.Fatalf("check: %v", serrs[0])
	}
	in, err := interp.New(desc)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return in
}

func figure3(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "..", "testdata", "sirius.sample"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestGeneratedParsesFigure3(t *testing.T) {
	s := padsrt.NewBytesSource(figure3(t))
	var hpd padsrt.PD
	var hdr Summary_header_t
	var hdrPD Summary_header_tPD
	_ = hpd
	ReadSummary_header_t(s, nil, &hdrPD, &hdr)
	if hdrPD.PD.Nerr != 0 || hdr.Tstamp != 1005022800 {
		t.Fatalf("header = %+v pd=%v", hdr, hdrPD.PD)
	}
	var entries []Entry_t
	for s.More() {
		var e Entry_t
		var epd Entry_tPD
		ReadEntry_t(s, nil, &epd, &e)
		if epd.PD.Nerr != 0 {
			t.Fatalf("entry errors: %v", epd.PD)
		}
		entries = append(entries, e)
	}
	if len(entries) != 2 {
		t.Fatalf("entries = %d", len(entries))
	}
	e0 := entries[0]
	if e0.Header.Order_num != 9152 {
		t.Errorf("order_num = %d", e0.Header.Order_num)
	}
	if !e0.Header.Service_tn.Present || e0.Header.Service_tn.Val != 9735551212 {
		t.Errorf("service_tn = %+v", e0.Header.Service_tn)
	}
	if e0.Header.Nlp_service_tn.Present {
		t.Error("nlp_service_tn should be absent")
	}
	if !e0.Header.Zip_code.Present || e0.Header.Zip_code.Val != "07988" {
		t.Errorf("zip = %+v", e0.Header.Zip_code)
	}
	if e0.Header.Ramp.Tag != Dib_ramp_tTagGenRamp || e0.Header.Ramp.GenRamp.Id != 152272 {
		t.Errorf("ramp = %+v", e0.Header.Ramp)
	}
	if len(e0.Events.Elems) != 1 || e0.Events.Elems[0].State != "10" {
		t.Errorf("events = %+v", e0.Events)
	}
	e1 := entries[1]
	if e1.Header.Ramp.Tag != Dib_ramp_tTagRamp || e1.Header.Ramp.Ramp != 152268 {
		t.Errorf("entry1 ramp = %+v", e1.Header.Ramp)
	}
	if len(e1.Events.Elems) != 2 || e1.Events.Elems[1].State != "LOC_OS_10" {
		t.Errorf("entry1 events = %+v", e1.Events)
	}
}

func TestGeneratedWriteRoundTrip(t *testing.T) {
	data := figure3(t)
	s := padsrt.NewBytesSource(data)
	var hdr Summary_header_t
	var hdrPD Summary_header_tPD
	ReadSummary_header_t(s, nil, &hdrPD, &hdr)
	out := WriteSummary_header_t(nil, &hdr)
	for s.More() {
		var e Entry_t
		var epd Entry_tPD
		ReadEntry_t(s, nil, &epd, &e)
		out = WriteEntry_t(out, &e)
	}
	if !bytes.Equal(out, data) {
		t.Errorf("round trip mismatch:\n--- in\n%s\n--- out\n%s", data, out)
	}
}

// TestDifferentialAgainstInterp runs the generated parser and the
// interpreter over the same synthetic corpus (with injected errors) and
// demands identical values and identical error counts per record.
func TestDifferentialAgainstInterp(t *testing.T) {
	var buf bytes.Buffer
	cfg := datagen.DefaultSirius(500)
	cfg.SortViolations = 3
	cfg.SyntaxErrors = 7
	if _, err := datagen.Sirius(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// The generated-code leg of the three-way IR conformance: the bytecode
	// VM (interp.New) and the generated code over the same corpus. interp's
	// TestVMConformGenCorpora checks the VM against the reference AST walk
	// on this corpus.
	in := interpreter(t)
	si := padsrt.NewBytesSource(data)
	rr, err := in.NewRecordReader(si, nil)
	if err != nil {
		t.Fatal(err)
	}

	sg := padsrt.NewBytesSource(data)
	var hdr Summary_header_t
	var hdrPD Summary_header_tPD
	ReadSummary_header_t(sg, nil, &hdrPD, &hdr)
	if !value.Equal(Summary_header_tToValue(&hdr, &hdrPD), rr.Header()) {
		t.Fatal("headers differ")
	}

	rec := 0
	for rr.More() {
		iv := rr.Read()
		if !sg.More() {
			t.Fatalf("generated parser ran out at record %d", rec)
		}
		var e Entry_t
		var epd Entry_tPD
		ReadEntry_t(sg, nil, &epd, &e)
		gv := Entry_tToValue(&e, &epd)
		ipd, gpd := iv.PD(), gv.PD()
		if (ipd.Nerr == 0) != (gpd.Nerr == 0) {
			t.Fatalf("record %d: interp nerr=%d generated nerr=%d", rec, ipd.Nerr, gpd.Nerr)
		}
		if ipd.Nerr == 0 && !value.Equal(iv, gv) {
			t.Fatalf("record %d values differ:\ninterp:    %s\ngenerated: %s", rec, value.String(iv), value.String(gv))
		}
		if ipd.Nerr > 0 && ipd.ErrCode.Class() != gpd.ErrCode.Class() {
			t.Fatalf("record %d: error class differs: %v vs %v", rec, ipd.ErrCode, gpd.ErrCode)
		}
		rec++
	}
	if sg.More() {
		t.Fatal("generated parser has records left over")
	}
	if rec != 500 {
		t.Fatalf("records = %d", rec)
	}
}

// TestFigure7Normalize is experiment E5: the vet/normalize program of
// Figure 7 — mask off the timestamp-sort check, unify the two missing-phone
// representations, verify, and write back.
func TestFigure7Normalize(t *testing.T) {
	var buf bytes.Buffer
	cfg := datagen.DefaultSirius(200)
	cfg.SortViolations = 5 // would be errors if the mask checked sorting
	cfg.SyntaxErrors = 3
	st, err := datagen.Sirius(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// mask.events.compoundLevel = P_Set (Figure 7).
	mask := NewEntry_tMask(padsrt.CheckAndSet)
	mask.Events.CompoundLevel = padsrt.Set

	s := padsrt.NewBytesSource(buf.Bytes())
	var hdr Summary_header_t
	var hdrPD Summary_header_tPD
	ReadSummary_header_t(s, nil, &hdrPD, &hdr)

	var clean, errRecs, transformFailed int
	var cleanOut, errOut []byte
	for s.More() {
		var e Entry_t
		var epd Entry_tPD
		ReadEntry_t(s, mask, &epd, &e)
		if epd.PD.Nerr > 0 {
			errRecs++
			errOut = WriteEntry_t(errOut, &e)
			continue
		}
		cnvPhoneNumbers(&e)
		if !VerifyEntry_t(&e) {
			// Verify re-checks everything, including the sort the mask
			// skipped: the Figure 7 program's error(2) path.
			transformFailed++
			continue
		}
		clean++
		cleanOut = WriteEntry_t(cleanOut, &e)
	}
	if errRecs != st.SyntaxErrors {
		t.Errorf("error records = %d, want %d (sort violations are masked off)", errRecs, st.SyntaxErrors)
	}
	if transformFailed != st.SortViolations {
		t.Errorf("verify rejected %d records, want the %d sort violations", transformFailed, st.SortViolations)
	}
	if clean != st.Records-st.SyntaxErrors-st.SortViolations {
		t.Errorf("clean records = %d", clean)
	}
	// The cleaned output contains no "|0|" phone representation in the
	// four phone columns: re-parse and check.
	s2 := padsrt.NewBytesSource(cleanOut)
	for s2.More() {
		var e Entry_t
		var epd Entry_tPD
		ReadEntry_t(s2, mask, &epd, &e)
		if epd.PD.Nerr > 0 {
			t.Fatalf("cleaned output does not re-parse: %v", epd.PD)
		}
		for _, tn := range []padsrt.Opt[Pn_t]{e.Header.Service_tn, e.Header.Billing_tn, e.Header.Nlp_service_tn, e.Header.Nlp_billing_tn} {
			if tn.Present && tn.Val == 0 {
				t.Fatal("zero phone number survived normalization")
			}
		}
	}
}

// cnvPhoneNumbers unifies the two representations of unavailable phone
// numbers: the literal 0 becomes the absent optional (section 5.1.1).
func cnvPhoneNumbers(e *Entry_t) {
	fix := func(tn *padsrt.Opt[Pn_t]) {
		if tn.Present && tn.Val == 0 {
			tn.Present = false
			tn.Val = 0
		}
	}
	fix(&e.Header.Service_tn)
	fix(&e.Header.Billing_tn)
	fix(&e.Header.Nlp_service_tn)
	fix(&e.Header.Nlp_billing_tn)
}

func TestVerifyCatchesBrokenTransform(t *testing.T) {
	s := padsrt.NewBytesSource(figure3(t))
	var hdr Summary_header_t
	var hdrPD Summary_header_tPD
	ReadSummary_header_t(s, nil, &hdrPD, &hdr)
	var e Entry_t
	var epd Entry_tPD
	ReadEntry_t(s, nil, &epd, &e)
	if !VerifyEntry_t(&e) {
		t.Fatal("clean entry should verify")
	}
	// Break the event-sequence sort order; Verify must notice.
	s2 := padsrt.NewBytesSource(figure3(t))
	ReadSummary_header_t(s2, nil, &hdrPD, &hdr)
	ReadEntry_t(s2, nil, &epd, &e) // entry with 1 event
	var e2 Entry_t
	ReadEntry_t(s2, nil, &epd, &e2) // entry with 2 events
	e2.Events.Elems[0].Tstamp, e2.Events.Elems[1].Tstamp = e2.Events.Elems[1].Tstamp, e2.Events.Elems[0].Tstamp
	if VerifyEntry_t(&e2) {
		t.Fatal("verify missed an unsorted event sequence")
	}
}

func TestMaskedReadSkipsSortCheck(t *testing.T) {
	data := []byte("1|1|1|0|0|0|0||1|T|0|u|s|A|2000|B|1000\n")
	// Full checking flags the sort violation.
	s := padsrt.NewBytesSource(data)
	var e Entry_t
	var epd Entry_tPD
	ReadEntry_t(s, nil, &epd, &e)
	if epd.Events.PD.ErrCode != padsrt.ErrWhere {
		t.Fatalf("events pd = %v, want ErrWhere", epd.Events.PD)
	}
	// Masked off: clean.
	mask := NewEntry_tMask(padsrt.CheckAndSet)
	mask.Events.CompoundLevel = padsrt.Set
	s = padsrt.NewBytesSource(data)
	ReadEntry_t(s, mask, &epd, &e)
	if epd.PD.Nerr != 0 {
		t.Fatalf("masked read flagged: %v", epd.PD)
	}
}

func TestGeneratedStreaming(t *testing.T) {
	// Allocation behavior: record structs are reused across iterations.
	var buf bytes.Buffer
	if _, err := datagen.Sirius(&buf, datagen.SiriusConfig{Records: 2000, MinEvents: 1, MaxEvents: 10, MeanEvents: 3, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	s := padsrt.NewBytesSource(buf.Bytes())
	var hdr Summary_header_t
	var hdrPD Summary_header_tPD
	ReadSummary_header_t(s, nil, &hdrPD, &hdr)
	var e Entry_t
	var epd Entry_tPD
	n := 0
	for s.More() {
		ReadEntry_t(s, nil, &epd, &e)
		n++
	}
	if n != 2000 {
		t.Fatalf("records = %d", n)
	}
}
