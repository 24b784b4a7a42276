package pads_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pads"
)

func compileTestdata(t *testing.T, name string) *pads.Description {
	t.Helper()
	d, err := pads.CompileFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPublicAPIEndToEnd(t *testing.T) {
	desc := compileTestdata(t, "clf.pads")
	if desc.SourceType() != "clt_t" {
		t.Errorf("source type = %s", desc.SourceType())
	}

	data, err := os.ReadFile(filepath.Join("testdata", "clf.sample"))
	if err != nil {
		t.Fatal(err)
	}

	// Whole-source parse.
	v, err := desc.ParseAll(pads.NewBytesSource(data))
	if err != nil {
		t.Fatal(err)
	}
	if v.PD().Nerr != 0 {
		t.Fatalf("parse errors: %v", v.PD())
	}

	// Record-at-a-time with accumulation.
	rr, err := desc.Records(pads.NewBytesSource(data), nil)
	if err != nil {
		t.Fatal(err)
	}
	acc := pads.NewAccum(pads.AccumConfig{})
	n := 0
	for rr.More() {
		acc.Add(rr.Read())
		n++
	}
	if n != 2 || acc.Total() != 2 {
		t.Fatalf("records = %d, accum total = %d", n, acc.Total())
	}

	// Formatting (Figure 8).
	f := pads.NewFormatter("|")
	f.DateFormat = "%D:%T"
	rr2, _ := desc.Records(pads.NewBytesSource(data), nil)
	got := f.FormatRecord(rr2.Read())
	if got != "207.136.97.49|-|-|10/16/97:01:46:51|GET|/tk/p.txt|1|0|200|30" {
		t.Errorf("formatted = %s", got)
	}

	// XML and Schema.
	xml := pads.XMLString(v, "log")
	if !strings.Contains(xml, "<req_uri>/tk/p.txt</req_uri>") {
		t.Errorf("xml missing uri:\n%s", xml)
	}
	if !strings.Contains(desc.Schema(), `<xs:complexType name="entry_t">`) {
		t.Error("schema missing entry_t")
	}

	// Query.
	nodes, _, _, err := desc.RunQuery(`/elt[response = 200]`, v)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 {
		t.Errorf("query matched %d", len(nodes))
	}
	_, agg, isAgg, err := desc.RunQuery(`count(/elt)`, v)
	if err != nil || !isAgg || agg != 2 {
		t.Errorf("count = %v (agg=%v, err=%v)", agg, isAgg, err)
	}

	// Write-back round trip.
	out, err := desc.WriteValue(nil, desc.SourceType(), v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Error("write-back differs from input")
	}

	// Code generation.
	code, err := desc.GenerateGo("clf")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(code, "func ReadEntry_t") {
		t.Error("generated code missing ReadEntry_t")
	}

	// Living documentation round trip.
	reprinted, err := pads.Compile(desc.Print(), "reprint")
	if err != nil {
		t.Fatalf("pretty-printed description does not recompile: %v", err)
	}
	if reprinted.SourceType() != desc.SourceType() {
		t.Error("reprint changed the source type")
	}
}

func TestPublicMasks(t *testing.T) {
	desc := compileTestdata(t, "sirius.pads")
	data := []byte("0|1005022800\n1|1|1|0|0|0|0||1|T|0|u|s|A|2000|B|1000\n")

	rr, err := desc.Records(pads.NewBytesSource(data), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec := rr.Read(); rec.PD().Nerr == 0 {
		t.Fatal("sort violation not flagged under the default mask")
	}

	mask := pads.NewMask(pads.CheckAndSet)
	events := pads.NewMask(pads.CheckAndSet)
	events.Compound = pads.Set
	mask.SetField("events", events)
	rr2, _ := desc.Records(pads.NewBytesSource(data), mask)
	if rec := rr2.Read(); rec.PD().Nerr != 0 {
		t.Fatalf("masked read flagged: %v", rec.PD())
	}
}

func TestPublicGenerators(t *testing.T) {
	var clf bytes.Buffer
	st, err := pads.GenerateCLF(&clf, pads.DefaultCLF(100))
	if err != nil || st.Records != 100 {
		t.Fatalf("clf stats = %+v err=%v", st, err)
	}
	var sir bytes.Buffer
	sst, err := pads.GenerateSirius(&sir, pads.DefaultSirius(100))
	if err != nil || sst.Records != 100 {
		t.Fatalf("sirius stats = %+v err=%v", sst, err)
	}
	// Baselines run over the generated data.
	vst, err := pads.SiriusVet(bytes.NewReader(sir.Bytes()), nil, nil)
	if err != nil || vst.Records != 100 {
		t.Fatalf("vet stats = %+v err=%v", vst, err)
	}
	n, err := pads.CountRecords(bytes.NewReader(sir.Bytes()))
	if err != nil || n != 101 { // header + records
		t.Fatalf("count = %d err=%v", n, err)
	}
	if _, err := pads.SiriusSelect(bytes.NewReader(sir.Bytes()), nil, "LOC_0"); err != nil {
		t.Fatal(err)
	}
	// Description-driven generation.
	desc := compileTestdata(t, "sirius.pads")
	g := desc.NewGenerator(1)
	if _, err := g.GenerateType("event_t"); err != nil {
		t.Fatal(err)
	}
}

func TestPublicCopybook(t *testing.T) {
	desc, err := pads.TranslateCopybook(`
01 REC.
   05 ID   PIC 9(4).
   05 NAME PIC X(6).
`, "rec.cpy")
	if err != nil {
		t.Fatal(err)
	}
	if desc.SourceType() != "rec_file" {
		t.Errorf("source type = %s", desc.SourceType())
	}
}

func TestCompileErrorsAreAggregated(t *testing.T) {
	_, err := pads.Compile("Pstruct s { mystery_t x; };\nPstruct r { other_t y; };", "bad.pads")
	if err == nil {
		t.Fatal("expected errors")
	}
	msg := err.Error()
	if !strings.Contains(msg, "mystery_t") || !strings.Contains(msg, "other_t") {
		t.Errorf("aggregated error missing diagnostics: %s", msg)
	}
	if !strings.Contains(msg, "bad.pads") {
		t.Errorf("error missing file label: %s", msg)
	}
}

func TestPublicWrappers(t *testing.T) {
	// Disciplines and source options.
	for _, d := range []pads.Discipline{pads.Newline(), pads.FixedWidth(4), pads.LenPrefix(), pads.NoRecords()} {
		if d.Name() == "" {
			t.Error("unnamed discipline")
		}
	}
	s := pads.NewBytesSource([]byte("x"),
		pads.WithDiscipline(pads.NoRecords()),
		pads.WithCoding(pads.EBCDIC),
		pads.WithByteOrder(pads.LittleEndian))
	if s.Coding() != pads.EBCDIC || s.ByteOrder() != pads.LittleEndian {
		t.Error("source options lost through wrappers")
	}

	// Value helpers and XML.
	desc := compileTestdata(t, "clf.pads")
	data, _ := os.ReadFile(filepath.Join("testdata", "clf.sample"))
	v1, _ := desc.ParseAll(pads.NewBytesSource(data))
	v2, _ := desc.ParseAll(pads.NewBytesSource(data))
	if !pads.ValueEqual(v1, v2) {
		t.Error("ValueEqual false for identical parses")
	}
	if !strings.Contains(pads.ValueString(v1), "GET") {
		t.Error("ValueString lost content")
	}
	var sb strings.Builder
	if err := pads.WriteXML(&sb, v1, "log"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "<log>") {
		t.Error("WriteXML empty")
	}

	// Query compilation and the node API.
	q, err := pads.CompileQuery("count(/elt)")
	if err != nil {
		t.Fatal(err)
	}
	_, n, isAgg := q.Eval(pads.NewNode("log", v1))
	if !isAgg || n != 2 {
		t.Errorf("count = %v (agg=%v)", n, isAgg)
	}
	if _, err := pads.CompileQuery("/["); err == nil {
		t.Error("bad query compiled")
	}

	// Copybook error path.
	if _, err := pads.TranslateCopybook("05 X PIC X.", "x.cpy"); err == nil {
		t.Error("bad copybook accepted")
	}

	// Streaming query via the public alias.
	sdesc := compileTestdata(t, "sirius.pads")
	var sir bytes.Buffer
	cfg := pads.DefaultSirius(50)
	cfg.SyntaxErrors = 0
	cfg.SortViolations = 0
	if _, err := pads.GenerateSirius(&sir, cfg); err != nil {
		t.Fatal(err)
	}
	hits := 0
	if _, err := sdesc.StreamQuery(pads.NewBytesSource(sir.Bytes()), nil, "header/order_num",
		func(rec pads.Value, nodes []*pads.Node) bool {
			hits += len(nodes)
			return true
		}); err != nil {
		t.Fatal(err)
	}
	if hits != 50 {
		t.Errorf("streaming hits = %d", hits)
	}

	// Corrupted data through the public generator + vet baseline.
	vst, err := pads.SiriusVet(bytes.NewReader(sir.Bytes()), nil, nil)
	if err != nil || vst.Errors != 0 {
		t.Errorf("vet of clean corpus: %+v, %v", vst, err)
	}
}

func TestPublicStates(t *testing.T) {
	if pads.Normal.String() != "Normal" || pads.Partial.String() != "Partial" || pads.Panicking.String() != "Panicking" {
		t.Error("state constants broken")
	}
	m := pads.NewMask(pads.Check)
	if m.BaseMask() != pads.Check {
		t.Error("mask wrapper broken")
	}
	if pads.Ignore.DoSet() || !pads.CheckAndSet.DoCheck() || !pads.Set.DoSet() {
		t.Error("mask bits broken")
	}
}

// TestScan: pads.Scan visits every record in order and counts them, an
// error from the callback stops the scan and comes back unchanged, and the
// end of the input is not an error.
func TestScan(t *testing.T) {
	desc := compileTestdata(t, "clf.pads")
	var data bytes.Buffer
	if _, err := pads.GenerateCLF(&data, pads.DefaultCLF(50)); err != nil {
		t.Fatal(err)
	}
	rr, err := desc.Records(pads.NewBytesSource(data.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	n, err := pads.Scan(rr, func(pads.Value) error { seen++; return nil })
	if err != nil || n != 50 || seen != 50 {
		t.Fatalf("Scan = %d, %v after %d visits; want 50 records, no error", n, err, seen)
	}
	rr, _ = desc.Records(pads.NewBytesSource(data.Bytes()), nil)
	stop := errors.New("stop")
	n, err = pads.Scan(rr, func(pads.Value) error {
		if seen--; seen == 40 {
			return stop
		}
		return nil
	})
	if err != stop || n != 10 {
		t.Fatalf("Scan with a failing callback = %d, %v; want 10, the callback's error", n, err)
	}
}
