package core

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"pads/internal/accum"
	"pads/internal/datagen"
	"pads/internal/dsl"
	"pads/internal/padsrt"
	"pads/internal/query"
	"pads/internal/sema"
	"pads/internal/value"
)

func td(name string) string { return filepath.Join("..", "..", "testdata", name) }

func TestCompileFile(t *testing.T) {
	d, err := CompileFile(td("sirius.pads"))
	if err != nil {
		t.Fatal(err)
	}
	if d.SourceType() != "out_sum" {
		t.Errorf("source type = %s", d.SourceType())
	}
	if !strings.Contains(d.Print(), "Pstruct order_header_t") {
		t.Error("Print lost declarations")
	}
	if _, err := CompileFile(td("no-such-file.pads")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestCompileRejectsUnlowerable gives Compile's lowering step a checked
// description that cannot be lowered: its regexp literal was dropped from
// the compiled set after sema. There is no second engine to fall back to,
// so this is a compile error.
func TestCompileRejectsUnlowerable(t *testing.T) {
	const src = "Psource Precord Pstruct r {\n  Pre \"[a-z]+\"; Peor;\n};"
	prog, errs := dsl.Parse(src)
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	desc, serrs := sema.Check(prog)
	if len(serrs) > 0 {
		t.Fatal(serrs[0])
	}
	delete(desc.Regexps, "[a-z]+")
	d, err := newDescription(src, "re.pads", prog, desc)
	var ce *CompileError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %T %v, want *CompileError", err, err)
	}
	if d != nil {
		t.Error("a Description came back with the error")
	}
	if got := ce.Error(); !strings.HasPrefix(got, "re.pads:1:17: ") || !strings.Contains(got, "regexp") {
		t.Errorf("error = %q, want the declaration's position and the regexp", got)
	}
}

func TestCompileErrorAggregation(t *testing.T) {
	_, err := Compile("Pstruct s { a_t x; };\nPstruct r { b_t y; };", "two.pads")
	ce, ok := err.(*CompileError)
	if !ok {
		t.Fatalf("err = %T", err)
	}
	if len(ce.Errs) != 2 {
		t.Errorf("diagnostics = %d, want 2", len(ce.Errs))
	}
	if !strings.Contains(ce.Error(), "two.pads") {
		t.Errorf("message = %q", ce.Error())
	}
}

func TestAccumulateReader(t *testing.T) {
	d, err := CompileFile(td("clf.pads"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := datagen.CLF(&buf, datagen.DefaultCLF(300)); err != nil {
		t.Fatal(err)
	}
	acc, n, err := d.AccumulateReader(&buf, nil, accum.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if n != 300 || acc.Total() != 300 {
		t.Fatalf("records = %d, accum total = %d", n, acc.Total())
	}
	if acc.Field("length") == nil {
		t.Error("length accumulator missing")
	}
}

func TestRunQueryAndWriteValue(t *testing.T) {
	d, err := CompileFile(td("sirius.pads"))
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("0|1005022800\n1|1|1|0|0|0|0||1|T|0|u|s|A|1000\n")
	v, err := d.ParseAll(padsrt.NewBytesSource(data))
	if err != nil {
		t.Fatal(err)
	}
	nodes, _, _, err := d.RunQuery("/es/elt/header/order_num", v)
	if err != nil || len(nodes) != 1 || nodes[0].Text() != "1" {
		t.Errorf("query = %v, %v", nodes, err)
	}
	if _, _, _, err := d.RunQuery("/es/elt[", v); err == nil {
		t.Error("bad query accepted")
	}
	out, err := d.WriteValue(nil, d.SourceType(), v)
	if err != nil || !bytes.Equal(out, data) {
		t.Errorf("write-back = %q, %v", out, err)
	}
}

func TestGenerateGoAndSchema(t *testing.T) {
	d, err := CompileFile(td("clf.pads"))
	if err != nil {
		t.Fatal(err)
	}
	code, err := d.GenerateGo("weblog")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(code, "package weblog") {
		t.Error("package name lost")
	}
	if !strings.Contains(d.Schema(), "xs:schema") {
		t.Error("schema empty")
	}
	g, err := d.NewGenerator(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.GenerateType("version_t"); err != nil {
		t.Error(err)
	}
	if f := d.NewFormatter("|"); f == nil {
		t.Error("formatter nil")
	}
	if a := d.NewAccum(0, 0); a == nil {
		t.Error("accum nil")
	}
}

func TestStreamQuery(t *testing.T) {
	d, err := CompileFile(td("sirius.pads"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cfg := datagen.DefaultSirius(300)
	cfg.SyntaxErrors = 0
	cfg.SortViolations = 0
	if _, err := datagen.Sirius(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	state := datagen.StateName(0)

	// Streaming: collect order numbers of records passing through state.
	var streamed []string
	n, err := d.StreamQuery(padsrt.NewBytesSource(data), nil,
		`events/elt[state = "`+state+`"]`,
		func(rec value.Value, nodes []*query.Node) bool {
			on := rec.(*value.Struct).Field("header").(*value.Struct).Field("order_num")
			streamed = append(streamed, value.String(on))
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	if n != 300 {
		t.Fatalf("records = %d", n)
	}
	if len(streamed) == 0 {
		t.Fatal("state never matched; fixture drifted")
	}

	// Whole-file query agrees.
	v, err := d.ParseAll(padsrt.NewBytesSource(data))
	if err != nil {
		t.Fatal(err)
	}
	nodes, _, _, err := d.RunQuery(`/es/elt[events/elt/state = "`+state+`"]/header/order_num`, v)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != len(streamed) {
		t.Fatalf("streaming found %d, whole-file found %d", len(streamed), len(nodes))
	}
	for i, nd := range nodes {
		if nd.Text() != streamed[i] {
			t.Fatalf("order %d: %s vs %s", i, nd.Text(), streamed[i])
		}
	}

	// Early stop.
	count := 0
	_, err = d.StreamQuery(padsrt.NewBytesSource(data), nil,
		`events/elt[state = "`+state+`"]`,
		func(rec value.Value, nodes []*query.Node) bool {
			count++
			return count < 2
		})
	if err != nil || count != 2 {
		t.Fatalf("early stop: count=%d err=%v", count, err)
	}

	// Aggregate queries are rejected.
	if _, err := d.StreamQuery(padsrt.NewBytesSource(data), nil, "count(events/elt)", func(value.Value, []*query.Node) bool { return true }); err == nil {
		t.Error("aggregate accepted by StreamQuery")
	}
}

// failWriter accepts n bytes, then fails every write.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		return 0, errors.New("disk full")
	}
	w.n -= len(p)
	return len(p), nil
}

// TestStreamWriteStopsOnWriteError: a failed write ends the scan at that
// record and is returned, for both stream outputs.
func TestStreamWriteStopsOnWriteError(t *testing.T) {
	d, err := CompileFile(td("clf.pads"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := datagen.CLF(&buf, datagen.DefaultCLF(200)); err != nil {
		t.Fatal(err)
	}
	x, err := d.XML("")
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range []*Stream{x, NewDelimited("fmt", "", "", false)} {
		rr, err := d.Records(padsrt.NewBytesSource(buf.Bytes()), nil)
		if err != nil {
			t.Fatal(err)
		}
		err = out.Write(&failWriter{n: 4096}, rr)
		if err == nil || err.Error() != "disk full" {
			t.Fatalf("%s: Write = %v, want the write error", out.mode, err)
		}
		if n, _ := rr.Counts(); n == 0 || n >= 200 {
			t.Fatalf("%s: scan read %d of 200 records after the write failed", out.mode, n)
		}
	}
	if _, err := d.XML("a><b"); err == nil {
		t.Fatal("XML accepted a root name that is not an XML Name")
	}
}
