package fmtconv

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pads/internal/dsl"
	"pads/internal/interp"
	"pads/internal/padsrt"
	"pads/internal/sema"
	"pads/internal/value"
)

func compileFile(t *testing.T, name string) *interp.Interp {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	prog, errs := dsl.Parse(string(data))
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

// TestFigure8 regenerates the formatted CLF records of Figure 8 from the
// Figure 2 data: delimiter "|", date format "%D:%T" (E7).
func TestFigure8(t *testing.T) {
	in := compileFile(t, "clf.pads")
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "clf.sample"))
	if err != nil {
		t.Fatal(err)
	}
	s := padsrt.NewBytesSource(data)
	v, err := in.ParseSource(s)
	if err != nil {
		t.Fatal(err)
	}
	arr := v.(*value.Array)
	f := New("|")
	f.DateFormat = "%D:%T"
	want := []string{
		"207.136.97.49|-|-|10/16/97:01:46:51|GET|/tk/p.txt|1|0|200|30",
		"tj62.aol.com|-|-|10/16/97:21:32:22|POST|/scpt/dd@grp.org/confirm|1|0|200|941",
	}
	for i, rec := range arr.Elems {
		got := f.FormatRecord(rec)
		if got != want[i] {
			t.Errorf("record %d:\n got %s\nwant %s", i, got, want[i])
		}
	}
}

func TestMaskSuppression(t *testing.T) {
	in := compileFile(t, "clf.pads")
	data, _ := os.ReadFile(filepath.Join("..", "..", "testdata", "clf.sample"))
	v, _ := in.ParseSource(padsrt.NewBytesSource(data))
	rec := v.(*value.Array).Elems[0]

	f := New("|")
	f.DateFormat = "%D:%T"
	mask := padsrt.NewMaskNode(padsrt.CheckAndSet)
	mask.SetField("remoteID", padsrt.NewMaskNode(padsrt.Ignore))
	mask.SetField("auth", padsrt.NewMaskNode(padsrt.Ignore))
	mask.SetField("request", padsrt.NewMaskNode(padsrt.Ignore))
	f.Mask = mask
	got := f.FormatRecord(rec)
	want := "207.136.97.49|10/16/97:01:46:51|200|30"
	if got != want {
		t.Errorf("masked format:\n got %s\nwant %s", got, want)
	}
}

func TestAbsentOptionalsKeepColumns(t *testing.T) {
	src := `
Precord Pstruct r_t {
  Popt Puint32 a; '|';
  Puint32 b; '|';
  Popt Puint32 c;
};
Psource Parray rs_t { r_t[]; };
`
	prog, errs := dsl.Parse(src)
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	desc, serrs := sema.Check(prog)
	if len(serrs) > 0 {
		t.Fatal(serrs[0])
	}
	in, err := interp.New(desc)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := in.ParseSource(padsrt.NewBytesSource([]byte("|5|\n1|2|3\n")))
	arr := v.(*value.Array)
	f := New(",")
	if got := f.FormatRecord(arr.Elems[0]); got != ",5," {
		t.Errorf("record 0 = %q, want %q", got, ",5,")
	}
	if got := f.FormatRecord(arr.Elems[1]); got != "1,2,3" {
		t.Errorf("record 1 = %q", got)
	}
}

func TestMultipleDelimiters(t *testing.T) {
	src := `
Pstruct pair_t { Puint32 x; ':'; Puint32 y; };
Precord Pstruct r_t { pair_t a; ' '; pair_t b; };
Psource Parray rs_t { r_t[]; };
`
	prog, _ := dsl.Parse(src)
	desc, serrs := sema.Check(prog)
	if len(serrs) > 0 {
		t.Fatal(serrs[0])
	}
	in, err := interp.New(desc)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := in.ParseSource(padsrt.NewBytesSource([]byte("1:2 3:4\n")))
	rec := v.(*value.Array).Elems[0]
	// Outer boundary uses the first delimiter, nested pairs the second.
	f := New("|", "~")
	got := f.FormatRecord(rec)
	if got != "1~2~3~4" && got != "1~2|3~4" {
		// The delimiter list advances at nested type boundaries; the
		// leaves of each pair sit at depth 2 and reuse the last
		// delimiter while the top-level boundary is depth 1.
		t.Logf("got %q", got)
	}
	if got != "1~2|3~4" {
		t.Errorf("multi-delims = %q, want 1~2|3~4", got)
	}
}

func TestLeafRendering(t *testing.T) {
	f := New(",")
	mk := func(v value.Value) string { return f.FormatRecord(v) }
	if got := mk(value.NewInt(-5, 32, "Pint32", padsrt.PD{})); got != "-5" {
		t.Errorf("int = %q", got)
	}
	if got := mk(value.NewFloat(2.5, 64, "Pfloat64", padsrt.PD{})); got != "2.5" {
		t.Errorf("float = %q", got)
	}
	if got := mk(value.NewIP(0x01020304, "Pip", padsrt.PD{})); got != "1.2.3.4" {
		t.Errorf("ip = %q", got)
	}
	if got := mk(value.NewEnum("m_t", "GET", 0, padsrt.PD{})); got != "GET" {
		t.Errorf("enum = %q", got)
	}
	if got := mk(value.NewChar('x', "Pchar", padsrt.PD{})); got != "x" {
		t.Errorf("char = %q", got)
	}
	// Raw date text without a format.
	if got := mk(value.NewDate(5, "raw date", "Pdate", padsrt.PD{})); got != "raw date" {
		t.Errorf("date = %q", got)
	}
}

func TestWriteRecord(t *testing.T) {
	f := New("|")
	var sb strings.Builder
	st := &value.Struct{}
	st.Names = []string{"a", "b"}
	st.Fields = []value.Value{
		value.NewUint(1, 8, "Puint8", padsrt.PD{}),
		value.NewUint(2, 8, "Puint8", padsrt.PD{}),
	}
	if _, err := f.WriteRecord(&sb, st); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "1|2\n" {
		t.Errorf("WriteRecord = %q", sb.String())
	}
}

func TestArrayFormatting(t *testing.T) {
	arr := &value.Array{}
	for _, v := range []uint64{1, 2, 3} {
		arr.Elems = append(arr.Elems, value.NewUint(v, 8, "Puint8", padsrt.PD{}))
	}
	if got := New(",").FormatRecord(arr); got != "1,2,3" {
		t.Errorf("array = %q", got)
	}
}
