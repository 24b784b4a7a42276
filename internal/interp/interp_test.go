package interp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pads/internal/dsl"
	"pads/internal/expr"
	"pads/internal/padsrt"
	"pads/internal/sema"
	"pads/internal/value"
)

func compile(t *testing.T, src string) *Interp {
	t.Helper()
	prog, errs := dsl.Parse(src)
	if len(errs) > 0 {
		t.Fatalf("parse: %v", errs[0])
	}
	desc, serrs := sema.Check(prog)
	if len(serrs) > 0 {
		t.Fatalf("check: %v", serrs[0])
	}
	in, err := New(desc)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return in
}

// TestNewRejectsUnlowerable gives New a checked description that cannot be
// lowered (its regexp literal was dropped from the compiled set after sema):
// the VM is the only engine, so New must report the lowering error.
func TestNewRejectsUnlowerable(t *testing.T) {
	prog, errs := dsl.Parse(`Psource Precord Pstruct r { Pre "[a-z]+"; Peor; };`)
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	desc, serrs := sema.Check(prog)
	if len(serrs) > 0 {
		t.Fatal(serrs[0])
	}
	delete(desc.Regexps, "[a-z]+")
	in, err := New(desc)
	if err == nil || !strings.Contains(err.Error(), "regexp") {
		t.Fatalf("New = %v, %v; want a lowering error naming the regexp", in, err)
	}
	if in != nil {
		t.Error("New returned an interpreter with its error")
	}
}

func compileFile(t *testing.T, name string) *Interp {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return compile(t, string(data))
}

func readFile(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func parseAll(t *testing.T, in *Interp, data string) value.Value {
	t.Helper()
	s := padsrt.NewBytesSource([]byte(data))
	v, err := in.ParseSource(s)
	if err != nil {
		t.Fatalf("ParseSource: %v", err)
	}
	return v
}

// TestCLF parses the Figure 2 sample with the Figure 4 description (E2).
func TestCLF(t *testing.T) {
	in := compileFile(t, "clf.pads")
	data := readFile(t, "clf.sample")
	s := padsrt.NewBytesSource(data)
	v, err := in.ParseSource(s)
	if err != nil {
		t.Fatal(err)
	}
	arr, ok := v.(*value.Array)
	if !ok {
		t.Fatalf("top value is %T", v)
	}
	if len(arr.Elems) != 2 {
		t.Fatalf("records = %d, want 2", len(arr.Elems))
	}
	if arr.PD().Nerr != 0 {
		t.Fatalf("unexpected errors: %v", arr.PD())
	}

	r0 := arr.Elems[0].(*value.Struct)
	client := r0.Field("client").(*value.Union)
	if client.Tag != "ip" {
		t.Errorf("record 0 client branch = %s, want ip", client.Tag)
	}
	if ip := client.Val.(*value.IP); padsrt.FormatIP(ip.Val) != "207.136.97.49" {
		t.Errorf("ip = %s", padsrt.FormatIP(ip.Val))
	}
	if auth := r0.Field("auth").(*value.Union); auth.Tag != "unauthorized" {
		t.Errorf("auth branch = %s", auth.Tag)
	}
	req := r0.Field("request").(*value.Struct)
	meth := req.Field("meth").(*value.Enum)
	if meth.Member != "GET" {
		t.Errorf("method = %s", meth.Member)
	}
	if uri := req.Field("req_uri").(*value.Str); uri.Val != "/tk/p.txt" {
		t.Errorf("uri = %q", uri.Val)
	}
	ver := req.Field("version").(*value.Struct)
	if maj := ver.Field("major").(*value.Uint); maj.Val != 1 {
		t.Errorf("major = %d", maj.Val)
	}
	if resp := r0.Field("response").(*value.Uint); resp.Val != 200 {
		t.Errorf("response = %d", resp.Val)
	}
	if length := r0.Field("length").(*value.Uint); length.Val != 30 {
		t.Errorf("length = %d", length.Val)
	}
	date := r0.Field("date").(*value.Date)
	if date.Raw != "15/Oct/1997:18:46:51 -0700" {
		t.Errorf("date raw = %q", date.Raw)
	}

	r1 := arr.Elems[1].(*value.Struct)
	if host := r1.Field("client").(*value.Union); host.Tag != "host" {
		t.Errorf("record 1 client branch = %s, want host", host.Tag)
	}
	if m := r1.Field("request").(*value.Struct).Field("meth").(*value.Enum); m.Member != "POST" {
		t.Errorf("record 1 method = %s", m.Member)
	}
}

// TestSirius parses the Figure 3 sample with the Figure 5 description (E2).
func TestSirius(t *testing.T) {
	in := compileFile(t, "sirius.pads")
	data := readFile(t, "sirius.sample")
	s := padsrt.NewBytesSource(data)
	v, err := in.ParseSource(s)
	if err != nil {
		t.Fatal(err)
	}
	top := v.(*value.Struct)
	if top.PD().Nerr != 0 {
		t.Fatalf("unexpected errors: %v (value %s)", top.PD(), value.String(top))
	}
	hdr := top.Field("h").(*value.Struct)
	if ts := hdr.Field("tstamp").(*value.Uint); ts.Val != 1005022800 {
		t.Errorf("summary tstamp = %d", ts.Val)
	}
	entries := top.Field("es").(*value.Array)
	if len(entries.Elems) != 2 {
		t.Fatalf("entries = %d, want 2", len(entries.Elems))
	}

	e0 := entries.Elems[0].(*value.Struct)
	h0 := e0.Field("header").(*value.Struct)
	if on := h0.Field("order_num").(*value.Uint); on.Val != 9152 {
		t.Errorf("order_num = %d", on.Val)
	}
	if tn := h0.Field("service_tn").(*value.Opt); !tn.Present || tn.Val.(*value.Uint).Val != 9735551212 {
		t.Errorf("service_tn = %s", value.String(tn))
	}
	if tn := h0.Field("nlp_service_tn").(*value.Opt); tn.Present {
		t.Errorf("nlp_service_tn should be absent, got %s", value.String(tn))
	}
	if zip := h0.Field("zip_code").(*value.Opt); !zip.Present || zip.Val.(*value.Str).Val != "07988" {
		t.Errorf("zip = %s", value.String(zip))
	}
	ramp := h0.Field("ramp").(*value.Union)
	if ramp.Tag != "genRamp" {
		t.Fatalf("ramp branch = %s, want genRamp", ramp.Tag)
	}
	if id := ramp.Val.(*value.Struct).Field("id").(*value.Uint); id.Val != 152272 {
		t.Errorf("generated ramp id = %d", id.Val)
	}
	ev0 := e0.Field("events").(*value.Array)
	if len(ev0.Elems) != 1 {
		t.Fatalf("entry 0 events = %d, want 1", len(ev0.Elems))
	}
	if st := ev0.Elems[0].(*value.Struct).Field("state").(*value.Str); st.Val != "10" {
		t.Errorf("event state = %q", st.Val)
	}

	e1 := entries.Elems[1].(*value.Struct)
	h1 := e1.Field("header").(*value.Struct)
	if ramp := h1.Field("ramp").(*value.Union); ramp.Tag != "ramp" {
		t.Errorf("entry 1 ramp branch = %s", ramp.Tag)
	}
	ev1 := e1.Field("events").(*value.Array)
	if len(ev1.Elems) != 2 {
		t.Fatalf("entry 1 events = %d, want 2", len(ev1.Elems))
	}
	if st := ev1.Elems[1].(*value.Struct).Field("state").(*value.Str); st.Val != "LOC_OS_10" {
		t.Errorf("event state = %q", st.Val)
	}
}

func TestSiriusSortedTimestampViolation(t *testing.T) {
	in := compileFile(t, "sirius.pads")
	// Events out of order: 2000 then 1000.
	data := "0|1005022800\n1|1|1|0|0|0|0||1|T|0|u|s|A|2000|B|1000\n"
	s := padsrt.NewBytesSource([]byte(data))
	v, _ := in.ParseSource(s)
	top := v.(*value.Struct)
	entry := top.Field("es").(*value.Array).Elems[0].(*value.Struct)
	events := entry.Field("events").(*value.Array)
	if events.PD().ErrCode != padsrt.ErrWhere {
		t.Errorf("events pd = %v, want ErrWhere", events.PD())
	}
	if top.PD().Nerr == 0 {
		t.Error("error did not propagate to the top-level descriptor")
	}
}

func TestMaskSkipsWhereCheck(t *testing.T) {
	in := compileFile(t, "sirius.pads")
	data := "0|1005022800\n1|1|1|0|0|0|0||1|T|0|u|s|A|2000|B|1000\n"

	// Figure 7's mask: check everything except the event-sequence sort.
	mask := padsrt.NewMaskNode(padsrt.CheckAndSet)
	entryMask := padsrt.NewMaskNode(padsrt.CheckAndSet)
	eventsMask := padsrt.NewMaskNode(padsrt.CheckAndSet)
	eventsMask.Compound = padsrt.Set
	entryMask.SetField("events", eventsMask)
	// The source struct -> es array -> element mask.
	esMask := padsrt.NewMaskNode(padsrt.CheckAndSet)
	esMask.Elem = entryMask
	mask.SetField("es", esMask)

	s := padsrt.NewBytesSource([]byte(data))
	v, err := in.ParseType(in.Desc.Source.DeclName(), s, mask, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.PD().Nerr != 0 {
		t.Errorf("with Pwhere masked off, errors = %v", v.PD())
	}
}

func TestCLFBadLengthField(t *testing.T) {
	in := compileFile(t, "clf.pads")
	// The undocumented '-' in the length field found by the accumulator
	// in section 5.2.
	data := `1.2.3.4 - - [15/Oct/1997:18:46:51 -0700] "GET /x HTTP/1.0" 200 -` + "\n"
	s := padsrt.NewBytesSource([]byte(data))
	v, _ := in.ParseSource(s)
	arr := v.(*value.Array)
	rec := arr.Elems[0].(*value.Struct)
	if rec.PD().Nerr == 0 {
		t.Fatal("bad length field not detected")
	}
	length := rec.Field("length")
	if length.PD().ErrCode != padsrt.ErrInvalidInt {
		t.Errorf("length pd = %v", length.PD())
	}
	// The record before it is unaffected when parsing continues.
	if rec.Field("response").(*value.Uint).Val != 200 {
		t.Error("good fields before the error were lost")
	}
}

func TestCLFConstraintViolation(t *testing.T) {
	in := compileFile(t, "clf.pads")
	// LINK with HTTP/1.0 violates chkVersion.
	data := `1.2.3.4 - - [15/Oct/1997:18:46:51 -0700] "LINK /x HTTP/1.0" 200 5` + "\n"
	s := padsrt.NewBytesSource([]byte(data))
	v, _ := in.ParseSource(s)
	rec := v.(*value.Array).Elems[0].(*value.Struct)
	ver := rec.Field("request").(*value.Struct).Field("version")
	if ver.PD().ErrCode != padsrt.ErrConstraint {
		t.Errorf("version pd = %v, want ErrConstraint", ver.PD())
	}
	// LINK with HTTP/1.1 is fine.
	data = `1.2.3.4 - - [15/Oct/1997:18:46:51 -0700] "LINK /x HTTP/1.1" 200 5` + "\n"
	s = padsrt.NewBytesSource([]byte(data))
	v, _ = in.ParseSource(s)
	if v.PD().Nerr != 0 {
		t.Errorf("HTTP/1.1 LINK flagged: %v", v.PD())
	}
}

func TestResponseCodeTypedef(t *testing.T) {
	in := compileFile(t, "clf.pads")
	data := `1.2.3.4 - - [15/Oct/1997:18:46:51 -0700] "GET /x HTTP/1.0" 999 5` + "\n"
	s := padsrt.NewBytesSource([]byte(data))
	v, _ := in.ParseSource(s)
	rec := v.(*value.Array).Elems[0].(*value.Struct)
	resp := rec.Field("response")
	if resp.PD().ErrCode != padsrt.ErrConstraint {
		t.Errorf("response pd = %v, want ErrConstraint (999 out of range)", resp.PD())
	}
}

func TestSwitchedUnion(t *testing.T) {
	in := compile(t, `
Punion payload_t (:Puint8 tag:) Pswitch (tag) {
  Pcase 1: Puint32 num;
  Pcase 2: Pstring(:Peor:) text;
  Pdefault: Pchar other;
};
Precord Pstruct msg_t {
  Puint8 tag; '|';
  payload_t(:tag:) payload;
};
Psource Parray msgs_t { msg_t[]; };
`)
	s := padsrt.NewBytesSource([]byte("1|775\n2|hello\n9|x\n"))
	v, err := in.ParseSource(s)
	if err != nil {
		t.Fatal(err)
	}
	arr := v.(*value.Array)
	if arr.PD().Nerr != 0 {
		t.Fatalf("errors: %v", arr.PD())
	}
	p0 := arr.Elems[0].(*value.Struct).Field("payload").(*value.Union)
	if p0.Tag != "num" || p0.Val.(*value.Uint).Val != 775 {
		t.Errorf("msg 0 = %s", value.String(p0))
	}
	p1 := arr.Elems[1].(*value.Struct).Field("payload").(*value.Union)
	if p1.Tag != "text" || p1.Val.(*value.Str).Val != "hello" {
		t.Errorf("msg 1 = %s", value.String(p1))
	}
	p2 := arr.Elems[2].(*value.Struct).Field("payload").(*value.Union)
	if p2.Tag != "other" {
		t.Errorf("msg 2 = %s", value.String(p2))
	}
}

func TestArrayForms(t *testing.T) {
	// Fixed size.
	in := compile(t, `
Parray fixed_t { Puint8[3] : Psep (','); };
Precord Pstruct row_t { fixed_t v; };
Psource Pstruct top_t { row_t r; };
`)
	s := padsrt.NewBytesSource([]byte("1,2,3\n"))
	v, _ := in.ParseSource(s)
	arr := v.(*value.Struct).Field("r").(*value.Struct).Field("v").(*value.Array)
	if len(arr.Elems) != 3 || arr.PD().Nerr != 0 {
		t.Fatalf("fixed array = %s pd=%v", value.String(arr), arr.PD())
	}

	// Too few elements: ErrArraySize.
	s = padsrt.NewBytesSource([]byte("1,2\n"))
	v, _ = in.ParseSource(s)
	arr = v.(*value.Struct).Field("r").(*value.Struct).Field("v").(*value.Array)
	if arr.PD().ErrCode != padsrt.ErrArraySize {
		t.Errorf("short fixed array pd = %v", arr.PD())
	}

	// Plast termination.
	in2 := compile(t, `
Parray untilZero_t { Puint32[] : Psep (' ') && Plast (elt == 0); };
Precord Pstruct row_t { untilZero_t v; ' '; Pstring(:Peor:) rest; };
Psource Pstruct top_t { row_t r; };
`)
	s = padsrt.NewBytesSource([]byte("5 4 0 tail\n"))
	v, _ = in2.ParseSource(s)
	row := v.(*value.Struct).Field("r").(*value.Struct)
	arr = row.Field("v").(*value.Array)
	if len(arr.Elems) != 3 {
		t.Fatalf("Plast array = %s", value.String(arr))
	}
	if rest := row.Field("rest").(*value.Str); rest.Val != "tail" {
		t.Errorf("rest = %q", rest.Val)
	}

	// Literal terminator is consumed.
	in3 := compile(t, `
Parray csv_t { Puint32[] : Psep (',') && Pterm (';'); };
Precord Pstruct row_t { csv_t v; Pstring(:Peor:) rest; };
Psource Pstruct top_t { row_t r; };
`)
	s = padsrt.NewBytesSource([]byte("1,2,3;rest\n"))
	v, _ = in3.ParseSource(s)
	row = v.(*value.Struct).Field("r").(*value.Struct)
	arr = row.Field("v").(*value.Array)
	if len(arr.Elems) != 3 || arr.PD().Nerr != 0 {
		t.Fatalf("terminated array = %s pd=%v", value.String(arr), arr.PD())
	}
	if rest := row.Field("rest").(*value.Str); rest.Val != "rest" {
		t.Errorf("rest = %q (terminator not consumed?)", rest.Val)
	}
}

func TestParameterizedWidth(t *testing.T) {
	in := compile(t, `
Precord Pstruct sized_t {
  Puint32 n; '|';
  Pstring_FW(:n:) body;
};
Psource Parray rows_t { sized_t[]; };
`)
	s := padsrt.NewBytesSource([]byte("5|abcde\n3|xyz\n"))
	v, err := in.ParseSource(s)
	if err != nil {
		t.Fatal(err)
	}
	arr := v.(*value.Array)
	if arr.PD().Nerr != 0 {
		t.Fatalf("errors: %v", arr.PD())
	}
	if b := arr.Elems[0].(*value.Struct).Field("body").(*value.Str); b.Val != "abcde" {
		t.Errorf("body = %q", b.Val)
	}
	if b := arr.Elems[1].(*value.Struct).Field("body").(*value.Str); b.Val != "xyz" {
		t.Errorf("body = %q", b.Val)
	}
}

func TestBinaryFixedRecords(t *testing.T) {
	in := compile(t, `
Pstruct flow_t {
  Pb_uint32 src;
  Pb_uint32 dst;
  Pb_uint16 packets;
  Pb_uint16 bytes;
};
Psource Parray flows_t { flow_t[]; };
`)
	var data []byte
	data = padsrt.AppendBUint(data, 0x0A000001, 4, padsrt.BigEndian)
	data = padsrt.AppendBUint(data, 0x0A000002, 4, padsrt.BigEndian)
	data = padsrt.AppendBUint(data, 7, 2, padsrt.BigEndian)
	data = padsrt.AppendBUint(data, 512, 2, padsrt.BigEndian)
	s := padsrt.NewBytesSource(data, padsrt.WithDiscipline(padsrt.NoRecords()))
	v, err := in.ParseSource(s)
	if err != nil {
		t.Fatal(err)
	}
	arr := v.(*value.Array)
	if len(arr.Elems) != 1 || arr.PD().Nerr != 0 {
		t.Fatalf("flows = %s pd=%v", value.String(arr), arr.PD())
	}
	f := arr.Elems[0].(*value.Struct)
	if f.Field("packets").(*value.Uint).Val != 7 || f.Field("bytes").(*value.Uint).Val != 512 {
		t.Errorf("flow = %s", value.String(f))
	}
}

func TestEBCDICParsing(t *testing.T) {
	in := compile(t, `
Precord Pstruct rec_t {
  Puint32 id; '|';
  Pstring(:Peor:) name;
};
Psource Parray recs_t { rec_t[]; };
`)
	data := padsrt.StringToEBCDICBytes("123|HELLO")
	data = append(data, 0x15) // EBCDIC NL
	s := padsrt.NewBytesSource(data,
		padsrt.WithCoding(padsrt.EBCDIC),
		padsrt.WithDiscipline(&padsrt.NewlineDisc{Term: 0x15}))
	v, err := in.ParseSource(s)
	if err != nil {
		t.Fatal(err)
	}
	arr := v.(*value.Array)
	if arr.PD().Nerr != 0 {
		t.Fatalf("errors: %v", arr.PD())
	}
	rec := arr.Elems[0].(*value.Struct)
	if rec.Field("id").(*value.Uint).Val != 123 || rec.Field("name").(*value.Str).Val != "HELLO" {
		t.Errorf("rec = %s", value.String(rec))
	}
}

func TestCobolDecimals(t *testing.T) {
	in := compile(t, `
Pstruct amount_t {
  Pbcd(:7:) cents;
  Pzoned(:5:) balance;
};
Psource Pstruct top_t { amount_t a; };
`)
	var data []byte
	data = padsrt.WriteBCD(data, 1234567, 7)
	data = padsrt.WriteZoned(data, -42, 5)
	s := padsrt.NewBytesSource(data, padsrt.WithDiscipline(padsrt.NoRecords()))
	v, err := in.ParseSource(s)
	if err != nil {
		t.Fatal(err)
	}
	a := v.(*value.Struct).Field("a").(*value.Struct)
	if a.PD().Nerr != 0 {
		t.Fatalf("errors: %v", a.PD())
	}
	if a.Field("cents").(*value.Int).Val != 1234567 {
		t.Errorf("cents = %s", value.String(a.Field("cents")))
	}
	if a.Field("balance").(*value.Int).Val != -42 {
		t.Errorf("balance = %s", value.String(a.Field("balance")))
	}
}

func TestRecordReader(t *testing.T) {
	in := compileFile(t, "sirius.pads")
	data := readFile(t, "sirius.sample")
	s := padsrt.NewBytesSource(data)
	rr, err := in.NewRecordReader(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Header() == nil || rr.Header().PD().Nerr != 0 {
		t.Fatalf("header = %v", rr.Header())
	}
	if rr.RecordTypeName() != "entry_t" {
		t.Errorf("record type = %s", rr.RecordTypeName())
	}
	n := 0
	for rr.More() {
		rec := rr.Read()
		if rec.PD().Nerr != 0 {
			t.Errorf("record %d errors: %v", n, rec.PD())
		}
		n++
	}
	if n != 2 {
		t.Errorf("records = %d, want 2", n)
	}

	// CLF has no header.
	in2 := compileFile(t, "clf.pads")
	s2 := padsrt.NewBytesSource(readFile(t, "clf.sample"))
	rr2, err := in2.NewRecordReader(s2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rr2.Header() != nil {
		t.Error("CLF should have no header")
	}
	n = 0
	for rr2.More() {
		rr2.Read()
		n++
	}
	if n != 2 {
		t.Errorf("CLF records = %d", n)
	}
}

func TestPanicModeResync(t *testing.T) {
	in := compileFile(t, "clf.pads")
	data := `garbage line that matches nothing
tj62.aol.com - - [16/Oct/1997:14:32:22 -0700] "POST /x HTTP/1.0" 200 941
`
	s := padsrt.NewBytesSource([]byte(data))
	v, _ := in.ParseSource(s)
	arr := v.(*value.Array)
	if len(arr.Elems) != 2 {
		t.Fatalf("records = %d, want 2 (bad + good)", len(arr.Elems))
	}
	if arr.Elems[0].PD().Nerr == 0 {
		t.Error("bad record not flagged")
	}
	if arr.Elems[0].PD().State == padsrt.Normal {
		t.Errorf("bad record state = %v, want Partial or Panicking", arr.Elems[0].PD().State)
	}
	if arr.Elems[1].PD().Nerr != 0 {
		t.Errorf("good record after resync has errors: %v", arr.Elems[1].PD())
	}

	// A record whose damage leaves unconsumed bytes triggers true
	// panic-mode resynchronization.
	data = `1.2.3.4 - - [15/Oct/1997:18:46:51 -0700] "GET /x HTTP/1.0" 999 12 trailing junk
tj62.aol.com - - [16/Oct/1997:14:32:22 -0700] "POST /x HTTP/1.0" 200 941
`
	s = padsrt.NewBytesSource([]byte(data))
	v, _ = in.ParseSource(s)
	arr = v.(*value.Array)
	if arr.Elems[0].PD().State != padsrt.Panicking {
		t.Errorf("state = %v, want Panicking", arr.Elems[0].PD().State)
	}
	if arr.Elems[1].PD().Nerr != 0 {
		t.Errorf("record after panic resync has errors: %v", arr.Elems[1].PD())
	}
}

func TestWriteBackRoundTrip(t *testing.T) {
	cases := []struct{ desc, data string }{
		{"clf.pads", "clf.sample"},
		{"sirius.pads", "sirius.sample"},
	}
	for _, c := range cases {
		in := compileFile(t, c.desc)
		data := readFile(t, c.data)
		s := padsrt.NewBytesSource(data)
		v, err := in.ParseSource(s)
		if err != nil {
			t.Fatal(err)
		}
		if v.PD().Nerr != 0 {
			t.Fatalf("%s: parse errors: %v", c.data, v.PD())
		}
		w := in.NewWriter()
		out, err := w.Append(nil, in.Desc.Source.DeclName(), v)
		if err != nil {
			t.Fatalf("%s: write: %v", c.data, err)
		}
		if string(out) != string(data) {
			t.Errorf("%s: round trip mismatch:\n--- in\n%s\n--- out\n%s", c.data, data, out)
		}
	}
}

func TestWriteRecordAtATime(t *testing.T) {
	in := compileFile(t, "sirius.pads")
	data := readFile(t, "sirius.sample")
	s := padsrt.NewBytesSource(data)
	rr, err := in.NewRecordReader(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := in.NewWriter()
	var out []byte
	out, err = w.Append(out, "summary_header_t", rr.Header())
	if err != nil {
		t.Fatal(err)
	}
	for rr.More() {
		rec := rr.Read()
		out, err = w.Append(out, "entry_t", rec)
		if err != nil {
			t.Fatal(err)
		}
	}
	if string(out) != string(data) {
		t.Errorf("record-at-a-time round trip mismatch:\n%s", out)
	}
}

func TestStreamingLargeInput(t *testing.T) {
	// 20k records through a real reader: memory must stay bounded and
	// every record parse cleanly.
	in := compileFile(t, "sirius.pads")
	line := "7|7|1|9735551212|0||9085551212|07988|152268|LOC_6|0|F|DUO|A|1000|B|2000\n"
	r := &repeatReader{header: "0|1005022800\n", chunk: line, n: 20000}
	s := padsrt.NewSource(r)
	rr, err := in.NewRecordReader(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, bad := 0, 0
	for rr.More() {
		rec := rr.Read()
		if rec.PD().Nerr > 0 {
			bad++
		}
		n++
	}
	if n != 20000 || bad != 0 {
		t.Fatalf("records = %d (bad %d), want 20000 clean", n, bad)
	}
}

type repeatReader struct {
	header string
	chunk  string
	n      int
	off    int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if len(r.header) > 0 {
		n := copy(p, r.header)
		r.header = r.header[n:]
		return n, nil
	}
	if r.n == 0 {
		return 0, errEOF{}
	}
	n := copy(p, r.chunk[r.off:])
	r.off += n
	if r.off == len(r.chunk) {
		r.off = 0
		r.n--
	}
	return n, nil
}

type errEOF struct{}

func (errEOF) Error() string { return "EOF" }

func TestIgnoreMaskStillConsumesSyntax(t *testing.T) {
	in := compileFile(t, "clf.pads")
	data := readFile(t, "clf.sample")
	mask := padsrt.NewMaskNode(padsrt.Ignore)
	s := padsrt.NewBytesSource(data)
	rr, err := in.NewRecordReader(s, mask)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rr.More() {
		rec := rr.Read()
		if rec.PD().Nerr != 0 {
			t.Errorf("ignore-mask parse flagged: %v", rec.PD())
		}
		n++
	}
	if n != 2 {
		t.Errorf("records = %d", n)
	}
}

func TestEnumLongestMatch(t *testing.T) {
	in := compile(t, `
Penum op_t { GET, GETX };
Precord Pstruct r_t { op_t op; };
Psource Parray rs_t { r_t[]; };
`)
	s := padsrt.NewBytesSource([]byte("GETX\nGET\n"))
	v, _ := in.ParseSource(s)
	arr := v.(*value.Array)
	if arr.PD().Nerr != 0 {
		t.Fatalf("errors: %v", arr.PD())
	}
	if m := arr.Elems[0].(*value.Struct).Field("op").(*value.Enum); m.Member != "GETX" {
		t.Errorf("longest match lost: %s", m.Member)
	}
	if m := arr.Elems[1].(*value.Struct).Field("op").(*value.Enum); m.Member != "GET" {
		t.Errorf("member = %s", m.Member)
	}
}

func TestExprEvaluatorViaConstraints(t *testing.T) {
	in := compile(t, `
bool inRange(Puint32 x, Puint32 lo, Puint32 hi) {
  if (x < lo) return false;
  if (x > hi) return false;
  return true;
};
Precord Pstruct r_t {
  Puint32 a;
  ' '; Puint32 b : inRange(b, a, a * 2) && b % 2 == 0;
};
Psource Parray rs_t { r_t[]; };
`)
	s := padsrt.NewBytesSource([]byte("10 14\n10 30\n10 15\n"))
	v, _ := in.ParseSource(s)
	arr := v.(*value.Array)
	if arr.Elems[0].PD().Nerr != 0 {
		t.Errorf("10 14 should pass: %v", arr.Elems[0].PD())
	}
	if arr.Elems[1].PD().Nerr == 0 {
		t.Error("30 > 2*10 should fail")
	}
	if arr.Elems[2].PD().Nerr == 0 {
		t.Error("odd 15 should fail")
	}
}

func TestUnionNoBranchMatches(t *testing.T) {
	in := compile(t, `
Punion num_t {
  Pip ip;
  Puint32 n;
};
Precord Pstruct r_t { num_t v; };
Psource Parray rs_t { r_t[]; };
`)
	s := padsrt.NewBytesSource([]byte("xyz\n"))
	v, _ := in.ParseSource(s)
	rec := v.(*value.Array).Elems[0].(*value.Struct)
	un := rec.Field("v").(*value.Union)
	if un.PD().ErrCode != padsrt.ErrUnionMatch {
		t.Errorf("pd = %v, want ErrUnionMatch", un.PD())
	}
}

func TestEmptyInput(t *testing.T) {
	in := compileFile(t, "clf.pads")
	s := padsrt.NewBytesSource(nil)
	v, err := in.ParseSource(s)
	if err != nil {
		t.Fatal(err)
	}
	arr := v.(*value.Array)
	if len(arr.Elems) != 0 || arr.PD().Nerr != 0 {
		t.Errorf("empty input: %s pd=%v", value.String(arr), arr.PD())
	}
}

func TestValueEqualAndString(t *testing.T) {
	in := compileFile(t, "clf.pads")
	data := readFile(t, "clf.sample")
	v1, _ := in.ParseSource(padsrt.NewBytesSource(data))
	v2, _ := in.ParseSource(padsrt.NewBytesSource(data))
	if !value.Equal(v1, v2) {
		t.Error("identical parses are not Equal")
	}
	if !strings.Contains(value.String(v1), "GET") {
		t.Error("String() lost enum member")
	}
	// Different data: not equal.
	other := strings.Replace(string(data), "200 30", "200 31", 1)
	v3, _ := in.ParseSource(padsrt.NewBytesSource([]byte(other)))
	if value.Equal(v1, v3) {
		t.Error("different parses compare Equal")
	}
}

func TestParseTypeEntryPoint(t *testing.T) {
	in := compileFile(t, "clf.pads")
	// Parse a lone version_t, exercising the per-type entry point.
	s := padsrt.NewBytesSource([]byte("HTTP/1.0 rest\n"))
	s.BeginRecord()
	v, err := in.ParseType("version_t", s, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := v.(*value.Struct)
	if st.PD().Nerr != 0 || st.Field("major").(*value.Uint).Val != 1 || st.Field("minor").(*value.Uint).Val != 0 {
		t.Errorf("version = %s pd=%v", value.String(st), st.PD())
	}
	_, err = in.ParseType("no_such_type", s, nil, nil)
	if err == nil {
		t.Error("unknown type accepted")
	}
}

func TestExprV(t *testing.T) {
	if !expr.EqualV(expr.Int(5), expr.Uint(5)) {
		t.Error("5 != 5u")
	}
	if expr.EqualV(expr.Str("a"), expr.Int(1)) {
		t.Error("string equals int")
	}
	n, err := expr.ToInt(expr.Char('A'))
	if err != nil || n != 65 {
		t.Errorf("ToInt('A') = %d, %v", n, err)
	}
}

func testdataBytes(name string) ([]byte, error) {
	return os.ReadFile(filepath.Join("..", "..", "testdata", name))
}
