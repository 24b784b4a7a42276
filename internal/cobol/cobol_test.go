package cobol

import (
	"strings"
	"testing"

	"pads/internal/dsl"
	"pads/internal/interp"
	"pads/internal/padsrt"
	"pads/internal/sema"
	"pads/internal/value"
)

const copybook = `
* Altair-style billing record.
01 BILLING-RECORD.
   05 ACCOUNT-ID        PIC 9(8).
   05 CUSTOMER-NAME     PIC X(12).
   05 BALANCE           PIC S9(7)V99 COMP-3.
   05 REGION-CODE       PIC 99.
   05 USAGE-BLOCK.
      10 CALL-COUNT     PIC 9(5).
      10 TOTAL-MINUTES  PIC S9(5) COMP.
   05 MONTH-TOTALS      PIC S9(5) OCCURS 3 TIMES.
   05 FILLER            PIC X(2).
   88 IS-CLOSED         VALUE 'C'.
`

func TestTranslateStructure(t *testing.T) {
	prog, err := Translate(copybook)
	if err != nil {
		t.Fatal(err)
	}
	printed := dsl.Print(prog)
	for _, want := range []string{
		"Pstruct usage_block",
		"Precord Pstruct billing_record",
		"Puint32_FW(:8:) account_id",
		"Pstring_FW(:12:) customer_name",
		"Pbcd(:9:) balance", // 7 integer + 2 fraction digits
		"Puint8_FW(:2:) region_code",
		"Puint32_FW(:5:) call_count",
		"Pb_int32 total_minutes",
		"Parray month_totals_occurs",
		"Pzoned(:5:)[3]",
		"Pstring_FW(:2:) filler_1",
		"Psource Parray billing_record_file",
	} {
		if !strings.Contains(printed, want) {
			t.Errorf("translated description missing %q:\n%s", want, printed)
		}
	}
	// 88-level condition names carry no storage.
	if strings.Contains(printed, "is_closed") {
		t.Error("condition name leaked into the description")
	}
}

func TestTranslatedDescriptionChecks(t *testing.T) {
	prog, err := Translate(copybook)
	if err != nil {
		t.Fatal(err)
	}
	_, serrs := sema.Check(prog)
	for _, e := range serrs {
		t.Errorf("check: %v", e)
	}
}

// TestParseEBCDICBillingData runs the full Altair path: copybook ->
// description -> parse EBCDIC data with packed decimals and binary fields.
func TestParseEBCDICBillingData(t *testing.T) {
	prog, err := Translate(copybook)
	if err != nil {
		t.Fatal(err)
	}
	desc, serrs := sema.Check(prog)
	if len(serrs) > 0 {
		t.Fatalf("check: %v", serrs[0])
	}
	in, err := interp.New(desc)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}

	// Build one record by hand.
	var rec []byte
	rec = append(rec, padsrt.StringToEBCDICBytes("00012345")...)     // account id
	rec = append(rec, padsrt.StringToEBCDICBytes("SMITH JOHN  ")...) // name
	rec = padsrt.WriteBCD(rec, -1234567, 9)                          // balance -12345.67
	rec = append(rec, padsrt.StringToEBCDICBytes("07")...)           // region
	rec = append(rec, padsrt.StringToEBCDICBytes("00042")...)        // call count
	rec = padsrt.AppendBUint(rec, uint64(98765), 4, padsrt.BigEndian)
	rec = padsrt.WriteZoned(rec, 100, 5)
	rec = padsrt.WriteZoned(rec, -200, 5)
	rec = padsrt.WriteZoned(rec, 300, 5)
	rec = append(rec, padsrt.StringToEBCDICBytes("  ")...)

	// Two length-prefixed records, the Cobol framing of section 3.
	var data []byte
	d := padsrt.LenPrefix()
	padsrt.FrameRecord(d, &data, rec)
	padsrt.FrameRecord(d, &data, rec)

	s := padsrt.NewBytesSource(data,
		padsrt.WithDiscipline(padsrt.LenPrefix()),
		padsrt.WithCoding(padsrt.EBCDIC))
	v, err := in.ParseSource(s)
	if err != nil {
		t.Fatal(err)
	}
	arr := v.(*value.Array)
	if arr.PD().Nerr != 0 {
		t.Fatalf("parse errors: %v (%s)", arr.PD(), value.String(arr))
	}
	if len(arr.Elems) != 2 {
		t.Fatalf("records = %d", len(arr.Elems))
	}
	r := arr.Elems[0].(*value.Struct)
	if got := r.Field("account_id").(*value.Uint).Val; got != 12345 {
		t.Errorf("account_id = %d", got)
	}
	if got := r.Field("customer_name").(*value.Str).Val; got != "SMITH JOHN  " {
		t.Errorf("name = %q", got)
	}
	if got := r.Field("balance").(*value.Int).Val; got != -1234567 {
		t.Errorf("balance = %d", got)
	}
	usage := r.Field("usage_block").(*value.Struct)
	if got := usage.Field("total_minutes").(*value.Int).Val; got != 98765 {
		t.Errorf("total_minutes = %d", got)
	}
	months := r.Field("month_totals").(*value.Array)
	if len(months.Elems) != 3 || months.Elems[1].(*value.Int).Val != -200 {
		t.Errorf("month_totals = %s", value.String(months))
	}
}

func TestPicParsing(t *testing.T) {
	cases := []struct {
		pic    string
		alpha  bool
		digits int
		scale  int
		signed bool
		width  int
	}{
		{"X(10)", true, 0, 0, false, 10},
		{"XXX", true, 0, 0, false, 3},
		{"9(5)", false, 5, 0, false, 0},
		{"999", false, 3, 0, false, 0},
		{"S9(7)V99", false, 9, 2, true, 0},
		{"S9(4)", false, 4, 0, true, 0},
		{"9(3)V9(2)", false, 5, 2, false, 0},
	}
	for _, c := range cases {
		p, err := parsePic(c.pic)
		if err != nil {
			t.Errorf("parsePic(%q): %v", c.pic, err)
			continue
		}
		if p.Alpha != c.alpha || p.Digits != c.digits || p.Scale != c.scale || p.Signed != c.signed || p.RawWidth != c.width {
			t.Errorf("parsePic(%q) = %+v", c.pic, p)
		}
	}
	if _, err := parsePic("Q(3)"); err == nil {
		t.Error("unsupported picture accepted")
	}
}

func TestTranslateErrors(t *testing.T) {
	cases := []string{
		"05 NOT-A-RECORD PIC X(3).", // elementary at top level
		"01 R.\n   05 F PIC 9(44).", // too many digits
		"01 R.\n   05 F PIC.",       // missing picture
		"01 R.\n   xx F PIC X.",     // bad level
		"",                          // empty
	}
	for _, src := range cases {
		if _, err := Translate(src); err == nil {
			t.Errorf("Translate(%q) succeeded", src)
		}
	}
}

func TestRedefinesSkipped(t *testing.T) {
	prog, err := Translate(`
01 R.
   05 A PIC 9(4).
   05 B REDEFINES A PIC X(4).
   05 C PIC X(1).
`)
	if err != nil {
		t.Fatal(err)
	}
	printed := dsl.Print(prog)
	if strings.Contains(printed, " b;") {
		t.Errorf("REDEFINES alternative kept:\n%s", printed)
	}
	if !strings.Contains(printed, "Pstring_FW(:1:) c") {
		t.Errorf("field after REDEFINES lost:\n%s", printed)
	}
}
