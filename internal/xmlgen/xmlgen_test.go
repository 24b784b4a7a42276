package xmlgen

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

func load(t *testing.T, name string) (*sema.Desc, *interp.Interp) {
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
	return desc, interp.New(desc)
}

// TestEventSeqSchema reproduces the section 5.3.2 XML Schema excerpt for
// the Sirius eventSeq type (E8): both complexTypes with the same element
// structure the paper prints.
func TestEventSeqSchema(t *testing.T) {
	desc, _ := load(t, "sirius.pads")
	got, err := SchemaFor(desc, "eventSeq")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`<xs:complexType name="eventSeq_pd">`,
		`<xs:element name="pstate" type="Pflags_t"/>`,
		`<xs:element name="nerr" type="Puint32"/>`,
		`<xs:element name="errCode" type="PerrCode_t"/>`,
		`<xs:element name="loc" type="Ploc_t"/>`,
		`<xs:element name="neerr" type="Puint32"/>`,
		`<xs:element name="firstError" type="Puint32"/>`,
		`<xs:complexType name="eventSeq">`,
		`<xs:element name="elt" type="event_t"`,
		`minOccurs="0" maxOccurs="unbounded"/>`,
		`<xs:element name="length" type="Puint32"/>`,
		`<xs:element name="pd" type="eventSeq_pd"`,
		`minOccurs="0" maxOccurs="1"/>`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("schema missing %q:\n%s", want, got)
		}
	}
}

func TestFullSchema(t *testing.T) {
	desc, _ := load(t, "clf.pads")
	got := Schema(desc)
	for _, want := range []string{
		`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">`,
		`<xs:complexType name="entry_t">`,
		`<xs:simpleType name="method_t">`,
		`<xs:enumeration value="GET"/>`,
		`<xs:choice>`,
		`<xs:element name="ip" type="Pip"/>`,
		`<xs:simpleType name="response_t">`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("schema missing %q", want)
		}
	}
	if strings.Contains(got, "chkVersion") {
		t.Error("functions must not appear in the schema")
	}
}

func TestXMLOutputCleanValue(t *testing.T) {
	_, in := load(t, "sirius.pads")
	data, _ := os.ReadFile(filepath.Join("..", "..", "testdata", "sirius.sample"))
	s := padsrt.NewBytesSource(data)
	rr, err := in.NewRecordReader(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := rr.Read()
	out := XMLString(rec, "entry")
	for _, want := range []string{
		"<entry>", "</entry>",
		"<header>", "<order_num>9152</order_num>",
		"<ramp>", "<genRamp>", "<id>152272</id>",
		"<events>", "<elt>", "<state>10</state>", "<length>1</length>",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("xml missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "<pd>") {
		t.Error("clean value should carry no pd element")
	}
	// Absent optional renders as an empty element.
	if !strings.Contains(out, "<nlp_service_tn/>") {
		t.Errorf("absent optional missing:\n%s", out)
	}
}

func TestXMLEmbedsPDForBuggyData(t *testing.T) {
	_, in := load(t, "clf.pads")
	data := `1.2.3.4 - - [15/Oct/1997:18:46:51 -0700] "GET /x HTTP/1.0" 999 5` + "\n"
	s := padsrt.NewBytesSource([]byte(data))
	v, _ := in.ParseSource(s)
	rec := v.(*value.Array).Elems[0]
	out := XMLString(rec, "entry")
	for _, want := range []string{
		"<pd>", "<pstate>", "<nerr>", "<errCode>user constraint violated</errCode>", "<loc>",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("xml missing %q:\n%s", want, out)
		}
	}
}

func TestXMLEscaping(t *testing.T) {
	str := &value.Str{Val: `a<b&"c>`}
	out := XMLString(str, "s")
	if out != "<s>a&lt;b&amp;&quot;c&gt;</s>\n" {
		t.Errorf("escaped = %q", out)
	}
}

// TestValidName: element names follow the XML 1.0 Name production, so a
// name that would break the markup around it is refused.
func TestValidName(t *testing.T) {
	for _, ok := range []string{"source", "log", "_x", "a-b.c9", "ns:root", "été", "A·b"} {
		if !ValidName(ok) {
			t.Errorf("ValidName(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", "a><b", "9x", "-x", ".x", "a b", "a/b", "a&b", `a"b`, "x\xff", "·x"} {
		if ValidName(bad) {
			t.Errorf("ValidName(%q) = true, want false", bad)
		}
	}
}
