// Package xmlgen converts parsed values into a canonical XML embedding and
// generates the XML Schema describing that embedding for a description
// (section 5.3.2 of the paper). Parse descriptors are embedded for buggy
// data so the error portions of a source remain explorable; clean values
// omit them.
package xmlgen

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"

	"pads/internal/dsl"
	"pads/internal/padsrt"
	"pads/internal/sema"
	"pads/internal/value"
)

// WriteXML writes the canonical XML form of v as one element named tag,
// indented by indent levels: the generated <type>_write_xml_2io of Figure 6.
func WriteXML(w io.Writer, v value.Value, tag string, indent int) error {
	p := &printer{w: w}
	p.value(v, tag, indent)
	return p.err
}

// XMLString renders the canonical XML form as a string.
func XMLString(v value.Value, tag string) string {
	var sb strings.Builder
	WriteXML(&sb, v, tag, 0)
	return sb.String()
}

type printer struct {
	w   io.Writer
	err error
}

func (p *printer) printf(format string, args ...interface{}) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func (p *printer) ind(n int) string { return strings.Repeat("  ", n) }

// escaper is built once: a Replacer compiles its lookup table on first use
// and is safe for concurrent use.
var escaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")

// escape makes s XML 1.0 character data. Markup characters become entity
// references; every byte XML 1.0 forbids (control bytes other than tab,
// newline and carriage return) and every invalid UTF-8 sequence becomes
// U+FFFD, so damaged input still yields well-formed XML. Clean ASCII, the
// common case, skips the repair pass.
func escape(s string) string {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= utf8.RuneSelf || c < 0x20 && c != '\t' && c != '\n' && c != '\r' {
			return escaper.Replace(strings.Map(xmlChar, s))
		}
	}
	return escaper.Replace(s)
}

// xmlChar maps a rune XML 1.0 forbids to U+FFFD. strings.Map hands it
// U+FFFD for each invalid UTF-8 byte, which it keeps.
func xmlChar(r rune) rune {
	if r < 0x20 && r != '\t' && r != '\n' && r != '\r' || r == 0xFFFE || r == 0xFFFF {
		return utf8.RuneError
	}
	return r
}

func (p *printer) value(v value.Value, tag string, indent int) {
	if v == nil {
		return
	}
	switch v := v.(type) {
	case *value.Struct:
		p.printf("%s<%s>\n", p.ind(indent), tag)
		for i, n := range v.Names {
			p.value(v.Fields[i], n, indent+1)
		}
		p.pd(v.PD(), indent+1)
		p.printf("%s</%s>\n", p.ind(indent), tag)
	case *value.Union:
		p.printf("%s<%s>\n", p.ind(indent), tag)
		if v.Val != nil {
			p.value(v.Val, v.Tag, indent+1)
		}
		p.pd(v.PD(), indent+1)
		p.printf("%s</%s>\n", p.ind(indent), tag)
	case *value.Array:
		p.printf("%s<%s>\n", p.ind(indent), tag)
		for _, e := range v.Elems {
			p.value(e, "elt", indent+1)
		}
		p.printf("%s<length>%d</length>\n", p.ind(indent+1), len(v.Elems))
		p.pd(v.PD(), indent+1)
		p.printf("%s</%s>\n", p.ind(indent), tag)
	case *value.Opt:
		if v.Present {
			p.value(v.Val, tag, indent)
		} else {
			p.printf("%s<%s/>\n", p.ind(indent), tag)
		}
	case *value.Void:
		p.printf("%s<%s/>\n", p.ind(indent), tag)
	default:
		if v.PD().Nerr > 0 {
			// A buggy leaf embeds its descriptor next to the value.
			p.printf("%s<%s>\n", p.ind(indent), tag)
			p.printf("%s<val>%s</val>\n", p.ind(indent+1), escape(value.Text(v)))
			p.pd(v.PD(), indent+1)
			p.printf("%s</%s>\n", p.ind(indent), tag)
			return
		}
		p.printf("%s<%s>%s</%s>\n", p.ind(indent), tag, escape(value.Text(v)), tag)
	}
}

// pd writes the parse-descriptor element when the value carries errors —
// "we embed not just the in-memory representation … but also the parse
// descriptors in cases where the data was buggy".
func (p *printer) pd(pd *padsrt.PD, indent int) {
	if pd.Nerr == 0 {
		return
	}
	p.printf("%s<pd>\n", p.ind(indent))
	p.printf("%s<pstate>%s</pstate>\n", p.ind(indent+1), pd.State)
	p.printf("%s<nerr>%d</nerr>\n", p.ind(indent+1), pd.Nerr)
	p.printf("%s<errCode>%s</errCode>\n", p.ind(indent+1), escape(pd.ErrCode.String()))
	p.printf("%s<loc>%s</loc>\n", p.ind(indent+1), pd.Loc)
	p.printf("%s</pd>\n", p.ind(indent))
}

// ValidName reports whether s is an XML 1.0 Name (Fifth Edition, production
// [5]): a NameStartChar followed by NameChars. Element names written into
// markup unescaped must pass it.
func ValidName(s string) bool {
	if s == "" || !utf8.ValidString(s) {
		return false
	}
	for i, r := range s {
		if !inRanges(r, nameStart) && (i == 0 || !inRanges(r, nameRest)) {
			return false
		}
	}
	return true
}

// nameStart are the NameStartChar ranges; nameRest adds the other NameChars.
var (
	nameStart = [][2]rune{{':', ':'}, {'A', 'Z'}, {'_', '_'}, {'a', 'z'}, {0xC0, 0xD6}, {0xD8, 0xF6},
		{0xF8, 0x2FF}, {0x370, 0x37D}, {0x37F, 0x1FFF}, {0x200C, 0x200D}, {0x2070, 0x218F},
		{0x2C00, 0x2FEF}, {0x3001, 0xD7FF}, {0xF900, 0xFDCF}, {0xFDF0, 0xFFFD}, {0x10000, 0xEFFFF}}
	nameRest = [][2]rune{{'-', '.'}, {'0', '9'}, {0xB7, 0xB7}, {0x300, 0x36F}, {0x203F, 0x2040}}
)

func inRanges(r rune, ranges [][2]rune) bool {
	for _, rg := range ranges {
		if rg[0] <= r && r <= rg[1] {
			return true
		}
	}
	return false
}

// ---- XML Schema generation ----

// Schema generates the XML Schema for the canonical embedding of the whole
// description. Each declared type yields a complexType (plus a companion
// <name>_pd type), matching the paper's eventSeq example.
func Schema(desc *sema.Desc) string {
	var b strings.Builder
	b.WriteString(`<?xml version="1.0"?>` + "\n")
	b.WriteString(`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">` + "\n\n")
	for _, d := range desc.Program.Decls {
		if _, ok := d.(*dsl.FuncDecl); ok {
			continue
		}
		writeDeclSchema(&b, desc, d)
	}
	b.WriteString("</xs:schema>\n")
	return b.String()
}

// SchemaFor generates just the complexTypes of one declaration, as the
// paper's excerpt shows for eventSeq.
func SchemaFor(desc *sema.Desc, name string) (string, error) {
	d, ok := desc.Types[name]
	if !ok {
		return "", fmt.Errorf("xmlgen: unknown type %s", name)
	}
	var b strings.Builder
	writeDeclSchema(&b, desc, d)
	return b.String(), nil
}

func xsdBase(kind sema.Kind, name string) string {
	if sema.LookupBase(name) != nil {
		return name // base types keep their PADS names, as in the paper
	}
	switch kind {
	case sema.KUint, sema.KInt:
		return "xs:integer"
	case sema.KFloat:
		return "xs:decimal"
	case sema.KString, sema.KChar, sema.KDate, sema.KIP:
		return "xs:string"
	}
	return name
}

func refTypeName(tr dsl.TypeRef) string { return tr.Name }

func writePDType(b *strings.Builder, name string, array bool) {
	fmt.Fprintf(b, "<xs:complexType name=\"%s_pd\">\n", name)
	b.WriteString("  <xs:sequence>\n")
	b.WriteString("    <xs:element name=\"pstate\" type=\"Pflags_t\"/>\n")
	b.WriteString("    <xs:element name=\"nerr\" type=\"Puint32\"/>\n")
	b.WriteString("    <xs:element name=\"errCode\" type=\"PerrCode_t\"/>\n")
	b.WriteString("    <xs:element name=\"loc\" type=\"Ploc_t\"/>\n")
	if array {
		b.WriteString("    <xs:element name=\"neerr\" type=\"Puint32\"/>\n")
		b.WriteString("    <xs:element name=\"firstError\" type=\"Puint32\"/>\n")
		b.WriteString("    <xs:element name=\"elt\" type=\"Puint32\"\n")
		b.WriteString("        minOccurs=\"0\" maxOccurs=\"unbounded\"/>\n")
	}
	b.WriteString("  </xs:sequence>\n")
	b.WriteString("</xs:complexType>\n\n")
}

func writeDeclSchema(b *strings.Builder, desc *sema.Desc, d dsl.Decl) {
	switch d := d.(type) {
	case *dsl.StructDecl:
		writePDType(b, d.Name, false)
		fmt.Fprintf(b, "<xs:complexType name=\"%s\">\n", d.Name)
		b.WriteString("  <xs:sequence>\n")
		for _, it := range d.Items {
			if it.Field == nil {
				continue
			}
			t := refTypeName(it.Field.Type)
			if it.Field.Type.Opt {
				fmt.Fprintf(b, "    <xs:element name=\"%s\" type=\"%s\" minOccurs=\"0\"/>\n", it.Field.Name, t)
			} else {
				fmt.Fprintf(b, "    <xs:element name=\"%s\" type=\"%s\"/>\n", it.Field.Name, t)
			}
		}
		fmt.Fprintf(b, "    <xs:element name=\"pd\" type=\"%s_pd\"\n        minOccurs=\"0\" maxOccurs=\"1\"/>\n", d.Name)
		b.WriteString("  </xs:sequence>\n")
		b.WriteString("</xs:complexType>\n\n")
	case *dsl.UnionDecl:
		writePDType(b, d.Name, false)
		fmt.Fprintf(b, "<xs:complexType name=\"%s\">\n", d.Name)
		b.WriteString("  <xs:sequence>\n")
		b.WriteString("    <xs:choice>\n")
		branches := d.Branches
		if d.Switch != nil {
			for i := range d.Switch.Cases {
				branches = append(branches, d.Switch.Cases[i].Field)
			}
		}
		for i := range branches {
			fmt.Fprintf(b, "      <xs:element name=\"%s\" type=\"%s\"/>\n", branches[i].Name, refTypeName(branches[i].Type))
		}
		b.WriteString("    </xs:choice>\n")
		fmt.Fprintf(b, "    <xs:element name=\"pd\" type=\"%s_pd\"\n        minOccurs=\"0\" maxOccurs=\"1\"/>\n", d.Name)
		b.WriteString("  </xs:sequence>\n")
		b.WriteString("</xs:complexType>\n\n")
	case *dsl.ArrayDecl:
		writePDType(b, d.Name, true)
		fmt.Fprintf(b, "<xs:complexType name=\"%s\">\n", d.Name)
		b.WriteString("  <xs:sequence>\n")
		fmt.Fprintf(b, "    <xs:element name=\"elt\" type=\"%s\"\n        minOccurs=\"0\" maxOccurs=\"unbounded\"/>\n", refTypeName(d.Elem))
		b.WriteString("    <xs:element name=\"length\" type=\"Puint32\"/>\n")
		fmt.Fprintf(b, "    <xs:element name=\"pd\" type=\"%s_pd\"\n        minOccurs=\"0\" maxOccurs=\"1\"/>\n", d.Name)
		b.WriteString("  </xs:sequence>\n")
		b.WriteString("</xs:complexType>\n\n")
	case *dsl.EnumDecl:
		fmt.Fprintf(b, "<xs:simpleType name=\"%s\">\n", d.Name)
		b.WriteString("  <xs:restriction base=\"xs:string\">\n")
		for _, m := range d.Members {
			fmt.Fprintf(b, "    <xs:enumeration value=\"%s\"/>\n", m.Name)
		}
		b.WriteString("  </xs:restriction>\n")
		b.WriteString("</xs:simpleType>\n\n")
	case *dsl.TypedefDecl:
		under := xsdBase(sema.KTypedef, d.Base.Name)
		fmt.Fprintf(b, "<xs:simpleType name=\"%s\">\n", d.Name)
		fmt.Fprintf(b, "  <xs:restriction base=\"%s\"/>\n", under)
		b.WriteString("</xs:simpleType>\n\n")
	}
}
