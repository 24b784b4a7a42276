// Package value defines the generic in-memory representation the
// description interpreter produces: one Value per parsed component, each
// carrying its own parse descriptor, mirroring the per-type representation +
// parse-descriptor pairs of the generated C library (Figure 6 of the paper).
package value

import (
	"fmt"
	"strconv"
	"strings"

	"pads/internal/padsrt"
	"pads/internal/sema"
)

// Value is any parsed datum. Every value carries a parse descriptor
// describing the syntactic and semantic errors detected while parsing it.
type Value interface {
	Kind() sema.Kind
	PD() *padsrt.PD
	// TypeName is the declared or base type name this value was parsed as.
	TypeName() string
}

// Common is the bookkeeping embedded in every value: the parse descriptor
// and the type name the value was parsed as.
type Common struct {
	Pd   padsrt.PD
	Type string
}

func (c *Common) PD() *padsrt.PD   { return &c.Pd }
func (c *Common) TypeName() string { return c.Type }

// Uint is an unsigned integer value.
type Uint struct {
	Common
	Val  uint64
	Bits int
}

// Int is a signed integer value.
type Int struct {
	Common
	Val  int64
	Bits int
}

// Float is a floating-point value.
type Float struct {
	Common
	Val  float64
	Bits int
}

// Char is a one-character value (stored as ASCII).
type Char struct {
	Common
	Val byte
}

// Str is a string value (Pstring*, Phostname, Pzip).
type Str struct {
	Common
	Val string
}

// Date is a parsed date: epoch seconds plus the raw source text, which is
// preserved so data can be written back out unchanged.
type Date struct {
	Common
	Sec int64
	Raw string
}

// IP is an IPv4 address in host order.
type IP struct {
	Common
	Val uint32
}

// Void is the result of parsing Pempty or the absent branch of a Popt.
type Void struct {
	Common
}

// Enum is an enumeration value.
type Enum struct {
	Common
	Member string // literal name; "" when the parse failed
	Index  int
}

// Struct is a parsed Pstruct: parallel field names and values (literal
// items do not produce fields).
type Struct struct {
	Common
	Names  []string
	Fields []Value
}

// Field returns the named field, or nil.
func (s *Struct) Field(name string) Value {
	for i, n := range s.Names {
		if n == name {
			return s.Fields[i]
		}
	}
	return nil
}

// Union is a parsed Punion: the branch name that matched and its value.
type Union struct {
	Common
	Tag    string
	TagIdx int
	Val    Value
}

// Array is a parsed Parray.
type Array struct {
	Common
	Elems []Value
}

// Opt is a parsed Popt: either the present value or nothing.
type Opt struct {
	Common
	Present bool
	Val     Value // nil when absent
}

func (*Uint) Kind() sema.Kind   { return sema.KUint }
func (*Int) Kind() sema.Kind    { return sema.KInt }
func (*Float) Kind() sema.Kind  { return sema.KFloat }
func (*Char) Kind() sema.Kind   { return sema.KChar }
func (*Str) Kind() sema.Kind    { return sema.KString }
func (*Date) Kind() sema.Kind   { return sema.KDate }
func (*IP) Kind() sema.Kind     { return sema.KIP }
func (*Void) Kind() sema.Kind   { return sema.KVoid }
func (*Enum) Kind() sema.Kind   { return sema.KEnum }
func (*Struct) Kind() sema.Kind { return sema.KStruct }
func (*Union) Kind() sema.Kind  { return sema.KUnion }
func (*Array) Kind() sema.Kind  { return sema.KArray }
func (*Opt) Kind() sema.Kind    { return sema.KOpt }

// NewCommon builds the embedded bookkeeping for a value of the given type.
func NewCommon(typeName string) Common { return Common{Type: typeName} }

// String renders a value compactly for diagnostics and tests.
func String(v Value) string {
	var b strings.Builder
	writeString(&b, v)
	return b.String()
}

func writeString(b *strings.Builder, v Value) {
	switch v := v.(type) {
	case *Uint:
		fmt.Fprintf(b, "%d", v.Val)
	case *Int:
		fmt.Fprintf(b, "%d", v.Val)
	case *Float:
		fmt.Fprintf(b, "%g", v.Val)
	case *Char:
		fmt.Fprintf(b, "%q", rune(v.Val))
	case *Str:
		fmt.Fprintf(b, "%q", v.Val)
	case *Date:
		fmt.Fprintf(b, "date(%d,%q)", v.Sec, v.Raw)
	case *IP:
		b.WriteString(padsrt.FormatIP(v.Val))
	case *Void:
		b.WriteString("void")
	case *Enum:
		if v.Member == "" {
			b.WriteString("<bad-enum>")
		} else {
			b.WriteString(v.Member)
		}
	case *Struct:
		b.WriteString(v.Type)
		b.WriteByte('{')
		for i, n := range v.Names {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(n)
			b.WriteByte('=')
			writeString(b, v.Fields[i])
		}
		b.WriteByte('}')
	case *Union:
		fmt.Fprintf(b, "%s.%s=", v.Type, v.Tag)
		if v.Val != nil {
			writeString(b, v.Val)
		} else {
			b.WriteString("<none>")
		}
	case *Array:
		b.WriteByte('[')
		for i, e := range v.Elems {
			if i > 0 {
				b.WriteString(", ")
			}
			writeString(b, e)
		}
		b.WriteByte(']')
	case *Opt:
		if v.Present {
			b.WriteString("some(")
			writeString(b, v.Val)
			b.WriteByte(')')
		} else {
			b.WriteString("none")
		}
	default:
		b.WriteString("<nil>")
	}
}

// Text is a leaf's canonical text, shown alike by the XML embedding and
// the query engine: decimal integers, %g floats, a date's raw text, dotted
// IP addresses and enum member names. Compound values have none.
func Text(v Value) string {
	switch v := v.(type) {
	case *Uint:
		return strconv.FormatUint(v.Val, 10)
	case *Int:
		return strconv.FormatInt(v.Val, 10)
	case *Float:
		return fmt.Sprintf("%g", v.Val)
	case *Char:
		return string(v.Val)
	case *Str:
		return v.Val
	case *Date:
		return v.Raw
	case *IP:
		return padsrt.FormatIP(v.Val)
	case *Enum:
		return v.Member
	}
	return ""
}

// TotalErrors sums the error counts in a value tree's descriptors without
// double counting: a compound descriptor already aggregates its children, so
// the root descriptor's count is authoritative.
func TotalErrors(v Value) uint32 {
	if v == nil {
		return 0
	}
	return v.PD().Nerr
}

// EqualFull reports whether two value trees are indistinguishable: same
// shapes, same data, same type names, and bit-identical parse descriptors
// (state, error count, first error code and location) at every node. The
// bytecode VM is held to this standard against the reference AST walk —
// where the looser Equal tolerates descriptor drift, EqualFull does not.
func EqualFull(a, b Value) bool { return DiffFull(a, b) == "" }

// DiffFull explains the first difference EqualFull would reject, as a dotted
// path with a description, or "" when the trees are indistinguishable.
func DiffFull(a, b Value) string { return diffFull(a, b, "$") }

func diffFull(a, b Value, path string) string {
	if a == nil || b == nil {
		if a == b {
			return ""
		}
		return fmt.Sprintf("%s: nil mismatch (%T vs %T)", path, a, b)
	}
	if a.TypeName() != b.TypeName() {
		return fmt.Sprintf("%s: type name %q vs %q", path, a.TypeName(), b.TypeName())
	}
	if apd, bpd := a.PD(), b.PD(); *apd != *bpd {
		return fmt.Sprintf("%s: pd %+v vs %+v", path, *apd, *bpd)
	}
	switch a := a.(type) {
	case *Struct:
		bb, ok := b.(*Struct)
		if !ok || len(a.Fields) != len(bb.Fields) {
			return fmt.Sprintf("%s: struct shape differs", path)
		}
		for i := range a.Fields {
			if a.Names[i] != bb.Names[i] {
				return fmt.Sprintf("%s: field %d named %q vs %q", path, i, a.Names[i], bb.Names[i])
			}
			if d := diffFull(a.Fields[i], bb.Fields[i], path+"."+a.Names[i]); d != "" {
				return d
			}
		}
	case *Union:
		bb, ok := b.(*Union)
		if !ok || a.Tag != bb.Tag || a.TagIdx != bb.TagIdx {
			return fmt.Sprintf("%s: union tag %q/%d vs %q/%d", path, a.Tag, a.TagIdx, bb.Tag, bb.TagIdx)
		}
		if a.Val == nil || bb.Val == nil {
			if a.Val != bb.Val {
				return fmt.Sprintf("%s: union value presence differs", path)
			}
			return ""
		}
		return diffFull(a.Val, bb.Val, path+"."+a.Tag)
	case *Array:
		bb, ok := b.(*Array)
		if !ok || len(a.Elems) != len(bb.Elems) {
			return fmt.Sprintf("%s: array length differs", path)
		}
		for i := range a.Elems {
			if d := diffFull(a.Elems[i], bb.Elems[i], fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	case *Opt:
		bb, ok := b.(*Opt)
		if !ok || a.Present != bb.Present {
			return fmt.Sprintf("%s: opt presence differs", path)
		}
		if a.Present {
			return diffFull(a.Val, bb.Val, path+".val")
		}
	case *Enum:
		bb, ok := b.(*Enum)
		if !ok || a.Member != bb.Member || a.Index != bb.Index {
			return fmt.Sprintf("%s: enum differs", path)
		}
	case *Date:
		bb, ok := b.(*Date)
		if !ok || a.Sec != bb.Sec || a.Raw != bb.Raw {
			return fmt.Sprintf("%s: date differs", path)
		}
	default:
		if !Equal(a, b) {
			return fmt.Sprintf("%s: value %s vs %s", path, String(a), String(b))
		}
	}
	return ""
}

// Equal compares two value trees structurally, ignoring parse descriptors.
// The differential tests use it to confirm the interpreter and the generated
// parsers agree.
func Equal(a, b Value) bool {
	switch a := a.(type) {
	case *Uint:
		bb, ok := b.(*Uint)
		return ok && a.Val == bb.Val
	case *Int:
		bb, ok := b.(*Int)
		return ok && a.Val == bb.Val
	case *Float:
		bb, ok := b.(*Float)
		return ok && a.Val == bb.Val
	case *Char:
		bb, ok := b.(*Char)
		return ok && a.Val == bb.Val
	case *Str:
		bb, ok := b.(*Str)
		return ok && a.Val == bb.Val
	case *Date:
		bb, ok := b.(*Date)
		return ok && a.Sec == bb.Sec
	case *IP:
		bb, ok := b.(*IP)
		return ok && a.Val == bb.Val
	case *Void:
		_, ok := b.(*Void)
		return ok
	case *Enum:
		bb, ok := b.(*Enum)
		return ok && a.Member == bb.Member
	case *Struct:
		bb, ok := b.(*Struct)
		if !ok || len(a.Fields) != len(bb.Fields) {
			return false
		}
		for i := range a.Fields {
			if a.Names[i] != bb.Names[i] || !Equal(a.Fields[i], bb.Fields[i]) {
				return false
			}
		}
		return true
	case *Union:
		bb, ok := b.(*Union)
		if !ok || a.Tag != bb.Tag {
			return false
		}
		if a.Val == nil || bb.Val == nil {
			return a.Val == bb.Val
		}
		return Equal(a.Val, bb.Val)
	case *Array:
		bb, ok := b.(*Array)
		if !ok || len(a.Elems) != len(bb.Elems) {
			return false
		}
		for i := range a.Elems {
			if !Equal(a.Elems[i], bb.Elems[i]) {
				return false
			}
		}
		return true
	case *Opt:
		bb, ok := b.(*Opt)
		if !ok || a.Present != bb.Present {
			return false
		}
		return !a.Present || Equal(a.Val, bb.Val)
	}
	return a == nil && b == nil
}
