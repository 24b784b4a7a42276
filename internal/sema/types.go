// Package sema implements semantic analysis for PADS descriptions: symbol
// resolution (types are declared before use), the base-type registry, arity
// and argument checking for parameterized types, and type checking of the
// expression sub-language used in constraints, Pwhere clauses, switch
// selectors, and array termination predicates.
package sema

import "fmt"

// Kind classifies the in-memory representation of a value.
type Kind int

// Value kinds.
const (
	KInvalid Kind = iota
	KUint         // unsigned integer (Puint*, Pb_uint*, …)
	KInt          // signed integer
	KFloat        // floating point
	KChar         // one character
	KString       // text (also hostnames and zip codes)
	KBool         // expression-only
	KDate         // epoch seconds plus raw text
	KIP           // IPv4 address as uint32
	KEnum         // enumeration
	KStruct
	KUnion
	KArray
	KOpt
	KTypedef
	KVoid // Pempty / the absent branch of a Popt
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KUint:
		return "uint"
	case KInt:
		return "int"
	case KFloat:
		return "float"
	case KChar:
		return "char"
	case KString:
		return "string"
	case KBool:
		return "bool"
	case KDate:
		return "date"
	case KIP:
		return "ip"
	case KEnum:
		return "enum"
	case KStruct:
		return "struct"
	case KUnion:
		return "union"
	case KArray:
		return "array"
	case KOpt:
		return "opt"
	case KTypedef:
		return "typedef"
	case KVoid:
		return "void"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Numeric reports whether values of the kind participate in arithmetic and
// ordering (C-style: chars, enums, and dates count as integers).
func (k Kind) Numeric() bool {
	switch k {
	case KUint, KInt, KFloat, KChar, KDate, KIP, KEnum:
		return true
	}
	return false
}

// Type is the semantic type of a value or expression.
type Type struct {
	Kind Kind
	Name string // declared name for named types; base-type name for bases
	Elem *Type  // element type for arrays, inner type for opts/typedefs
}

// String renders the type.
func (t *Type) String() string {
	if t == nil {
		return "<nil>"
	}
	switch t.Kind {
	case KArray:
		return t.Name + "[]"
	case KOpt:
		return "Popt " + t.Elem.String()
	default:
		if t.Name != "" {
			return t.Name
		}
		return t.Kind.String()
	}
}

// ArgKind constrains a base-type argument.
type ArgKind int

// Argument kinds for base types.
const (
	ArgInt    ArgKind = iota // a numeric expression (widths, digit counts)
	ArgChar                  // a character (terminators); Peor/Peof allowed
	ArgRegexp                // a Pre "…" literal
)

// BaseInfo describes one base type: its value kind, integer bit width where
// relevant, and its argument signature. The collection is user-extensible at
// run time (RegisterBase), mirroring how the C implementation reads base
// type specifications from files (section 6).
type BaseInfo struct {
	Name string
	Kind Kind
	Bits int // integer width for K{Int,Uint}; float width for KFloat
	Args []ArgKind
	// Coding distinguishes the families for the runtime dispatch:
	// "" ambient, "a" ASCII, "e" EBCDIC, "b" binary, "bcd"/"zoned" Cobol.
	Coding string
	FW     bool // fixed-width variant (first arg is the byte width)
}

// baseTypes is the built-in registry.
var baseTypes = map[string]*BaseInfo{}

func reg(b BaseInfo) { baseTypes[b.Name] = &b }

func init() {
	// Character types.
	reg(BaseInfo{Name: "Pchar", Kind: KChar})
	reg(BaseInfo{Name: "Pa_char", Kind: KChar, Coding: "a"})
	reg(BaseInfo{Name: "Pe_char", Kind: KChar, Coding: "e"})
	reg(BaseInfo{Name: "Pb_char", Kind: KChar, Coding: "b"})

	// Integer families: ambient, ASCII, EBCDIC-character, binary.
	for _, bits := range []int{8, 16, 32, 64} {
		for _, fam := range []struct {
			prefix string
			coding string
		}{{"P", ""}, {"Pa_", "a"}, {"Pe_", "e"}, {"Pb_", "b"}} {
			reg(BaseInfo{Name: fmt.Sprintf("%sint%d", fam.prefix, bits), Kind: KInt, Bits: bits, Coding: fam.coding})
			reg(BaseInfo{Name: fmt.Sprintf("%suint%d", fam.prefix, bits), Kind: KUint, Bits: bits, Coding: fam.coding})
		}
		// Fixed-width variants (ambient and ASCII): Puint16_FW(:3:).
		for _, fam := range []struct {
			prefix string
			coding string
		}{{"P", ""}, {"Pa_", "a"}} {
			reg(BaseInfo{Name: fmt.Sprintf("%sint%d_FW", fam.prefix, bits), Kind: KInt, Bits: bits, Coding: fam.coding, Args: []ArgKind{ArgInt}, FW: true})
			reg(BaseInfo{Name: fmt.Sprintf("%suint%d_FW", fam.prefix, bits), Kind: KUint, Bits: bits, Coding: fam.coding, Args: []ArgKind{ArgInt}, FW: true})
		}
	}

	// Strings.
	reg(BaseInfo{Name: "Pstring", Kind: KString, Args: []ArgKind{ArgChar}})
	reg(BaseInfo{Name: "Pstring_FW", Kind: KString, Args: []ArgKind{ArgInt}, FW: true})
	reg(BaseInfo{Name: "Pstring_ME", Kind: KString, Args: []ArgKind{ArgRegexp}})
	reg(BaseInfo{Name: "Pstring_SE", Kind: KString, Args: []ArgKind{ArgRegexp}})

	// Dates and times: terminated by a character.
	reg(BaseInfo{Name: "Pdate", Kind: KDate, Args: []ArgKind{ArgChar}})
	reg(BaseInfo{Name: "Ptime", Kind: KDate, Args: []ArgKind{ArgChar}})
	reg(BaseInfo{Name: "Ptimestamp", Kind: KDate, Args: []ArgKind{ArgChar}})

	// Network and miscellaneous.
	reg(BaseInfo{Name: "Pip", Kind: KIP})
	reg(BaseInfo{Name: "Phostname", Kind: KString})
	reg(BaseInfo{Name: "Pzip", Kind: KString})
	reg(BaseInfo{Name: "Pempty", Kind: KVoid})

	// Floats.
	reg(BaseInfo{Name: "Pfloat32", Kind: KFloat, Bits: 32})
	reg(BaseInfo{Name: "Pfloat64", Kind: KFloat, Bits: 64})
	reg(BaseInfo{Name: "Pa_float32", Kind: KFloat, Bits: 32, Coding: "a"})
	reg(BaseInfo{Name: "Pa_float64", Kind: KFloat, Bits: 64, Coding: "a"})

	// Cobol numerics: packed (COMP-3) and zoned decimals with a digit
	// count argument.
	reg(BaseInfo{Name: "Pbcd", Kind: KInt, Bits: 64, Coding: "bcd", Args: []ArgKind{ArgInt}})
	reg(BaseInfo{Name: "Pzoned", Kind: KInt, Bits: 64, Coding: "zoned", Args: []ArgKind{ArgInt}})
}

// LookupBase returns the registry entry for a base type name, or nil.
func LookupBase(name string) *BaseInfo { return baseTypes[name] }

// RegisterBase adds (or replaces) a base type in the registry, the
// user-extensibility hook of section 6. It returns the previous entry, if
// any, so tests can restore it.
func RegisterBase(b BaseInfo) *BaseInfo {
	old := baseTypes[b.Name]
	reg(b)
	return old
}
