// Package ir is the shared intermediate representation of checked PADS
// descriptions: a flat, array-encoded instruction form lowered from
// internal/sema output, consumed by both the bytecode VM in internal/interp
// and the compiler backend in internal/codegen. Lowering resolves once what
// the tree-walking interpreter re-derives per record: base-type registry
// lookups become ReadOp opcodes, literal items become precompiled matchers
// (including compiled regexps), enum members are sorted longest-first,
// speculative union branches carry table-driven first-byte character
// classes, and constant arguments (fixed widths, terminator characters,
// array bounds) are folded into the instruction stream. See docs/IR.md.
package ir

import (
	"fmt"
	"io"
	"sort"

	"pads/internal/dsl"
	"pads/internal/padsrt"
	"pads/internal/sema"
)

// NodeID indexes Program.Nodes. DeclID, LitID, ExprID, RefID, BaseID,
// ArrayID, EnumID, CaseID, and ClassID index the corresponding pools.
// None marks an absent operand.
type (
	NodeID = int32
	DeclID = int32
	LitID  = int32
	ExprID = int32
)

// None is the absent-operand sentinel for every pool index.
const None int32 = -1

// Op is the instruction opcode. The VM's dispatch loop switches on it; the
// compiler backend walks the same nodes to emit Go.
type Op uint8

// Opcodes. The A..D operands are op-specific; see the Node doc comment.
const (
	OpInvalid Op = iota
	OpStruct     // A=Kids start, B=Kids len, C=where ExprID, D=field count (folded)
	OpLit        // struct literal item: A=LitID
	OpField      // A=child NodeID, B=constraint ExprID, C=RefID; D is per-context: first-byte ClassID under OpUnion, case-value CaseID under OpSwitch (None = Pdefault), else None
	OpUnion      // speculative union: A=Kids start (OpField branches), B=Kids len
	OpSwitch     // switched union: A=Kids start, B=Kids len, C=selector ExprID, D=default kid offset or None
	OpArray      // A=ArrayID, B=elem child NodeID
	OpEnum       // A=EnumID
	OpTypedef    // A=child NodeID, B=constraint ExprID (VarName in Node.Name)
	OpOpt        // Popt wrapper: A=child NodeID, B=RefID
	OpCall       // reference to a declared type: A=DeclID, B=CaseID arg list or None, C=RefID
	OpBase       // base-type read: A=BaseID, C=RefID
)

var opNames = [...]string{
	OpInvalid: "invalid", OpStruct: "struct", OpLit: "lit", OpField: "field",
	OpUnion: "union", OpSwitch: "switch", OpArray: "array", OpEnum: "enum",
	OpTypedef: "typedef", OpOpt: "opt", OpCall: "call", OpBase: "base",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Flags carry per-node properties resolved at lowering time.
type Flags uint8

const (
	// FRecord marks a declaration parsed inside its own record window
	// (Precord), with panic-mode resynchronization on error.
	FRecord Flags = 1 << iota
	// FSource marks the Psource declaration.
	FSource
	// FNeedEnv marks a declaration whose body evaluates expressions that
	// can reference bindings (parameters, constraints, predicates,
	// non-constant arguments). The VM opens a frame window only for
	// declarations with it and binds nothing in the others.
	FNeedEnv
	// FAtomic marks a node that consumes no input when its parse fails and
	// carries no constraint, so speculative trials (Popt, union branches)
	// need no checkpoint around it.
	FAtomic
	// FRewind marks a node whose parse consumes input only by advancing
	// the cursor inside the current record — no record framing, no
	// constraint — but can consume on failure (text integers Skip the
	// digit run before reporting ErrRange). Speculative trials restore it
	// with a Source.Mark/Rewind pair, one saved int, instead of a full
	// checkpoint. FAtomic is the stronger tier (no protection at all);
	// the two flags are mutually exclusive.
	FRewind
)

// Node is one instruction. Operands A..D index the program pools as
// documented per opcode; Name is the declared type name, field name, or
// typedef constraint binder.
type Node struct {
	Op    Op
	Flags Flags
	Name  string
	A     int32
	B     int32
	C     int32
	D     int32
}

// DeclInfo is the lowered form of one named declaration. Frame is the
// size of the expression frame it runs in when it evaluates expressions
// (FNeedEnv): its parameters, then the slots sema.Binding lays out.
type DeclInfo struct {
	Name   string
	Root   NodeID
	Params []dsl.Param
	Frame  int32
}

// Lit is a precompiled literal matcher: regexp literals hold their compiled
// runtime form, so matching never consults the description again.
type Lit struct {
	Kind dsl.LitKind
	Char byte
	Str  string
	Re   *padsrt.Regexp
}

// ReadOp is the fully-resolved base-type read operation: the registry
// dispatch (kind × coding × fixed-width) the interpreter performed per value
// is done once at lowering time.
type ReadOp uint8

// Base read operations, one per padsrt reader.
const (
	RInvalid ReadOp = iota
	RChar
	RAChar
	REChar
	RBChar
	RUint
	RAUint
	REUint
	RBUint
	RUintFW
	RAUintFW
	RInt
	RAInt
	REInt
	RBInt
	RAIntFW
	RBCD
	RZoned
	RAFloat
	RStringTerm
	RStringEOR
	RStringFW
	RStringME
	RStringSE
	RHostname
	RZip
	RDate
	RIP
	RVoid
)

var readOpNames = [...]string{
	RInvalid: "invalid", RChar: "read_char", RAChar: "read_achar", REChar: "read_echar",
	RBChar: "read_bchar", RUint: "read_uint", RAUint: "read_auint", REUint: "read_euint",
	RBUint: "read_buint", RUintFW: "read_uint_fw", RAUintFW: "read_auint_fw",
	RInt: "read_int", RAInt: "read_aint", REInt: "read_eint", RBInt: "read_bint",
	RAIntFW: "read_aint_fw", RBCD: "read_bcd", RZoned: "read_zoned", RAFloat: "read_afloat",
	RStringTerm: "read_string_term", RStringEOR: "read_string_eor", RStringFW: "read_string_fw",
	RStringME: "read_string_me", RStringSE: "read_string_se", RHostname: "read_hostname",
	RZip: "read_zip", RDate: "read_date", RIP: "read_ip", RVoid: "read_void",
}

func (r ReadOp) String() string {
	if int(r) < len(readOpNames) {
		return readOpNames[r]
	}
	return fmt.Sprintf("readop(%d)", int(r))
}

// Atomic reports whether the read provably consumes no input on every
// failure path, so a speculative trial (Popt, union branch) needs no
// checkpoint around it. The table mirrors the padsrt readers and is pinned
// against them by TestAtomicReadsConsumeNothingOnFailure:
//
//   - character reads and binary integers fail only at a record or input
//     boundary, before any Skip;
//   - BCD, zoned, float, string, hostname, zip, and IP reads validate a
//     peeked window and return their error code before skipping;
//   - void reads never touch the cursor.
//
// Variable-width text integers (ReadAUint/AInt, their EBCDIC forms, and
// the coding-generic ReadUint/Int) are NOT atomic: they Skip the digit run
// first and only then report ErrRange, so a range overflow consumes the
// digits. Fixed-width reads consume exactly their width on invalid
// content, and Pdate consumes text before rejecting it.
func (r ReadOp) Atomic() bool {
	switch r {
	case RChar, RAChar, REChar, RBChar,
		RBUint, RBInt,
		RBCD, RZoned,
		RAFloat,
		RStringTerm, RStringEOR, RStringME, RStringSE,
		RHostname, RZip, RIP,
		RVoid:
		return true
	}
	return false
}

// Arg is a base-type argument, constant-folded when the description supplies
// a literal (the common case: fixed widths, terminator characters).
type Arg struct {
	IsConst bool
	Const   int64
	Expr    ExprID
}

// BaseSpec is a resolved base-type read: opcode, width/terminator arguments
// (folded when constant), and the compiled regexp for matched strings.
// BadParam marks statically malformed references (wrong argument shape);
// parsing them yields ErrBadParam, matching the interpreter.
type BaseSpec struct {
	Info     *sema.BaseInfo
	Read     ReadOp
	Bits     int
	Width    Arg  // fixed width / BCD-zoned digit count
	HasWidth bool // the read consumes Width
	Term     Arg  // terminator character (Pstring, Pdate)
	TermChar bool // Term is a character; false = Peor/Peof boundary
	Re       *padsrt.Regexp
	BadParam bool
}

// ArraySpec carries the operands of one Parray beyond what fits in a Node.
type ArraySpec struct {
	HasMin, HasMax   bool
	MinSize, MaxSize Arg
	Sep, Term        LitID // None when absent; Term None also when Peor/Peof
	TermEOR, TermEOF bool
	LastPred         ExprID
	EndedPred        ExprID
	Where            ExprID
	ElemIsRecord     bool
}

// EnumAlt is one enum member with its original declaration index.
type EnumAlt struct {
	Name  string
	Repr  string
	Index int
}

// EnumSpec is a Penum resolved for matching: members sorted longest-repr
// first (stable), so the first match is the longest, and the peek width
// folded to the longest representation.
type EnumSpec struct {
	Alts   []EnumAlt
	MaxLen int
}

// CaseList is a pooled expression list: switch-case values or type-reference
// arguments.
type CaseList []ExprID

// Class is a table-driven character class: a 256-bit byte-membership table.
// Speculative union branches carry the class of bytes their parse could
// possibly start with; the VM and generated code skip doomed branches with
// one table probe instead of a checkpointed trial parse.
type Class [4]uint64

// Has reports whether b is in the class.
func (c *Class) Has(b byte) bool { return c[b>>6]&(1<<(b&63)) != 0 }

func (c *Class) add(b byte) { c[b>>6] |= 1 << (b & 63) }

func (c *Class) addRange(lo, hi byte) {
	for b := int(lo); b <= int(hi); b++ {
		c.add(byte(b))
	}
}

func (c *Class) union(o *Class) {
	for i := range c {
		c[i] |= o[i]
	}
}

// Program is a lowered description: a flat node array plus side pools. All
// cross-references are array indices, so a Program is immutable after
// lowering and safely shared across parser shards.
type Program struct {
	Desc *sema.Desc

	Nodes []Node
	Kids  []NodeID // child-list pool (struct items, union branches)

	Decls  []DeclInfo
	byName map[string]DeclID

	Lits []Lit
	// Exprs is the pool of compiled-expression terms (expr.go); the
	// ExprIDs nodes and specs hold index its roots. Funcs holds the
	// lowered predicate functions that XCall terms name.
	Exprs   []Expr
	Funcs   []Func
	Refs    []dsl.TypeRef
	Bases   []BaseSpec
	Arrays  []ArraySpec
	Enums   []EnumSpec
	Cases   []CaseList
	Classes []Class
	// ClassASCII[i] marks Classes[i] as valid only while the source's
	// ambient coding is ASCII: default-coded integer reads dispatch on the
	// coding at parse time, so their digit-led first bytes hold under
	// ASCII but not EBCDIC. Probes of such classes are skipped on
	// non-ASCII sources.
	ClassASCII []bool

	// Widths[n] is the folded byte width of node n when every part is
	// fixed-size, or None: the constant the backend uses for offset
	// computation (Program.FieldOffset).
	Widths []int32

	// FieldNames[n] is struct node n's field-name list (literal items
	// excluded) and OptTypes[n] is Popt node n's type name, "Popt <inner>";
	// both are empty for other nodes. They are built once here and shared
	// by every value the VM builds for the node, so no record re-derives
	// them. A FieldNames entry has cap == len: a consumer that appends to a
	// value's Names copies instead of writing into the table.
	FieldNames [][]string
	OptTypes   []string
}

// DeclByName resolves a declared type name to its DeclID.
func (p *Program) DeclByName(name string) (DeclID, bool) {
	id, ok := p.byName[name]
	return id, ok
}

// Root returns the root node of a declaration, or None when the name is
// unknown.
func (p *Program) Root(name string) NodeID {
	if id, ok := p.byName[name]; ok {
		return p.Decls[id].Root
	}
	return None
}

// KidsOf returns the child-node list of a struct, union, or switch node.
func (p *Program) KidsOf(n *Node) []NodeID { return p.Kids[n.A : n.A+n.B] }

// FieldOffset returns the folded byte offset of struct item i (counting
// literals) from the start of the struct, or None when any preceding item
// has variable width.
func (p *Program) FieldOffset(structID NodeID, item int) int32 {
	n := &p.Nodes[structID]
	if n.Op != OpStruct {
		return None
	}
	var off int32
	for i, kid := range p.KidsOf(n) {
		if i == item {
			return off
		}
		w := p.Widths[kid]
		if w < 0 {
			return None
		}
		off += w
	}
	return None
}

func (p *Program) addRef(tr dsl.TypeRef) int32 {
	p.Refs = append(p.Refs, tr)
	return int32(len(p.Refs) - 1)
}

func (p *Program) addNode(n Node) NodeID {
	p.Nodes = append(p.Nodes, n)
	p.Widths = append(p.Widths, None)
	p.FieldNames = append(p.FieldNames, nil)
	p.OptTypes = append(p.OptTypes, "")
	return NodeID(len(p.Nodes) - 1)
}

func (p *Program) addClass(c Class, ascii bool) int32 {
	p.Classes = append(p.Classes, c)
	p.ClassASCII = append(p.ClassASCII, ascii)
	return int32(len(p.Classes) - 1)
}

// sortAlts orders enum members longest-repr-first, stably, so a first-match
// scan picks what the reference interpreter's best-match scan picks.
func sortAlts(members []dsl.EnumMember) ([]EnumAlt, int) {
	alts := make([]EnumAlt, len(members))
	maxLen := 0
	for i, m := range members {
		alts[i] = EnumAlt{Name: m.Name, Repr: m.Repr, Index: i}
		if len(m.Repr) > maxLen {
			maxLen = len(m.Repr)
		}
	}
	sort.SliceStable(alts, func(a, b int) bool {
		return len(alts[a].Repr) > len(alts[b].Repr)
	})
	return alts, maxLen
}

// Dump writes a human-readable listing of the program: one line per
// instruction with resolved operands, then the pools. This is the
// `padsc -emit=ir` format.
func (p *Program) Dump(w io.Writer) {
	for di := range p.Decls {
		d := &p.Decls[di]
		fmt.Fprintf(w, "decl %d %s:\n", di, d.Name)
		p.dumpNode(w, d.Root, 1, OpInvalid)
	}
	if len(p.Lits) > 0 {
		fmt.Fprintf(w, "literal pool:\n")
		for i, l := range p.Lits {
			switch l.Kind {
			case dsl.CharLit:
				fmt.Fprintf(w, "  L%d char %q\n", i, string(l.Char))
			case dsl.StrLit:
				fmt.Fprintf(w, "  L%d string %q\n", i, l.Str)
			case dsl.RegexpLit:
				fmt.Fprintf(w, "  L%d regexp /%s/ (compiled)\n", i, l.Str)
			case dsl.EORLit:
				fmt.Fprintf(w, "  L%d EOR\n", i)
			case dsl.EOFLit:
				fmt.Fprintf(w, "  L%d EOF\n", i)
			}
		}
	}
	if len(p.Classes) > 0 {
		fmt.Fprintf(w, "character classes:\n")
		for i := range p.Classes {
			cond := ""
			if p.ClassASCII[i] {
				cond = " (ascii coding only)"
			}
			fmt.Fprintf(w, "  C%d %s%s\n", i, classString(&p.Classes[i]), cond)
		}
	}
}

func classString(c *Class) string {
	out := make([]byte, 0, 64)
	for b := 0; b < 256; b++ {
		if !c.Has(byte(b)) {
			continue
		}
		lo := b
		for b+1 < 256 && c.Has(byte(b+1)) {
			b++
		}
		if len(out) > 0 {
			out = append(out, ' ')
		}
		if lo == b {
			out = append(out, []byte(fmt.Sprintf("%q", byte(lo)))...)
		} else {
			out = append(out, []byte(fmt.Sprintf("%q-%q", byte(lo), byte(b)))...)
		}
	}
	return string(out)
}

func (p *Program) dumpNode(w io.Writer, id NodeID, depth int, ctx Op) {
	n := &p.Nodes[id]
	ind := ""
	for i := 0; i < depth; i++ {
		ind += "  "
	}
	var flags string
	if n.Flags&FRecord != 0 {
		flags += " record"
	}
	if n.Flags&FSource != 0 {
		flags += " source"
	}
	if n.Flags&FNeedEnv != 0 {
		flags += " env"
	}
	if n.Flags&FAtomic != 0 {
		flags += " atomic"
	}
	if n.Flags&FRewind != 0 {
		flags += " rewind"
	}
	width := ""
	if p.Widths[id] >= 0 {
		width = fmt.Sprintf(" width=%d", p.Widths[id])
	}
	switch n.Op {
	case OpStruct:
		fmt.Fprintf(w, "%s%%%d struct %s nfields=%d%s%s\n", ind, id, n.Name, n.D, flags, width)
		for _, kid := range p.KidsOf(n) {
			p.dumpNode(w, kid, depth+1, OpStruct)
		}
	case OpLit:
		fmt.Fprintf(w, "%s%%%d match L%d\n", ind, id, n.A)
	case OpField:
		con := ""
		if n.B != None {
			con = fmt.Sprintf(" constraint=E%d", n.B)
		}
		extra := ""
		switch {
		case ctx == OpUnion && n.D != None:
			extra = fmt.Sprintf(" first=C%d", n.D)
		case ctx == OpSwitch && n.D != None:
			extra = fmt.Sprintf(" case=K%d", n.D)
		case ctx == OpSwitch:
			extra = " default"
		}
		fmt.Fprintf(w, "%s%%%d field %s%s%s\n", ind, id, n.Name, con, extra)
		p.dumpNode(w, n.A, depth+1, OpField)
	case OpUnion:
		fmt.Fprintf(w, "%s%%%d union %s%s\n", ind, id, n.Name, flags)
		for _, kid := range p.KidsOf(n) {
			p.dumpNode(w, kid, depth+1, OpUnion)
		}
	case OpSwitch:
		fmt.Fprintf(w, "%s%%%d switch %s selector=E%d default=%d%s\n", ind, id, n.Name, n.C, n.D, flags)
		for _, kid := range p.KidsOf(n) {
			p.dumpNode(w, kid, depth+1, OpSwitch)
		}
	case OpArray:
		a := &p.Arrays[n.A]
		extra := ""
		if a.HasMin {
			extra += fmt.Sprintf(" min=%s", argString(a.MinSize))
		}
		if a.HasMax {
			extra += fmt.Sprintf(" max=%s", argString(a.MaxSize))
		}
		if a.Sep != None {
			extra += fmt.Sprintf(" sep=L%d", a.Sep)
		}
		switch {
		case a.TermEOR:
			extra += " term=EOR"
		case a.TermEOF:
			extra += " term=EOF"
		case a.Term != None:
			extra += fmt.Sprintf(" term=L%d", a.Term)
		}
		fmt.Fprintf(w, "%s%%%d array %s%s%s\n", ind, id, n.Name, extra, flags)
		p.dumpNode(w, n.B, depth+1, OpArray)
	case OpEnum:
		e := &p.Enums[n.A]
		fmt.Fprintf(w, "%s%%%d enum %s peek=%d alts=%d (longest-first)%s\n", ind, id, n.Name, e.MaxLen, len(e.Alts), flags)
	case OpTypedef:
		fmt.Fprintf(w, "%s%%%d typedef %s constraint=E%d%s\n", ind, id, n.Name, n.B, flags)
		p.dumpNode(w, n.A, depth+1, OpTypedef)
	case OpOpt:
		fmt.Fprintf(w, "%s%%%d opt%s\n", ind, id, flags)
		p.dumpNode(w, n.A, depth+1, OpOpt)
	case OpCall:
		fmt.Fprintf(w, "%s%%%d call decl=%d (%s)%s\n", ind, id, n.A, p.Decls[n.A].Name, flags)
	case OpBase:
		b := &p.Bases[n.A]
		extra := ""
		if b.HasWidth {
			extra += fmt.Sprintf(" width=%s", argString(b.Width))
		}
		if b.TermChar {
			extra += fmt.Sprintf(" term=%s", argString(b.Term))
		}
		if b.Re != nil {
			extra += " regexp"
		}
		if b.BadParam {
			extra += " badparam"
		}
		fmt.Fprintf(w, "%s%%%d %s bits=%d%s%s%s\n", ind, id, b.Read, b.Bits, extra, width, flags)
	default:
		fmt.Fprintf(w, "%s%%%d %s\n", ind, id, n.Op)
	}
}

func argString(a Arg) string {
	if a.IsConst {
		if a.Const >= 32 && a.Const < 127 {
			return fmt.Sprintf("%q", byte(a.Const))
		}
		return fmt.Sprintf("%d", a.Const)
	}
	return fmt.Sprintf("E%d", a.Expr)
}
