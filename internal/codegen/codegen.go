// Package codegen is the PADS compiler backend: from a checked description
// it generates a Go source file containing, for every declared type, an
// in-memory representation, a mask, a parse descriptor, and Read / Write /
// Verify functions — the same artifact set the original compiler emits as C
// (Figure 6 of the paper). A ToValue bridge converts generated
// representations into the generic value model so the accumulator,
// formatting, XML, and query tools work over compiled data too.
//
// Generated code depends only on pads/internal/padsrt (and
// pads/internal/value for the bridge), mirroring how the C backend leans on
// its run-time library.
package codegen

import (
	"fmt"
	"go/format"
	"sort"
	"strings"

	"pads/internal/dsl"
	"pads/internal/ir"
	"pads/internal/padsrt"
	"pads/internal/sema"
)

// Options configures generation.
type Options struct {
	// Package is the generated package name.
	Package string
	// Source names the description in the file header.
	Source string
	// Specialize, when non-nil, partially evaluates the parser against a
	// fixed mask: every DoSet/DoCheck test is resolved at compile time
	// and the dead branches vanish — the section 9 "application-specific
	// instance of the library ... partially evaluating the current PADS
	// library by specifying mask arguments at binding time". The mask
	// parameters remain in the signatures for API compatibility but are
	// ignored.
	Specialize *padsrt.Mask
}

// Generate emits the Go source for a checked description. The read path is
// emitted from the lowered IR program — the same instruction form the
// bytecode VM executes — so both backends share one resolution of literal
// matchers, base-read dispatch, enum match order, atomicity, and union
// first-byte classes.
func Generate(desc *sema.Desc, opts Options) (string, error) {
	if opts.Package == "" {
		opts.Package = "gen"
	}
	prog, err := ir.Lower(desc)
	if err != nil {
		return "", fmt.Errorf("codegen: %v", err)
	}
	g := &gen{desc: desc, prog: prog, opts: opts, spec: opts.Specialize}
	if err := g.run(); err != nil {
		return "", err
	}
	src := g.out.String()
	pretty, err := format.Source([]byte(src))
	if err != nil {
		// Return the raw text so the caller can debug it.
		return src, fmt.Errorf("codegen: generated code does not format: %v", err)
	}
	return string(pretty), nil
}

type gen struct {
	desc *sema.Desc
	prog *ir.Program // lowered read-path instructions and pools
	opts Options
	spec *padsrt.Mask // non-nil: fold mask tests to constants
	out  strings.Builder
	err  error
}

// doSetExpr renders the DoSet test for a mask expression, folding it to a
// constant under specialization.
func (g *gen) doSetExpr(maskExpr string) string {
	if g.spec != nil {
		if g.spec.DoSet() {
			return "true"
		}
		return "false"
	}
	return maskExpr + ".DoSet()"
}

// doCheckExpr renders the DoCheck test, folding under specialization.
func (g *gen) doCheckExpr(maskExpr string) string {
	if g.spec != nil {
		if g.spec.DoCheck() {
			return "true"
		}
		return "false"
	}
	return maskExpr + ".DoCheck()"
}

func (g *gen) p(format string, args ...interface{}) {
	fmt.Fprintf(&g.out, format, args...)
	g.out.WriteByte('\n')
}

// GoName maps a PADS identifier to an exported Go identifier.
func GoName(n string) string {
	if n == "" {
		return "X"
	}
	return strings.ToUpper(n[:1]) + n[1:]
}

// goFieldName maps a field name to an exported struct field.
func goFieldName(n string) string { return GoName(n) }

func (g *gen) run() error {
	g.p("// Code generated by padsc from %s. DO NOT EDIT.", g.opts.Source)
	g.p("")
	g.p("// Package %s contains the parser, printer, verifier, masks, and parse", g.opts.Package)
	g.p("// descriptors generated from a PADS description.")
	g.p("package %s", g.opts.Package)
	g.p("")
	g.p("import (")
	g.p("\t\"pads/internal/padsrt\"")
	g.p("\t\"pads/internal/value\"")
	g.p(")")
	g.p("")
	g.p("var _ = value.NewCommon // the bridge is optional per type")
	g.p("")
	g.p("// Order is the byte order used when writing binary integers.")
	g.p("var Order = padsrt.BigEndian")
	g.p("")
	g.p("var _ = Order")
	g.p("")

	// Compiled regexp literals.
	g.emitRegexps()

	// Predicate functions first: declarations may call them.
	for _, d := range g.desc.Program.Decls {
		if fd, ok := d.(*dsl.FuncDecl); ok {
			g.emitFunc(fd)
		}
	}
	for _, d := range g.desc.Program.Decls {
		switch d := d.(type) {
		case *dsl.StructDecl:
			g.emitStruct(d)
		case *dsl.UnionDecl:
			g.emitUnion(d)
		case *dsl.ArrayDecl:
			g.emitArray(d)
		case *dsl.EnumDecl:
			g.emitEnum(d)
		case *dsl.TypedefDecl:
			g.emitTypedef(d)
		}
	}
	return g.err
}

func (g *gen) emitRegexps() {
	if len(g.desc.Regexps) == 0 {
		return
	}
	keys := make([]string, 0, len(g.desc.Regexps))
	for k := range g.desc.Regexps {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	g.p("var (")
	for i, k := range keys {
		g.p("\tre%d = padsrt.MustCompileRegexp(%q)", i, k)
	}
	g.p(")")
	g.p("")
}

func (g *gen) reVar(src string) string {
	keys := make([]string, 0, len(g.desc.Regexps))
	for k := range g.desc.Regexps {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		if k == src {
			return fmt.Sprintf("re%d", i)
		}
	}
	return "nil /* missing regexp */"
}

// ---- type mapping ----

// goType returns the Go representation type for a type reference.
func (g *gen) goType(tr dsl.TypeRef) string {
	inner := g.goTypeName(tr.Name)
	if tr.Opt {
		return "padsrt.Opt[" + inner + "]"
	}
	return inner
}

func (g *gen) goTypeName(name string) string {
	if b := sema.LookupBase(name); b != nil {
		return baseGoType(b)
	}
	return GoName(name)
}

func baseGoType(b *sema.BaseInfo) string {
	switch b.Kind {
	case sema.KChar:
		return "byte"
	case sema.KUint:
		return fmt.Sprintf("uint%d", b.Bits)
	case sema.KInt:
		return fmt.Sprintf("int%d", b.Bits)
	case sema.KFloat:
		return fmt.Sprintf("float%d", b.Bits)
	case sema.KString:
		return "string"
	case sema.KDate:
		return "padsrt.DateVal"
	case sema.KIP:
		return "uint32"
	case sema.KVoid:
		return "struct{}"
	}
	return "struct{}"
}

// isBase reports whether a type reference names a base type.
func isBase(tr dsl.TypeRef) bool { return sema.LookupBase(tr.Name) != nil }

// maskType returns the mask type for a type reference.
func (g *gen) maskType(tr dsl.TypeRef) string {
	if tr.Opt || isBase(tr) {
		return "padsrt.Mask"
	}
	switch g.desc.Types[tr.Name].(type) {
	case *dsl.EnumDecl, *dsl.TypedefDecl:
		return "padsrt.Mask"
	}
	return GoName(tr.Name) + "Mask"
}

// paramGoType maps a parameter's declared type to a Go type.
func (g *gen) paramGoType(typeName string) string {
	if typeName == "bool" {
		return "bool"
	}
	if b := sema.LookupBase(typeName); b != nil {
		switch b.Kind {
		case sema.KUint, sema.KInt, sema.KChar, sema.KDate, sema.KIP:
			return "int64"
		case sema.KFloat:
			return "float64"
		case sema.KString:
			return "string"
		}
	}
	if d, ok := g.desc.Types[typeName]; ok {
		switch d.(type) {
		case *dsl.EnumDecl, *dsl.TypedefDecl:
			return "int64"
		default:
			return GoName(typeName)
		}
	}
	return "int64"
}

// paramList renders declaration parameters as Go arguments.
func (g *gen) paramList(params []dsl.Param) string {
	var b strings.Builder
	for _, p := range params {
		fmt.Fprintf(&b, ", arg_%s %s", p.Name, g.paramGoType(p.Type))
	}
	return b.String()
}

// argExprs renders the argument expressions of a type reference at a call
// site, converting to the callee's parameter Go types.
func (g *gen) argExprs(tr dsl.TypeRef, sc *scope) string {
	d, ok := g.desc.Types[tr.Name]
	if !ok {
		return ""
	}
	params := declParams(d)
	var b strings.Builder
	for i, a := range tr.Args {
		if i >= len(params) {
			break
		}
		want := g.paramGoType(params[i].Type)
		code, k := g.expr(a, sc)
		fmt.Fprintf(&b, ", %s", convert(code, k, want))
	}
	return b.String()
}

func declParams(d dsl.Decl) []dsl.Param {
	switch d := d.(type) {
	case *dsl.StructDecl:
		return d.Params
	case *dsl.UnionDecl:
		return d.Params
	case *dsl.ArrayDecl:
		return d.Params
	case *dsl.TypedefDecl:
		return d.Params
	}
	return nil
}

// recordPrologue emits BeginRecord handling for Precord types; returns a
// closer that must run at the end of the read.
func (g *gen) recordPrologue(isRecord bool) {
	if !isRecord {
		return
	}
	g.p("\topenedRecord := false")
	g.p("\tif !s.InRecord() {")
	g.p("\t\tok, err := s.BeginRecord()")
	g.p("\t\tif err != nil {")
	g.p("\t\t\tpd.PD.SetError(padsrt.ErrIO, padsrt.Loc{Begin: s.Pos(), End: s.Pos()})")
	g.p("\t\t\treturn")
	g.p("\t\t}")
	g.p("\t\tif !ok {")
	g.p("\t\t\tpd.PD.SetError(padsrt.ErrAtEOF, padsrt.Loc{Begin: s.Pos(), End: s.Pos()})")
	g.p("\t\t\treturn")
	g.p("\t\t}")
	g.p("\t\topenedRecord = true")
	g.p("\t}")
}

func (g *gen) recordEpilogue(isRecord bool) {
	if !isRecord {
		return
	}
	g.p("\tif openedRecord {")
	g.p("\t\tif pd.PD.Nerr > 0 && !s.AtEOR() {")
	g.p("\t\t\tif s.SkipToEOR() > 0 {")
	g.p("\t\t\t\tpd.PD.State = padsrt.Panicking")
	g.p("\t\t\t\tpd.PD.Nerr++")
	g.p("\t\t\t}")
	g.p("\t\t}")
	g.p("\t\ts.EndRecord(&pd.PD)")
	g.p("\t}")
}
