package codegen

import (
	"fmt"
	"strings"

	"pads/internal/dsl"
	"pads/internal/ir"
	"pads/internal/sema"
)

// pdOf returns the PD struct type name for a type reference ("padsrt.PD"
// for base types, optionals, enums, and typedefs).
func (g *gen) pdOf(tr dsl.TypeRef) string {
	if tr.Opt || isBase(tr) {
		return "padsrt.PD"
	}
	switch g.desc.Types[tr.Name].(type) {
	case *dsl.EnumDecl, *dsl.TypedefDecl:
		return "padsrt.PD"
	}
	return GoName(tr.Name) + "PD"
}

// maskOf returns the mask type for a type reference.
func (g *gen) maskOf(tr dsl.TypeRef) string { return g.maskType(tr) }

// compoundRef reports whether a reference needs struct-style mask/pd.
func (g *gen) compoundRef(tr dsl.TypeRef) bool {
	if tr.Opt || isBase(tr) {
		return false
	}
	switch g.desc.Types[tr.Name].(type) {
	case *dsl.StructDecl, *dsl.UnionDecl, *dsl.ArrayDecl:
		return true
	}
	return false
}

// pdHeader renders the expression for the padsrt.PD header of a field's pd.
func (g *gen) pdHeader(tr dsl.TypeRef, pdExpr string) string {
	if g.compoundRef(tr) {
		return pdExpr + ".PD"
	}
	return pdExpr
}

// maskCheck renders the DoCheck() test for a field's mask expression.
func (g *gen) maskCheck(tr dsl.TypeRef, mExpr string) string {
	if g.compoundRef(tr) {
		return g.doCheckExpr(mExpr + ".CompoundLevel")
	}
	return g.doCheckExpr(mExpr)
}

// matchLitID renders a match call for a pooled IR literal.
func (g *gen) matchLitID(id ir.LitID) string {
	l := &g.prog.Lits[id]
	switch l.Kind {
	case dsl.CharLit:
		return fmt.Sprintf("padsrt.MatchChar(s, %q)", l.Char)
	case dsl.StrLit:
		return fmt.Sprintf("padsrt.MatchString(s, %q)", l.Str)
	case dsl.RegexpLit:
		return fmt.Sprintf("padsrt.MatchRegexp(s, %s)", g.reVar(l.Str))
	case dsl.EORLit:
		return "padsrt.MatchEOR(s)"
	default:
		return "padsrt.MatchEOF(s)"
	}
}

// argInt renders a folded IR argument as an int expression: constants fold
// to literals, everything else evaluates the pooled expression.
func (g *gen) argInt(a ir.Arg, sc *scope) string {
	if a.IsConst {
		return fmt.Sprintf("%d", a.Const)
	}
	code, t := g.expr(g.prog.Exprs[a.Expr].Src, sc)
	return "int(" + asNum(code, t) + ")"
}

// argByte renders a folded IR argument as a byte expression.
func (g *gen) argByte(a ir.Arg, sc *scope) string {
	if a.IsConst {
		return fmt.Sprintf("%q", byte(a.Const))
	}
	code, t := g.expr(g.prog.Exprs[a.Expr].Src, sc)
	return "byte(" + asNum(code, t) + ")"
}

// readCall renders the call that parses one value of the IR node nid into
// target, using the given mask and pd expressions. tr supplies the Go-level
// type names the IR does not carry; uniq makes scratch names unique.
func (g *gen) readCall(nid ir.NodeID, tr dsl.TypeRef, target, mExpr, pdExpr string, sc *scope, depth int, uniq string) {
	ind := strings.Repeat("\t", depth)
	n := &g.prog.Nodes[nid]
	if n.Op == ir.OpOpt {
		inner := tr
		inner.Opt = false
		g.p("%s%s = padsrt.PD{}", ind, pdExpr)
		// Trial cost was folded at lowering time: an atomic inner type
		// (ir.FAtomic) consumes nothing on failure so the trial needs no
		// checkpoint, and a rewindable one (ir.FRewind) only advances the
		// cursor in-record so a Mark/Rewind pair suffices — the same
		// elisions the VM applies.
		atomic := g.prog.Nodes[n.A].Flags&ir.FAtomic != 0
		rewind := g.prog.Nodes[n.A].Flags&ir.FRewind != 0
		switch {
		case atomic:
		case rewind:
			g.p("%smark%s := s.Mark()", ind, uniq)
		default:
			g.p("%ss.Checkpoint()", ind)
		}
		g.p("%s{", ind)
		// The inner pd is scoped locally: an absent optional is clean.
		g.p("%s\tvar optPD%s %s", ind, uniq, g.pdOf(inner))
		innerMask := mExpr
		innerPD := "optPD" + uniq
		if g.compoundRef(inner) {
			// Build a full-checking mask for the inner compound from
			// the field-level scalar mask.
			g.p("%s\toptM%s := New%sMask(%s)", ind, uniq, GoName(inner.Name), mExpr)
			innerMask = "optM" + uniq
		}
		g.readCallNonOpt(n.A, inner, target+".Val", innerMask, innerPD, sc, depth+1, uniq+"i")
		switch {
		case atomic:
			g.p("%s\t%s.Present = %s.Nerr == 0", ind, target, g.pdHeader(inner, innerPD))
		case rewind:
			g.p("%s\tif %s.Nerr == 0 {", ind, g.pdHeader(inner, innerPD))
			g.p("%s\t\t%s.Present = true", ind, target)
			g.p("%s\t} else {", ind)
			g.p("%s\t\ts.Rewind(mark%s)", ind, uniq)
			g.p("%s\t\t%s.Present = false", ind, target)
			g.p("%s\t}", ind)
		default:
			g.p("%s\tif %s.Nerr == 0 {", ind, g.pdHeader(inner, innerPD))
			g.p("%s\t\ts.Commit()", ind)
			g.p("%s\t\t%s.Present = true", ind, target)
			g.p("%s\t} else {", ind)
			g.p("%s\t\ts.Restore()", ind)
			g.p("%s\t\t%s.Present = false", ind, target)
			g.p("%s\t}", ind)
		}
		g.p("%s}", ind)
		return
	}
	g.readCallNonOpt(nid, tr, target, mExpr, pdExpr, sc, depth, uniq)
}

func (g *gen) readCallNonOpt(nid ir.NodeID, tr dsl.TypeRef, target, mExpr, pdExpr string, sc *scope, depth int, uniq string) {
	ind := strings.Repeat("\t", depth)
	n := &g.prog.Nodes[nid]
	if n.Op == ir.OpBase {
		g.readBase(n, target, mExpr, pdExpr, sc, depth, uniq)
		return
	}
	// OpCall: a reference to a declared type.
	args := g.argExprs(tr, sc)
	switch g.desc.Types[tr.Name].(type) {
	case *dsl.EnumDecl, *dsl.TypedefDecl:
		g.p("%sRead%s(s, %s, &%s, &%s%s)", ind, GoName(tr.Name), mExpr, pdExpr, target, args)
	default:
		mRef := "&" + mExpr
		if strings.HasPrefix(mExpr, "optM") || strings.HasPrefix(mExpr, "elemM") {
			mRef = mExpr // already a pointer
		}
		g.p("%sRead%s(s, %s, &%s, &%s%s)", ind, GoName(tr.Name), mRef, pdExpr, target, args)
	}
}

// readBase emits a base-type read into target, driven by the lowered
// BaseSpec: the registry dispatch (kind × coding × fixed-width) and constant
// argument folding happened once at ir.Lower time, shared with the VM's
// execBase table.
func (g *gen) readBase(n *ir.Node, target, mExpr, pdExpr string, sc *scope, depth int, uniq string) {
	ind := strings.Repeat("\t", depth)
	spec := &g.prog.Bases[n.A]
	v := "v" + uniq
	c := "c" + uniq

	g.p("%s%s = padsrt.PD{}", ind, pdExpr)
	g.p("%s{", ind)
	if spec.BadParam {
		// Statically malformed reference: parsing yields ErrBadParam,
		// matching the interpreter.
		g.p("%s\t%s.SetError(padsrt.ErrBadParam, s.LocHere())", ind, pdExpr)
		g.p("%s}", ind)
		return
	}

	var call, conv string
	switch spec.Read {
	case ir.RChar:
		call, conv = "padsrt.ReadChar(s)", v
	case ir.RAChar:
		call, conv = "padsrt.ReadAChar(s)", v
	case ir.REChar:
		call, conv = "padsrt.ReadEChar(s)", v
	case ir.RBChar:
		call, conv = "padsrt.ReadBChar(s)", v
	case ir.RUint:
		call = fmt.Sprintf("padsrt.ReadUint(s, %d)", spec.Bits)
	case ir.RAUint:
		call = fmt.Sprintf("padsrt.ReadAUint(s, %d)", spec.Bits)
	case ir.REUint:
		call = fmt.Sprintf("padsrt.ReadEUint(s, %d)", spec.Bits)
	case ir.RBUint:
		call = fmt.Sprintf("padsrt.ReadBUint(s, %d)", spec.Bits/8)
	case ir.RUintFW:
		call = fmt.Sprintf("padsrt.ReadUintFW(s, %s, %d)", g.argInt(spec.Width, sc), spec.Bits)
	case ir.RAUintFW:
		call = fmt.Sprintf("padsrt.ReadAUintFW(s, %s, %d)", g.argInt(spec.Width, sc), spec.Bits)
	case ir.RInt:
		call = fmt.Sprintf("padsrt.ReadInt(s, %d)", spec.Bits)
	case ir.RAInt:
		call = fmt.Sprintf("padsrt.ReadAInt(s, %d)", spec.Bits)
	case ir.REInt:
		call = fmt.Sprintf("padsrt.ReadEInt(s, %d)", spec.Bits)
	case ir.RBInt:
		call = fmt.Sprintf("padsrt.ReadBInt(s, %d)", spec.Bits/8)
	case ir.RAIntFW:
		call = fmt.Sprintf("padsrt.ReadAIntFW(s, %s, %d)", g.argInt(spec.Width, sc), spec.Bits)
	case ir.RBCD:
		call = fmt.Sprintf("padsrt.ReadBCD(s, %s)", g.argInt(spec.Width, sc))
	case ir.RZoned:
		call = fmt.Sprintf("padsrt.ReadZoned(s, %s)", g.argInt(spec.Width, sc))
	case ir.RAFloat:
		call = fmt.Sprintf("padsrt.ReadAFloat(s, %d)", spec.Bits)
		conv = fmt.Sprintf("float%d(%s)", spec.Bits, v)
	case ir.RStringTerm, ir.RStringEOR, ir.RStringFW:
		// A skip path avoids materializing strings whose mask neither
		// sets nor (for validated kinds) checks: the run-time saving
		// masks exist to provide (section 5.1.2).
		var skip string
		switch spec.Read {
		case ir.RStringTerm:
			t := g.argByte(spec.Term, sc)
			call = fmt.Sprintf("padsrt.ReadStringTerm(s, %s)", t)
			skip = fmt.Sprintf("padsrt.SkipStringTerm(s, %s)", t)
		case ir.RStringEOR:
			call = "padsrt.ReadStringEOR(s)"
			skip = "padsrt.SkipStringEOR(s)"
		default:
			w := g.argInt(spec.Width, sc)
			call = fmt.Sprintf("padsrt.ReadStringFW(s, %s)", w)
			skip = fmt.Sprintf("padsrt.SkipStringFW(s, %s)", w)
		}
		g.p("%s\tif %s {", ind, g.doSetExpr(mExpr))
		g.p("%s\t\t%s, %s := %s", ind, v, c, call)
		g.p("%s\t\tif %s != padsrt.ErrNone {", ind, c)
		g.p("%s\t\t\t%s.SetError(%s, s.LocHere())", ind, pdExpr, c)
		g.p("%s\t\t} else {", ind)
		g.p("%s\t\t\t%s = %s", ind, target, v)
		g.p("%s\t\t}", ind)
		g.p("%s\t} else if %s := %s; %s != padsrt.ErrNone {", ind, c, skip, c)
		g.p("%s\t\t%s.SetError(%s, s.LocHere())", ind, pdExpr, c)
		g.p("%s\t}", ind)
		g.p("%s}", ind)
		return
	case ir.RStringME:
		call, conv = fmt.Sprintf("padsrt.ReadStringME(s, %s)", g.reVar(spec.Re.String())), v
	case ir.RStringSE:
		call, conv = fmt.Sprintf("padsrt.ReadStringSE(s, %s)", g.reVar(spec.Re.String())), v
	case ir.RHostname:
		call, conv = "padsrt.ReadHostname(s)", v
	case ir.RZip:
		call, conv = "padsrt.ReadZip(s)", v
	case ir.RDate:
		t := "0"
		if spec.TermChar {
			t = g.argByte(spec.Term, sc)
		}
		// Skip the date parse entirely when the field is neither set nor
		// checked; the text is still consumed syntactically.
		g.p("%s\tif %s || %s {", ind, g.doSetExpr(mExpr), g.doCheckExpr(mExpr))
		g.p("%s\t\tsec, raw, %s := padsrt.ReadDate(s, %s)", ind, c, t)
		g.p("%s\t\tif %s != padsrt.ErrNone {", ind, c)
		g.p("%s\t\t\t%s.SetError(%s, s.LocHere())", ind, pdExpr, c)
		g.p("%s\t\t} else if %s {", ind, g.doSetExpr(mExpr))
		g.p("%s\t\t\t%s = padsrt.DateVal{Sec: sec, Raw: raw}", ind, target)
		g.p("%s\t\t}", ind)
		g.p("%s\t} else if %s := padsrt.SkipStringTerm(s, %s); %s != padsrt.ErrNone {", ind, c, t, c)
		g.p("%s\t\t%s.SetError(%s, s.LocHere())", ind, pdExpr, c)
		g.p("%s\t}", ind)
		g.p("%s}", ind)
		return
	case ir.RIP:
		call, conv = "padsrt.ReadIP(s)", v
	case ir.RVoid:
		g.p("%s}", ind)
		return
	default:
		g.err = fmt.Errorf("codegen: unsupported read op %v", spec.Read)
		g.p("%s}", ind)
		return
	}
	if conv == "" {
		switch spec.Info.Kind {
		case sema.KUint:
			conv = fmt.Sprintf("uint%d(%s)", spec.Bits, v)
		default:
			conv = fmt.Sprintf("int%d(%s)", spec.Bits, v)
		}
	}

	g.p("%s\t%s, %s := %s", ind, v, c, call)
	g.p("%s\tif %s != padsrt.ErrNone {", ind, c)
	g.p("%s\t\t%s.SetError(%s, s.LocHere())", ind, pdExpr, c)
	g.p("%s\t} else if %s {", ind, g.doSetExpr(mExpr))
	g.p("%s\t\t%s = %s", ind, target, conv)
	g.p("%s\t}", ind)
	g.p("%s}", ind)
}

// ---- struct ----

func (g *gen) emitStruct(d *dsl.StructDecl) {
	name := GoName(d.Name)
	g.p("// %s is the in-memory representation of the PADS type %s.", name, d.Name)
	g.p("type %s struct {", name)
	for _, it := range d.Items {
		if it.Field == nil {
			continue
		}
		g.p("\t%s %s", goFieldName(it.Field.Name), g.goType(it.Field.Type))
	}
	g.p("}")
	g.p("")
	g.p("// %sPD is the parse descriptor for %s.", name, d.Name)
	g.p("type %sPD struct {", name)
	g.p("\tPD padsrt.PD")
	for _, it := range d.Items {
		if it.Field == nil {
			continue
		}
		g.p("\t%s %s", goFieldName(it.Field.Name), g.pdOf(it.Field.Type))
	}
	g.p("}")
	g.p("")
	g.p("// %sMask controls checking and setting for %s.", name, d.Name)
	g.p("type %sMask struct {", name)
	g.p("\tCompoundLevel padsrt.Mask")
	for _, it := range d.Items {
		if it.Field == nil {
			continue
		}
		g.p("\t%s %s", goFieldName(it.Field.Name), g.maskOf(it.Field.Type))
	}
	g.p("}")
	g.p("")
	g.emitMaskCtor(name, structMaskFields(d, g))
	g.p("var default%sMask = New%sMask(padsrt.CheckAndSet)", name, name)
	g.p("")

	// Read.
	g.p("// Read%s parses one %s from s.", name, d.Name)
	g.p("func Read%s(s *padsrt.Source, m *%sMask, pd *%sPD, rep *%s%s) {", name, name, name, name, g.paramList(d.Params))
	g.p("\tif m == nil {")
	g.p("\t\tm = default%sMask", name)
	g.p("\t}")
	g.p("\tpd.PD = padsrt.PD{}")
	g.recordPrologue(d.IsRecord)

	sc := newScope(nil)
	for _, p := range d.Params {
		sc.bind(p.Name, "arg_"+p.Name, g.scopeTyForGo(p.Type, g.paramGoType(p.Type)))
	}
	kids := g.prog.KidsOf(&g.prog.Nodes[g.prog.Root(d.Name)])
	uniq := 0
	for i, it := range d.Items {
		k := &g.prog.Nodes[kids[i]]
		uniq++
		if k.Op == ir.OpLit {
			g.p("\t{")
			g.p("\t\tif code := %s; code != padsrt.ErrNone {", g.matchLitID(k.A))
			g.p("\t\t\tpd.PD.SetError(code, s.LocHere())")
			g.p("\t\t\tif pd.PD.State == padsrt.Normal {")
			g.p("\t\t\t\tpd.PD.State = padsrt.Partial")
			g.p("\t\t\t}")
			g.p("\t\t}")
			g.p("\t}")
			continue
		}
		f := it.Field
		fn := goFieldName(f.Name)
		g.readCall(k.A, f.Type, "rep."+fn, "m."+fn, "pd."+fn, sc, 1, fmt.Sprintf("f%d", uniq))
		pdh := g.pdHeader(f.Type, "pd."+fn)
		if f.Constraint != nil {
			fsc := newScope(sc)
			fsc.bind(f.Name, "rep."+fn, g.tyOfRef(f.Type))
			cond, _ := g.expr(f.Constraint, fsc)
			g.p("\tif %s && %s.Nerr == 0 {", g.maskCheck(f.Type, "m."+fn), pdh)
			g.p("\t\tif !(%s) {", cond)
			g.p("\t\t\t%s.SetError(padsrt.ErrConstraint, padsrt.Loc{Begin: s.Pos(), End: s.Pos()})", pdh)
			g.p("\t\t}")
			g.p("\t}")
		}
		g.p("\tpd.PD.AddChildErrors(&%s, padsrt.ErrStructField)", pdh)
		sc.bind(f.Name, "rep."+fn, g.tyOfRef(f.Type))
	}
	if d.Where != nil {
		cond, _ := g.expr(d.Where, sc)
		g.p("\tif %s && pd.PD.Nerr == 0 {", g.doCheckExpr("m.CompoundLevel"))
		g.p("\t\tif !(%s) {", cond)
		g.p("\t\t\tpd.PD.SetError(padsrt.ErrWhere, padsrt.Loc{Begin: s.Pos(), End: s.Pos()})")
		g.p("\t\t}")
		g.p("\t}")
	}
	g.recordEpilogue(d.IsRecord)
	g.p("}")
	g.p("")
	g.emitStructAux(d)
}

type maskField struct {
	goName string
	tr     dsl.TypeRef
}

func structMaskFields(d *dsl.StructDecl, g *gen) []maskField {
	var out []maskField
	for _, it := range d.Items {
		if it.Field != nil {
			out = append(out, maskField{goFieldName(it.Field.Name), it.Field.Type})
		}
	}
	return out
}

// emitMaskCtor emits New<T>Mask(base) initializing every control to base.
func (g *gen) emitMaskCtor(name string, fields []maskField) {
	g.p("// New%sMask builds a mask with every control set to base.", name)
	g.p("func New%sMask(base padsrt.Mask) *%sMask {", name, name)
	g.p("\tm := &%sMask{CompoundLevel: base}", name)
	for _, f := range fields {
		if g.compoundRef(f.tr) {
			g.p("\tm.%s = *New%sMask(base)", f.goName, GoName(f.tr.Name))
		} else {
			g.p("\tm.%s = base", f.goName)
		}
	}
	g.p("\treturn m")
	g.p("}")
	g.p("")
}

// ---- union ----

func (g *gen) emitUnion(d *dsl.UnionDecl) {
	name := GoName(d.Name)
	branches := d.Branches
	if d.Switch != nil {
		branches = nil
		for i := range d.Switch.Cases {
			branches = append(branches, d.Switch.Cases[i].Field)
		}
	}

	g.p("// %sTag identifies the branch a %s value holds.", name, d.Name)
	g.p("type %sTag int", name)
	g.p("const (")
	g.p("\t%sTagNone %sTag = iota", name, name)
	for i := range branches {
		g.p("\t%sTag%s", name, GoName(branches[i].Name))
	}
	g.p(")")
	g.p("")
	g.p("// %s is the in-memory representation of the PADS union %s.", name, d.Name)
	g.p("type %s struct {", name)
	g.p("\tTag %sTag", name)
	for i := range branches {
		g.p("\t%s %s", goFieldName(branches[i].Name), g.goType(branches[i].Type))
	}
	g.p("}")
	g.p("")
	g.p("// %sPD is the parse descriptor for %s.", name, d.Name)
	g.p("type %sPD struct {", name)
	g.p("\tPD padsrt.PD")
	for i := range branches {
		g.p("\t%s %s", goFieldName(branches[i].Name), g.pdOf(branches[i].Type))
	}
	g.p("}")
	g.p("")
	g.p("// %sMask controls checking and setting for %s.", name, d.Name)
	g.p("type %sMask struct {", name)
	g.p("\tCompoundLevel padsrt.Mask")
	for i := range branches {
		g.p("\t%s %s", goFieldName(branches[i].Name), g.maskOf(branches[i].Type))
	}
	g.p("}")
	g.p("")
	var mf []maskField
	for i := range branches {
		mf = append(mf, maskField{goFieldName(branches[i].Name), branches[i].Type})
	}
	g.emitMaskCtor(name, mf)
	g.p("var default%sMask = New%sMask(padsrt.CheckAndSet)", name, name)
	g.p("")

	// Branch metadata lowered into the IR: per-branch child nodes, folded
	// atomicity, and (speculative unions only) first-byte classes.
	un := &g.prog.Nodes[g.prog.Root(d.Name)]
	kids := g.prog.KidsOf(un)
	screened := false
	if d.Switch == nil {
		for _, kid := range kids {
			if g.prog.Nodes[kid].D != ir.None {
				screened = true
			}
		}
	}
	if screened {
		g.p("// First-byte classes: a speculative branch whose class excludes the next")
		g.p("// input byte cannot possibly match, so its trial parse is skipped.")
		g.p("var (")
		for i, kid := range kids {
			if cid := g.prog.Nodes[kid].D; cid != ir.None {
				cls := g.prog.Classes[cid]
				g.p("\tfirst%s%d = padsrt.ByteClass{%#x, %#x, %#x, %#x}", name, i, cls[0], cls[1], cls[2], cls[3])
			}
		}
		g.p(")")
		g.p("")
	}

	g.p("// Read%s parses one %s from s.", name, d.Name)
	g.p("func Read%s(s *padsrt.Source, m *%sMask, pd *%sPD, rep *%s%s) {", name, name, name, name, g.paramList(d.Params))
	g.p("\tif m == nil {")
	g.p("\t\tm = default%sMask", name)
	g.p("\t}")
	g.p("\tpd.PD = padsrt.PD{}")
	g.p("\trep.Tag = %sTagNone", name)
	g.recordPrologue(d.IsRecord)
	g.p("\tbegin := s.Pos()")
	g.p("\t_ = begin")

	sc := newScope(nil)
	for _, p := range d.Params {
		sc.bind(p.Name, "arg_"+p.Name, g.scopeTyForGo(p.Type, g.paramGoType(p.Type)))
	}

	emitBranchRead := func(i int, depth int) {
		b := &branches[i]
		fn := goFieldName(b.Name)
		g.readCall(g.prog.Nodes[kids[i]].A, b.Type, "rep."+fn, "m."+fn, "pd."+fn, sc, depth, fmt.Sprintf("b%d", i))
		pdh := g.pdHeader(b.Type, "pd."+fn)
		if b.Constraint != nil {
			bsc := newScope(sc)
			bsc.bind(b.Name, "rep."+fn, g.tyOfRef(b.Type))
			cond, _ := g.expr(b.Constraint, bsc)
			ind := strings.Repeat("\t", depth)
			g.p("%sif %s && %s.Nerr == 0 {", ind, g.maskCheck(b.Type, "m."+fn), pdh)
			g.p("%s\tif !(%s) {", ind, cond)
			g.p("%s\t\t%s.SetError(padsrt.ErrConstraint, padsrt.Loc{Begin: s.Pos(), End: s.Pos()})", ind, pdh)
			g.p("%s\t}", ind)
			g.p("%s}", ind)
		}
	}

	if d.Switch != nil {
		selCode, selT := g.expr(d.Switch.Selector, sc)
		g.p("\tsel := %s", asNum(selCode, selT))
		g.p("\tswitch {")
		defaultIdx := -1
		bi := 0
		for ci := range d.Switch.Cases {
			cs := &d.Switch.Cases[ci]
			if len(cs.Values) == 0 {
				defaultIdx = bi
				bi++
				continue
			}
			var conds []string
			for _, vx := range cs.Values {
				code, t := g.expr(vx, sc)
				conds = append(conds, fmt.Sprintf("sel == %s", asNum(code, t)))
			}
			g.p("\tcase %s:", strings.Join(conds, " || "))
			emitBranchRead(bi, 2)
			g.p("\t\trep.Tag = %sTag%s", name, GoName(branches[bi].Name))
			g.p("\t\tpd.PD.AddChildErrors(&%s, padsrt.ErrStructField)", g.pdHeader(branches[bi].Type, "pd."+goFieldName(branches[bi].Name)))
			bi++
		}
		g.p("\tdefault:")
		if defaultIdx >= 0 {
			emitBranchRead(defaultIdx, 2)
			g.p("\t\trep.Tag = %sTag%s", name, GoName(branches[defaultIdx].Name))
			g.p("\t\tpd.PD.AddChildErrors(&%s, padsrt.ErrStructField)", g.pdHeader(branches[defaultIdx].Type, "pd."+goFieldName(branches[defaultIdx].Name)))
		} else {
			g.p("\t\tpd.PD.SetError(padsrt.ErrUnionTag, padsrt.Loc{Begin: begin, End: begin})")
		}
		g.p("\t}")
	} else {
		if screened {
			// The screen is armed only when nothing observes the
			// checkpoint stream: telemetry counters, profiler sampling,
			// and speculation limits all see fewer trials when branches
			// are skipped, so their presence disables screening — the
			// same gate the VM applies.
			g.p("\tscreen := s.Stats() == nil && s.Prof() == nil && !s.SpecLimited()")
			g.p("\tnb, nbOK := s.PeekByte()")
		}
		for i := range branches {
			k := &g.prog.Nodes[kids[i]]
			fn := goFieldName(branches[i].Name)
			pdh := g.pdHeader(branches[i].Type, "pd."+fn)
			atomic := g.prog.Nodes[k.A].Flags&ir.FAtomic != 0 && k.B == ir.None
			rewind := g.prog.Nodes[k.A].Flags&ir.FRewind != 0 && k.B == ir.None
			depth := 1
			if k.D != ir.None {
				// ASCII-conditional classes hold only under the default
				// ambient coding; on other codings the probe is disarmed.
				if g.prog.ClassASCII[k.D] {
					g.p("\tif !screen || s.Coding() != padsrt.ASCII || (nbOK && first%s%d.Has(nb)) {", name, i)
				} else {
					g.p("\tif !screen || (nbOK && first%s%d.Has(nb)) {", name, i)
				}
				depth = 2
			}
			ind := strings.Repeat("\t", depth)
			switch {
			case atomic:
			case rewind:
				g.p("%smark%d := s.Mark()", ind, i)
			default:
				g.p("%ss.Checkpoint()", ind)
			}
			emitBranchRead(i, depth)
			g.p("%sif %s.Nerr == 0 {", ind, pdh)
			if !atomic && !rewind {
				g.p("%s\ts.Commit()", ind)
			}
			g.p("%s\trep.Tag = %sTag%s", ind, name, GoName(branches[i].Name))
			if d.IsRecord {
				g.recordEpilogue(true)
			}
			g.p("%s\treturn", ind)
			g.p("%s}", ind)
			switch {
			case atomic:
			case rewind:
				g.p("%ss.Rewind(mark%d)", ind, i)
			default:
				g.p("%ss.Restore()", ind)
			}
			if k.D != ir.None {
				g.p("\t}")
			}
		}
		g.p("\tpd.PD.SetError(padsrt.ErrUnionMatch, s.LocFrom(begin))")
	}
	g.recordEpilogue(d.IsRecord)
	g.p("}")
	g.p("")
	g.emitUnionAux(d, branches)
}

// ---- array ----

func (g *gen) emitArray(d *dsl.ArrayDecl) {
	name := GoName(d.Name)
	elemGo := g.goType(d.Elem)
	elemPD := g.pdOf(d.Elem)

	g.p("// %s is the in-memory representation of the PADS array %s.", name, d.Name)
	g.p("type %s struct {", name)
	g.p("\tElems []%s", elemGo)
	g.p("}")
	g.p("")
	g.p("// %sPD is the parse descriptor for %s.", name, d.Name)
	g.p("type %sPD struct {", name)
	g.p("\tPD padsrt.PD")
	g.p("\tElems []%s", elemPD)
	g.p("}")
	g.p("")
	g.p("// %sMask controls checking and setting for %s.", name, d.Name)
	g.p("type %sMask struct {", name)
	g.p("\tCompoundLevel padsrt.Mask")
	if g.compoundRef(d.Elem) {
		g.p("\tElem %s", g.maskOf(d.Elem))
	} else {
		g.p("\tElem padsrt.Mask")
	}
	g.p("}")
	g.p("")
	g.p("// New%sMask builds a mask with every control set to base.", name)
	g.p("func New%sMask(base padsrt.Mask) *%sMask {", name, name)
	g.p("\tm := &%sMask{CompoundLevel: base}", name)
	if g.compoundRef(d.Elem) {
		g.p("\tm.Elem = *New%sMask(base)", GoName(d.Elem.Name))
	} else {
		g.p("\tm.Elem = base")
	}
	g.p("\treturn m")
	g.p("}")
	g.p("")
	g.p("var default%sMask = New%sMask(padsrt.CheckAndSet)", name, name)
	g.p("")

	// The lowered ArraySpec carries folded bounds, pooled sep/term literal
	// matchers, and the element node.
	an := &g.prog.Nodes[g.prog.Root(d.Name)]
	spec := &g.prog.Arrays[an.A]

	g.p("// Read%s parses one %s from s.", name, d.Name)
	g.p("func Read%s(s *padsrt.Source, m *%sMask, pd *%sPD, rep *%s%s) {", name, name, name, name, g.paramList(d.Params))
	g.p("\tif m == nil {")
	g.p("\t\tm = default%sMask", name)
	g.p("\t}")
	g.p("\tpd.PD = padsrt.PD{}")
	g.p("\tpd.Elems = pd.Elems[:0]")
	g.p("\trep.Elems = rep.Elems[:0]")
	g.recordPrologue(d.IsRecord)
	g.p("\tbegin := s.Pos()")
	g.p("\t_ = begin")

	sc := newScope(nil)
	for _, p := range d.Params {
		sc.bind(p.Name, "arg_"+p.Name, g.scopeTyForGo(p.Type, g.paramGoType(p.Type)))
	}
	seqSc := newScope(sc)
	seqSc.bind("elts", "rep.Elems", ty{k: sema.KArray, name: d.Name, elem: tyPtr(g.tyOfRef(d.Elem))})
	seqSc.bind("length", "int64(len(rep.Elems))", tyNum)

	if spec.HasMin {
		if spec.MinSize.IsConst {
			g.p("\tminSize := int64(%d)", spec.MinSize.Const)
		} else {
			code, t := g.expr(g.prog.Exprs[spec.MinSize.Expr].Src, sc)
			g.p("\tminSize := %s", asNum(code, t))
		}
	}
	if spec.HasMax {
		if spec.MaxSize.IsConst {
			g.p("\tmaxSize := int64(%d)", spec.MaxSize.Const)
		} else {
			code, t := g.expr(g.prog.Exprs[spec.MaxSize.Expr].Src, sc)
			g.p("\tmaxSize := %s", asNum(code, t))
		}
	}

	g.p("\tfor {")
	if spec.HasMax {
		g.p("\t\tif int64(len(rep.Elems)) >= maxSize {")
		g.p("\t\t\tbreak")
		g.p("\t\t}")
	}
	if spec.EndedPred != ir.None {
		cond, _ := g.expr(g.prog.Exprs[spec.EndedPred].Src, seqSc)
		g.p("\t\tif %s {", cond)
		g.p("\t\t\tbreak")
		g.p("\t\t}")
	}
	switch {
	case spec.TermEOR:
		g.p("\t\tif s.AtEOR() {")
		g.p("\t\t\tbreak")
		g.p("\t\t}")
	case spec.TermEOF:
		g.p("\t\tif s.AtEOF() {")
		g.p("\t\t\tbreak")
		g.p("\t\t}")
	case spec.Term != ir.None:
		g.p("\t\ts.Checkpoint()")
		g.p("\t\tif %s == padsrt.ErrNone {", g.matchLitID(spec.Term))
		g.p("\t\t\ts.Commit()")
		g.p("\t\t\tbreak")
		g.p("\t\t}")
		g.p("\t\ts.Restore()")
	}
	if spec.ElemIsRecord {
		g.p("\t\tif !s.InRecord() && !s.More() {")
		g.p("\t\t\tbreak")
		g.p("\t\t}")
	} else {
		g.p("\t\tif s.AtEOR() || (!s.InRecord() && s.AtEOF()) {")
		g.p("\t\t\tbreak")
		g.p("\t\t}")
	}
	if spec.Sep != ir.None {
		g.p("\t\tif len(rep.Elems) > 0 {")
		g.p("\t\t\tsepBegin := s.Pos()")
		g.p("\t\t\tif code := %s; code != padsrt.ErrNone {", g.matchLitID(spec.Sep))
		g.p("\t\t\t\tpd.PD.SetError(padsrt.ErrArraySep, s.LocFrom(sepBegin))")
		g.p("\t\t\t\tbreak")
		g.p("\t\t\t}")
		g.p("\t\t}")
	}
	g.p("\t\tposBefore := s.Pos().Byte")
	g.p("\t\trep.Elems = append(rep.Elems, %s{})", strings.TrimPrefix(elemGo, "*"))
	g.p("\t\tpd.Elems = append(pd.Elems, %s{})", elemPD)
	g.p("\t\ter := &rep.Elems[len(rep.Elems)-1]")
	g.p("\t\tepd := &pd.Elems[len(pd.Elems)-1]")
	elemMask := "m.Elem"
	g.readCall(an.B, d.Elem, "(*er)", elemMask, "(*epd)", sc, 2, "e")
	pdh := g.pdHeader(d.Elem, "(*epd)")
	g.p("\t\tif %s.Nerr > 0 {", pdh)
	g.p("\t\t\tpd.PD.AddChildErrors(&%s, padsrt.ErrArrayElem)", pdh)
	g.p("\t\t\tif s.Pos().Byte == posBefore {")
	g.p("\t\t\t\tbreak")
	g.p("\t\t\t}")
	g.p("\t\t}")
	if spec.LastPred != ir.None {
		lsc := newScope(seqSc)
		lsc.bind("elt", "(*er)", g.tyOfRef(d.Elem))
		cond, _ := g.expr(g.prog.Exprs[spec.LastPred].Src, lsc)
		g.p("\t\tif %s {", cond)
		g.p("\t\t\tbreak")
		g.p("\t\t}")
	}
	g.p("\t}")

	if spec.HasMin {
		g.p("\tif int64(len(rep.Elems)) < minSize && %s {", g.doCheckExpr("m.CompoundLevel"))
		g.p("\t\tpd.PD.SetError(padsrt.ErrArraySize, s.LocFrom(begin))")
		g.p("\t}")
	}
	if spec.Where != ir.None {
		cond, _ := g.expr(g.prog.Exprs[spec.Where].Src, seqSc)
		g.p("\tif %s && pd.PD.Nerr == 0 {", g.doCheckExpr("m.CompoundLevel"))
		g.p("\t\tif !(%s) {", cond)
		g.p("\t\t\tpd.PD.SetError(padsrt.ErrWhere, s.LocFrom(begin))")
		g.p("\t\t}")
		g.p("\t}")
	}
	g.recordEpilogue(d.IsRecord)
	g.p("}")
	g.p("")
	g.emitArrayAux(d)
}

func tyPtr(t ty) *ty { return &t }

// ---- enum ----

func (g *gen) emitEnum(d *dsl.EnumDecl) {
	name := GoName(d.Name)
	g.p("// %s is the in-memory representation of the PADS enum %s.", name, d.Name)
	g.p("type %s int32", name)
	g.p("const (")
	for i, m := range d.Members {
		if i == 0 {
			g.p("\t%s_%s %s = iota", name, m.Name, name)
		} else {
			g.p("\t%s_%s", name, m.Name)
		}
	}
	g.p(")")
	g.p("")
	g.p("var reprs%s = [...]string{", name)
	for _, m := range d.Members {
		g.p("\t%q,", m.Repr)
	}
	g.p("}")
	g.p("")
	g.p("// String returns the member literal.")
	g.p("func (v %s) String() string {", name)
	g.p("\tif v < 0 || int(v) >= len(reprs%s) {", name)
	g.p("\t\treturn \"<invalid>\"")
	g.p("\t}")
	g.p("\treturn reprs%s[v]", name)
	g.p("}")
	g.p("")

	// Match order and peek width come from the lowered EnumSpec: members
	// sorted longest-repr-first, so the first match is the longest.
	spec := &g.prog.Enums[g.prog.Nodes[g.prog.Root(d.Name)].A]

	g.p("// Read%s parses one %s from s.", name, d.Name)
	g.p("func Read%s(s *padsrt.Source, m padsrt.Mask, pd *padsrt.PD, rep *%s) {", name, name)
	g.p("\t*pd = padsrt.PD{}")
	g.p("\tbegin := s.Pos()")
	g.p("\tw := s.Peek(%d)", spec.MaxLen)
	g.p("\tswitch {")
	for _, a := range spec.Alts {
		g.p("\tcase len(w) >= %d && string(w[:%d]) == %q:", len(a.Repr), len(a.Repr), a.Repr)
		g.p("\t\ts.Skip(%d)", len(a.Repr))
		g.p("\t\tif %s {", g.doSetExpr("m"))
		g.p("\t\t\t*rep = %s_%s", name, a.Name)
		g.p("\t\t}")
	}
	g.p("\tdefault:")
	g.p("\t\tpd.SetError(padsrt.ErrInvalidEnum, padsrt.Loc{Begin: begin, End: begin})")
	g.p("\t}")
	g.p("}")
	g.p("")
	g.emitEnumAux(d)
}

// ---- typedef ----

func (g *gen) emitTypedef(d *dsl.TypedefDecl) {
	name := GoName(d.Name)
	underGo := g.goType(d.Base)
	g.p("// %s is the in-memory representation of the PADS typedef %s.", name, d.Name)
	g.p("type %s = %s", name, underGo)
	g.p("")
	g.p("// Read%s parses one %s from s.", name, d.Name)
	g.p("func Read%s(s *padsrt.Source, m padsrt.Mask, pd *padsrt.PD, rep *%s%s) {", name, name, g.paramList(d.Params))
	g.p("\t*pd = padsrt.PD{}")
	sc := newScope(nil)
	for _, p := range d.Params {
		sc.bind(p.Name, "arg_"+p.Name, g.scopeTyForGo(p.Type, g.paramGoType(p.Type)))
	}
	// The base may itself be an enum/typedef (mask by value) or a base
	// type; compound bases are not supported for typedefs by the checker.
	g.readCall(g.prog.Nodes[g.prog.Root(d.Name)].A, d.Base, "(*rep)", "m", "(*pd)", sc, 1, "t")
	if d.Constraint != nil {
		csc := newScope(sc)
		csc.bind(d.VarName, "(*rep)", g.tyOfRef(d.Base))
		cond, _ := g.expr(d.Constraint, csc)
		g.p("\tif %s && pd.Nerr == 0 {", g.doCheckExpr("m"))
		g.p("\t\tif !(%s) {", cond)
		g.p("\t\t\tpd.SetError(padsrt.ErrConstraint, padsrt.Loc{Begin: s.Pos(), End: s.Pos()})")
		g.p("\t\t}")
		g.p("\t}")
	}
	g.p("}")
	g.p("")
	g.emitTypedefAux(d)
}
