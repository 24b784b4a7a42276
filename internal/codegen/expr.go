package codegen

import (
	"fmt"
	"strings"

	"pads/internal/dsl"
	"pads/internal/sema"
)

// ty is the translator's view of an expression's type.
type ty struct {
	k    sema.Kind
	name string // declaration name for compound/enum types
	elem *ty    // array element / opt inner
}

var (
	tyNum   = ty{k: sema.KInt}
	tyFloat = ty{k: sema.KFloat}
	tyBool  = ty{k: sema.KBool}
	tyStr   = ty{k: sema.KString}
)

// scope maps description identifiers to Go expressions with their types.
type scope struct {
	vars   map[string]binding
	parent *scope
}

type binding struct {
	code string
	t    ty
}

func newScope(parent *scope) *scope { return &scope{vars: map[string]binding{}, parent: parent} }

func (s *scope) bind(name, code string, t ty) { s.vars[name] = binding{code, t} }

func (s *scope) lookup(name string) (binding, bool) {
	for c := s; c != nil; c = c.parent {
		if b, ok := c.vars[name]; ok {
			return b, true
		}
	}
	return binding{}, false
}

// tyOfRef computes the translator type of a type reference.
func (g *gen) tyOfRef(tr dsl.TypeRef) ty {
	if tr.Opt {
		inner := tr
		inner.Opt = false
		it := g.tyOfRef(inner)
		return ty{k: sema.KOpt, elem: &it}
	}
	if b := sema.LookupBase(tr.Name); b != nil {
		return ty{k: b.Kind}
	}
	switch d := g.desc.Types[tr.Name].(type) {
	case *dsl.StructDecl:
		return ty{k: sema.KStruct, name: d.Name}
	case *dsl.UnionDecl:
		return ty{k: sema.KUnion, name: d.Name}
	case *dsl.ArrayDecl:
		et := g.tyOfRef(d.Elem)
		return ty{k: sema.KArray, name: d.Name, elem: &et}
	case *dsl.EnumDecl:
		return ty{k: sema.KEnum, name: d.Name}
	case *dsl.TypedefDecl:
		return g.tyOfRef(d.Base)
	}
	return tyNum
}

func (g *gen) tyOfParam(typeName string) ty {
	if typeName == "bool" {
		return tyBool
	}
	if b := sema.LookupBase(typeName); b != nil {
		return ty{k: b.Kind}
	}
	if d, ok := g.desc.Types[typeName]; ok {
		return g.tyOfRef(dsl.TypeRef{Name: d.DeclName()})
	}
	return tyNum
}

// asNum renders code as an int64 (or float64) expression.
func asNum(code string, t ty) string {
	switch t.k {
	case sema.KDate:
		return "(" + code + ").Sec"
	case sema.KFloat:
		return code
	case sema.KInt:
		// May already be int64, but widths vary; a conversion is free.
		return "int64(" + code + ")"
	default:
		return "int64(" + code + ")"
	}
}

// convert renders code of type t as the requested Go type.
func convert(code string, t ty, goType string) string {
	switch goType {
	case "int64":
		return asNum(code, t)
	case "float64":
		if t.k == sema.KFloat {
			return "float64(" + code + ")"
		}
		return "float64(" + asNum(code, t) + ")"
	case "string":
		if t.k == sema.KChar {
			return "string(" + code + ")"
		}
		return code
	case "bool":
		return code
	default:
		return code
	}
}

// expr translates a description expression to Go source.
func (g *gen) expr(e dsl.Expr, sc *scope) (string, ty) {
	switch e := e.(type) {
	case *dsl.IntExpr:
		return fmt.Sprintf("%d", e.Val), tyNum
	case *dsl.FloatExpr:
		return fmt.Sprintf("float64(%g)", e.Val), tyFloat
	case *dsl.CharExpr:
		return fmt.Sprintf("int64(%q)", rune(e.Val)), ty{k: sema.KChar}
	case *dsl.StrExpr:
		return fmt.Sprintf("%q", e.Val), tyStr
	case *dsl.BoolExpr:
		if e.Val {
			return "true", tyBool
		}
		return "false", tyBool
	case *dsl.RegexpExpr:
		return fmt.Sprintf("%q", e.Src), tyStr
	case *dsl.EORExpr, *dsl.EOFExpr:
		return "int64(0)", tyNum
	case *dsl.IdentExpr:
		if b, ok := sc.lookup(e.Name); ok {
			return b.code, b.t
		}
		if en, ok := g.desc.EnumOf[e.Name]; ok {
			return fmt.Sprintf("%s_%s", GoName(en.Name), e.Name), ty{k: sema.KEnum, name: en.Name}
		}
		g.err = fmt.Errorf("codegen: %s: unresolved identifier %s", e.Pos, e.Name)
		return "0", tyNum
	case *dsl.CallExpr:
		fn := g.desc.Funcs[e.Func]
		if fn == nil {
			g.err = fmt.Errorf("codegen: %s: unknown function %s", e.Pos, e.Func)
			return "false", tyBool
		}
		var b strings.Builder
		fmt.Fprintf(&b, "fn_%s(", e.Func)
		for i, a := range e.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			code, t := g.expr(a, sc)
			b.WriteString(convert(code, t, g.paramGoType(fn.Params[i].Type)))
		}
		b.WriteString(")")
		return b.String(), g.tyOfParam(fn.RetType)
	case *dsl.DotExpr:
		code, t := g.expr(e.X, sc)
		if t.k == sema.KOpt && t.elem != nil {
			// Reading through an optional accesses the (possibly unset)
			// value, the C-struct semantics of the original system.
			code += ".Val"
			t = *t.elem
		}
		ft, ok := g.fieldTy(t, e.Field)
		if !ok {
			g.err = fmt.Errorf("codegen: %s: %s has no field %s", e.Pos, t.name, e.Field)
			return "0", tyNum
		}
		return code + "." + goFieldName(e.Field), ft
	case *dsl.IndexExpr:
		code, t := g.expr(e.X, sc)
		idx, it := g.expr(e.Index, sc)
		elem := tyNum
		if t.k == sema.KArray && t.elem != nil {
			elem = *t.elem
		}
		return fmt.Sprintf("%s[%s]", code, "int("+asNum(idx, it)+")"), elem
	case *dsl.UnaryExpr:
		code, t := g.expr(e.X, sc)
		if e.Op == dsl.NOT {
			return "!(" + code + ")", tyBool
		}
		if t.k == sema.KFloat {
			return "-(" + code + ")", tyFloat
		}
		return "-(" + asNum(code, t) + ")", tyNum
	case *dsl.BinaryExpr:
		return g.binExpr(e, sc)
	case *dsl.CondExpr:
		c, _ := g.expr(e.Cond, sc)
		a, at := g.expr(e.Then, sc)
		b, bt := g.expr(e.Else, sc)
		goT := "int64"
		switch {
		case at.k == sema.KBool:
			goT = "bool"
		case at.k == sema.KString:
			goT = "string"
		case at.k == sema.KFloat || bt.k == sema.KFloat:
			goT = "float64"
		}
		return fmt.Sprintf("func() %s { if %s { return %s }; return %s }()",
			goT, c, convert(a, at, goT), convert(b, bt, goT)), at
	case *dsl.ForallExpr:
		lo, lot := g.expr(e.Lo, sc)
		hi, hit := g.expr(e.Hi, sc)
		inner := newScope(sc)
		v := "q_" + e.Var
		inner.bind(e.Var, v, tyNum)
		body, _ := g.expr(e.Body, inner)
		if e.Exists {
			return fmt.Sprintf(
				"func() bool { for %s := %s; %s <= %s; %s++ { if %s { return true } }; return false }()",
				v, asNum(lo, lot), v, asNum(hi, hit), v, body), tyBool
		}
		return fmt.Sprintf(
			"func() bool { for %s := %s; %s <= %s; %s++ { if !(%s) { return false } }; return true }()",
			v, asNum(lo, lot), v, asNum(hi, hit), v, body), tyBool
	}
	g.err = fmt.Errorf("codegen: unsupported expression %T", e)
	return "0", tyNum
}

func (g *gen) binExpr(e *dsl.BinaryExpr, sc *scope) (string, ty) {
	l, lt := g.expr(e.L, sc)
	r, rt := g.expr(e.R, sc)
	op := map[dsl.Kind]string{
		dsl.ANDAND: "&&", dsl.OROR: "||",
		dsl.EQ: "==", dsl.NE: "!=", dsl.LT: "<", dsl.LE: "<=", dsl.GT: ">", dsl.GE: ">=",
		dsl.PLUS: "+", dsl.MINUS: "-", dsl.STAR: "*", dsl.SLASH: "/", dsl.PERCENT: "%",
	}[e.Op]

	switch e.Op {
	case dsl.ANDAND, dsl.OROR:
		return fmt.Sprintf("(%s %s %s)", l, op, r), tyBool
	case dsl.EQ, dsl.NE, dsl.LT, dsl.LE, dsl.GT, dsl.GE:
		switch {
		case lt.k == sema.KString && rt.k == sema.KString:
			return fmt.Sprintf("(%s %s %s)", l, op, r), tyBool
		case lt.k == sema.KString && rt.k == sema.KChar:
			return fmt.Sprintf("(%s %s string(rune(%s)))", l, op, asNum(r, rt)), tyBool
		case lt.k == sema.KChar && rt.k == sema.KString:
			return fmt.Sprintf("(string(rune(%s)) %s %s)", asNum(l, lt), op, r), tyBool
		case lt.k == sema.KBool && rt.k == sema.KBool:
			return fmt.Sprintf("(%s %s %s)", l, op, r), tyBool
		case lt.k == sema.KFloat || rt.k == sema.KFloat:
			return fmt.Sprintf("(%s %s %s)", convert(l, lt, "float64"), op, convert(r, rt, "float64")), tyBool
		default:
			return fmt.Sprintf("(%s %s %s)", asNum(l, lt), op, asNum(r, rt)), tyBool
		}
	default: // arithmetic
		if lt.k == sema.KFloat || rt.k == sema.KFloat {
			return fmt.Sprintf("(%s %s %s)", convert(l, lt, "float64"), op, convert(r, rt, "float64")), tyFloat
		}
		return fmt.Sprintf("(%s %s %s)", asNum(l, lt), op, asNum(r, rt)), tyNum
	}
}

// fieldTy resolves a field's translator type.
func (g *gen) fieldTy(t ty, field string) (ty, bool) {
	switch t.k {
	case sema.KStruct:
		d, _ := g.desc.Types[t.name].(*dsl.StructDecl)
		if d == nil {
			return tyNum, false
		}
		for _, it := range d.Items {
			if it.Field != nil && it.Field.Name == field {
				return g.tyOfRef(it.Field.Type), true
			}
		}
	case sema.KUnion:
		d, _ := g.desc.Types[t.name].(*dsl.UnionDecl)
		if d == nil {
			return tyNum, false
		}
		branches := d.Branches
		if d.Switch != nil {
			for i := range d.Switch.Cases {
				branches = append(branches, d.Switch.Cases[i].Field)
			}
		}
		for i := range branches {
			if branches[i].Name == field {
				return g.tyOfRef(branches[i].Type), true
			}
		}
	}
	return tyNum, false
}

// ---- predicate functions ----

func (g *gen) emitFunc(fd *dsl.FuncDecl) {
	sc := newScope(nil)
	var params strings.Builder
	for i, p := range fd.Params {
		if i > 0 {
			params.WriteString(", ")
		}
		goT := g.paramGoType(p.Type)
		fmt.Fprintf(&params, "p_%s %s", p.Name, goT)
		sc.bind(p.Name, "p_"+p.Name, g.scopeTyForGo(p.Type, goT))
	}
	ret := g.paramGoType(fd.RetType)
	g.p("func fn_%s(%s) %s {", fd.Name, params.String(), ret)
	g.emitStmts(fd.Body, sc, ret, 1)
	// A final return satisfies the compiler for bodies whose returns all
	// live inside conditionals; skip it when the body already ends in one.
	endsInReturn := false
	if len(fd.Body) > 0 {
		_, endsInReturn = fd.Body[len(fd.Body)-1].(*dsl.ReturnStmt)
	}
	if !endsInReturn {
		switch ret {
		case "bool":
			g.p("\treturn false")
		case "string":
			g.p("\treturn \"\"")
		default:
			g.p("\treturn 0")
		}
	}
	g.p("}")
	g.p("")
}

// scopeTyForGo picks the translator type a parameter binding should carry:
// numeric parameters are passed as int64, so their scope type is numeric
// even when the declared type is an enum or char.
func (g *gen) scopeTyForGo(declType, goT string) ty {
	switch goT {
	case "int64":
		return tyNum
	case "float64":
		return tyFloat
	case "string":
		return tyStr
	case "bool":
		return tyBool
	}
	return g.tyOfParam(declType)
}

func (g *gen) emitStmts(stmts []dsl.Stmt, sc *scope, ret string, depth int) {
	ind := strings.Repeat("\t", depth)
	for _, s := range stmts {
		switch s := s.(type) {
		case *dsl.VarStmt:
			goT := g.paramGoType(s.Type)
			code, t := g.expr(s.Init, sc)
			g.p("%svar v_%s %s = %s", ind, s.Name, goT, convert(code, t, goT))
			g.p("%s_ = v_%s", ind, s.Name)
			sc.bind(s.Name, "v_"+s.Name, g.scopeTyForGo(s.Type, goT))
		case *dsl.AssignStmt:
			b, ok := sc.lookup(s.Name)
			if !ok {
				g.err = fmt.Errorf("codegen: assignment to unknown %s", s.Name)
				continue
			}
			code, t := g.expr(s.Val, sc)
			goT := "int64"
			switch b.t.k {
			case sema.KBool:
				goT = "bool"
			case sema.KString:
				goT = "string"
			case sema.KFloat:
				goT = "float64"
			}
			g.p("%s%s = %s", ind, b.code, convert(code, t, goT))
		case *dsl.IfStmt:
			cond, _ := g.expr(s.Cond, sc)
			g.p("%sif %s {", ind, cond)
			g.emitStmts(s.Then, newScope(sc), ret, depth+1)
			if len(s.Else) > 0 {
				g.p("%s} else {", ind)
				g.emitStmts(s.Else, newScope(sc), ret, depth+1)
			}
			g.p("%s}", ind)
		case *dsl.ReturnStmt:
			code, t := g.expr(s.Val, sc)
			g.p("%sreturn %s", ind, convert(code, t, ret))
		case *dsl.ExprStmt:
			code, _ := g.expr(s.X, sc)
			g.p("%s_ = %s", ind, code)
		}
	}
}
