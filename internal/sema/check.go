package sema

import (
	"pads/internal/dsl"
	"pads/internal/padsrt"
)

// Desc is a checked description: the program plus the symbol tables the
// interpreter, code generator, and tools need.
type Desc struct {
	Program *dsl.Program
	// Types maps each declared type name to its declaration.
	Types map[string]dsl.Decl
	// Funcs maps predicate-function names to their declarations.
	Funcs map[string]*dsl.FuncDecl
	// EnumOf maps each enumeration literal to its enum declaration, and
	// EnumIndex to its position; enum literals are in scope everywhere.
	EnumOf    map[string]*dsl.EnumDecl
	EnumIndex map[string]int
	// Source is the declaration describing the totality of the data
	// source: the Psource-annotated declaration, or the last type
	// declaration when no annotation is present.
	Source dsl.Decl
	// Regexps holds the compiled form of every regular-expression literal
	// in the description, keyed by source text.
	Regexps map[string]*padsrt.Regexp

	// What the expression compiler needs (internal/ir, "Compiled
	// expressions" in docs/IR.md): ExprTypes is the static type of every
	// checked expression; Idents resolves every identifier to its binding;
	// Locals is the frame slot a function's var or assignment statement
	// writes; Quants is the frame slot of each quantifier's variable; and
	// Frames is the frame size of each type declaration and function (see
	// Binding for the frame layout).
	ExprTypes map[dsl.Expr]*Type
	Idents    map[*dsl.IdentExpr]Binding
	Locals    map[dsl.Stmt]int
	Quants    map[*dsl.ForallExpr]int
	Frames    map[dsl.Decl]int
}

// Check performs semantic analysis. The returned Desc is usable when the
// error list is empty.
func Check(prog *dsl.Program) (*Desc, []*dsl.Error) {
	c := &checker{
		desc: &Desc{
			Program:   prog,
			Types:     make(map[string]dsl.Decl),
			Funcs:     make(map[string]*dsl.FuncDecl),
			EnumOf:    make(map[string]*dsl.EnumDecl),
			EnumIndex: make(map[string]int),
			Regexps:   make(map[string]*padsrt.Regexp),
			ExprTypes: make(map[dsl.Expr]*Type),
			Idents:    make(map[*dsl.IdentExpr]Binding),
			Locals:    make(map[dsl.Stmt]int),
			Quants:    make(map[*dsl.ForallExpr]int),
			Frames:    make(map[dsl.Decl]int),
		},
		resolving: make(map[string]bool),
	}
	c.run()
	return c.desc, c.errs
}

type checker struct {
	desc *Desc
	errs []*dsl.Error
	// resolving holds declaration names whose semantic type is being
	// computed, to break reference cycles in declType. A cycle is only
	// reachable for a declaration that (transitively) names itself, which
	// its own check already rejected — names register only after checking,
	// so a self-reference reports "undeclared type" there. The guard keeps
	// later resolutions of the registered name from recursing forever.
	resolving map[string]bool
	// frame is the next free slot of the frame being checked.
	frame int
}

func (c *checker) errorf(pos dsl.Pos, format string, args ...interface{}) {
	c.errs = append(c.errs, dsl.Errorf(pos, format, args...))
}

// env is a lexical scope of expression variables. Its chain has the
// shadowing order of the run-time scopes exactly: a name resolves to the
// innermost binding in scope at the point it is read.
type env struct {
	vars   map[string]bound
	parent *env
}

// bound is one variable: its type and where it lives.
type bound struct {
	t *Type
	b Binding
}

func newEnv(parent *env) *env { return &env{vars: make(map[string]bound), parent: parent} }

func (e *env) bind(name string, t *Type, b Binding) { e.vars[name] = bound{t, b} }

func (e *env) lookup(name string) *Type {
	if v, ok := e.find(name); ok {
		return v.t
	}
	return nil
}

func (e *env) find(name string) (bound, bool) {
	for s := e; s != nil; s = s.parent {
		if v, ok := s.vars[name]; ok {
			return v, true
		}
	}
	return bound{}, false
}

// slot allocates the next free slot of the frame being checked.
func (c *checker) slot() int {
	c.frame++
	return c.frame - 1
}

func (c *checker) run() {
	var lastType dsl.Decl
	for _, d := range c.desc.Program.Decls {
		switch d := d.(type) {
		case *dsl.FuncDecl:
			if _, dup := c.desc.Funcs[d.Name]; dup {
				c.errorf(d.Pos, "function %s redeclared", d.Name)
			} else if _, dup := c.desc.Types[d.Name]; dup {
				c.errorf(d.Pos, "%s redeclared as a function", d.Name)
			}
			// Register before checking the body so functions may recurse
			// (the evaluator bounds call depth at run time).
			c.desc.Funcs[d.Name] = d
			c.checkFunc(d)
		default:
			dup := false
			if _, ok := c.desc.Types[d.DeclName()]; ok {
				c.errorf(d.DeclPos(), "type %s redeclared", d.DeclName())
				dup = true
			} else if LookupBase(d.DeclName()) != nil {
				c.errorf(d.DeclPos(), "type %s shadows a base type", d.DeclName())
			}
			c.checkTypeDecl(d)
			// Register after checking so self-reference is an
			// undeclared-type error (recursive types are not supported).
			// A redeclaration keeps the first definition: re-binding the
			// name would let a later declaration reference itself through
			// it, putting a cycle in the registry.
			if !dup {
				c.desc.Types[d.DeclName()] = d
			}
			lastType = d
			if annotOf(d).IsSource {
				if c.desc.Source != nil {
					c.errorf(d.DeclPos(), "multiple Psource declarations (%s and %s)", c.desc.Source.DeclName(), d.DeclName())
				}
				c.desc.Source = d
			}
		}
	}
	if c.desc.Source == nil {
		c.desc.Source = lastType
	}
	if c.desc.Source == nil {
		c.errorf(dsl.Pos{Line: 1, Col: 1}, "description declares no types")
	}
}

func annotOf(d dsl.Decl) dsl.Annot {
	switch d := d.(type) {
	case *dsl.StructDecl:
		return d.Annot
	case *dsl.UnionDecl:
		return d.Annot
	case *dsl.ArrayDecl:
		return d.Annot
	case *dsl.EnumDecl:
		return d.Annot
	case *dsl.TypedefDecl:
		return d.Annot
	}
	return dsl.Annot{}
}

// Annot exposes a declaration's Precord/Psource annotations.
func Annot(d dsl.Decl) dsl.Annot { return annotOf(d) }

// paramEnv builds the scope holding a declaration's value parameters, in
// slots 0..len(params)-1, and starts a frame whose first free slot follows
// them and the extra slots the declaration reserves.
func (c *checker) paramEnv(params []dsl.Param, extra int) *env {
	e := newEnv(nil)
	for i, p := range params {
		e.bind(p.Name, c.namedType(p.Type, p.Pos), Binding{Kind: BindParam, Slot: i})
	}
	c.frame = len(params) + extra
	return e
}

// namedType resolves a type name (base or declared) to its semantic type.
// "bool" is an expression-only type usable in functions but not parseable.
func (c *checker) namedType(name string, pos dsl.Pos) *Type {
	if name == "bool" {
		return &Type{Kind: KBool, Name: "bool"}
	}
	if b := LookupBase(name); b != nil {
		return &Type{Kind: b.Kind, Name: name}
	}
	if d, ok := c.desc.Types[name]; ok {
		return c.declType(d)
	}
	c.errorf(pos, "undeclared type %s", name)
	return &Type{Kind: KInvalid, Name: name}
}

func (c *checker) declType(d dsl.Decl) *Type {
	if name := d.DeclName(); c.resolving[name] {
		return &Type{Kind: KInvalid, Name: name}
	}
	switch d := d.(type) {
	case *dsl.StructDecl:
		return &Type{Kind: KStruct, Name: d.Name}
	case *dsl.UnionDecl:
		return &Type{Kind: KUnion, Name: d.Name}
	case *dsl.ArrayDecl:
		c.resolving[d.Name] = true
		elem := c.refTypeShallow(d.Elem)
		delete(c.resolving, d.Name)
		return &Type{Kind: KArray, Name: d.Name, Elem: elem}
	case *dsl.EnumDecl:
		return &Type{Kind: KEnum, Name: d.Name}
	case *dsl.TypedefDecl:
		c.resolving[d.Name] = true
		under := c.refTypeShallow(d.Base)
		delete(c.resolving, d.Name)
		return &Type{Kind: KTypedef, Name: d.Name, Elem: under}
	}
	return &Type{Kind: KInvalid}
}

// refTypeShallow resolves a type reference without validating arguments
// (used where only the result type matters).
func (c *checker) refTypeShallow(tr dsl.TypeRef) *Type {
	t := c.namedType(tr.Name, tr.Pos)
	if tr.Opt {
		return &Type{Kind: KOpt, Name: tr.Name, Elem: t}
	}
	return t
}

// refType resolves a type reference and validates its arguments in scope e.
func (c *checker) refType(tr dsl.TypeRef, e *env) *Type {
	if tr.Name == "bool" {
		c.errorf(tr.Pos, "bool is not a parseable type")
		return &Type{Kind: KInvalid, Name: "bool"}
	}
	if b := LookupBase(tr.Name); b != nil {
		if len(tr.Args) != len(b.Args) {
			c.errorf(tr.Pos, "%s takes %d argument(s), got %d", tr.Name, len(b.Args), len(tr.Args))
		} else {
			for i, a := range tr.Args {
				c.checkBaseArg(tr.Name, b.Args[i], a, e)
			}
		}
	} else if d, ok := c.desc.Types[tr.Name]; ok {
		params := declParams(d)
		if len(tr.Args) != len(params) {
			c.errorf(tr.Pos, "%s takes %d argument(s), got %d", tr.Name, len(params), len(tr.Args))
		} else {
			for i, a := range tr.Args {
				at := c.checkExpr(a, e)
				pt := c.namedType(params[i].Type, params[i].Pos)
				if !looselyAssignable(pt, at) {
					c.errorf(a.ExprPos(), "argument %d of %s: cannot use %s as %s", i+1, tr.Name, at, pt)
				}
			}
		}
	}
	return c.refTypeShallow(tr)
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

func (c *checker) checkBaseArg(base string, want ArgKind, a dsl.Expr, e *env) {
	switch want {
	case ArgInt:
		t := resolve(c.checkExpr(a, e))
		if t.Kind != KInvalid && (!t.Kind.Numeric() || t.Kind == KChar) {
			c.errorf(a.ExprPos(), "%s expects a numeric argument, got %s", base, t)
		}
	case ArgChar:
		switch a := a.(type) {
		case *dsl.CharExpr, *dsl.EORExpr, *dsl.EOFExpr:
			// ok: a character terminator or a record/input boundary
		default:
			t := c.checkExpr(a, e)
			if rt := resolve(t); rt.Kind != KChar {
				c.errorf(a.ExprPos(), "%s expects a character argument, got %s", base, t)
			}
		}
	case ArgRegexp:
		re, ok := a.(*dsl.RegexpExpr)
		if !ok {
			c.errorf(a.ExprPos(), "%s expects a Pre \"…\" regular-expression argument", base)
			return
		}
		c.compileRegexp(re.Src, re.Pos)
	}
}

func (c *checker) compileRegexp(src string, pos dsl.Pos) {
	if _, ok := c.desc.Regexps[src]; ok {
		return
	}
	re, err := padsrt.CompileRegexp(src)
	if err != nil {
		c.errorf(pos, "invalid regular expression %q: %v", src, err)
		return
	}
	c.desc.Regexps[src] = re
}

func (c *checker) checkLiteral(l *dsl.Literal) {
	if l != nil && l.Kind == dsl.RegexpLit {
		c.compileRegexp(l.Str, l.Pos)
	}
}

// ---- declarations ----

func (c *checker) checkTypeDecl(d dsl.Decl) {
	switch d := d.(type) {
	case *dsl.StructDecl:
		nfields := 0
		for _, it := range d.Items {
			if it.Field != nil {
				nfields++
			}
		}
		e := c.paramEnv(d.Params, nfields)
		slot := len(d.Params)
		for _, it := range d.Items {
			if it.Lit != nil {
				c.checkLiteral(it.Lit)
				continue
			}
			f := it.Field
			ft := c.refType(f.Type, e)
			fb := Binding{Kind: BindField, Slot: slot}
			slot++
			if f.Constraint != nil {
				fe := newEnv(e)
				fe.bind(f.Name, ft, fb)
				c.checkBool(f.Constraint, fe, "field constraint")
			}
			if e.lookup(f.Name) != nil {
				c.errorf(f.Pos, "field %s redeclared in %s", f.Name, d.Name)
			}
			e.bind(f.Name, ft, fb)
		}
		if d.Where != nil {
			c.checkBool(d.Where, e, "Pwhere clause")
		}
	case *dsl.UnionDecl:
		e := c.paramEnv(d.Params, 1)
		if d.Switch != nil {
			selT := c.checkExpr(d.Switch.Selector, e)
			hasDefault := false
			for i := range d.Switch.Cases {
				cs := &d.Switch.Cases[i]
				if len(cs.Values) == 0 {
					if hasDefault {
						c.errorf(cs.Pos, "multiple Pdefault cases in %s", d.Name)
					}
					hasDefault = true
				}
				for _, v := range cs.Values {
					vt := c.checkExpr(v, e)
					if !comparable2(selT, vt) {
						c.errorf(v.ExprPos(), "Pcase value type %s does not match selector type %s", vt, selT)
					}
				}
				c.checkUnionBranch(d, &cs.Field, e)
			}
		} else {
			if len(d.Branches) == 0 {
				c.errorf(d.Pos, "union %s has no branches", d.Name)
			}
			seen := map[string]bool{}
			for i := range d.Branches {
				b := &d.Branches[i]
				if seen[b.Name] {
					c.errorf(b.Pos, "branch %s redeclared in %s", b.Name, d.Name)
				}
				seen[b.Name] = true
				c.checkUnionBranch(d, b, e)
			}
		}
		if d.Where != nil {
			c.errorf(d.Where.ExprPos(), "Pwhere is not supported on unions; constrain the branches instead")
		}
	case *dsl.ArrayDecl:
		e := c.paramEnv(d.Params, 3)
		p := len(d.Params)
		elts := Binding{Kind: BindField, Slot: p}
		length := Binding{Kind: BindLength, Slot: p + 1}
		elt := Binding{Kind: BindField, Slot: p + 2}
		elemT := c.refType(d.Elem, e)
		if d.MinSize != nil {
			c.checkNumeric(d.MinSize, e, "array size")
		}
		if d.MaxSize != nil && d.MaxSize != d.MinSize {
			c.checkNumeric(d.MaxSize, e, "array size")
		}
		c.checkLiteral(d.Sep)
		c.checkLiteral(d.Term)
		arrT := &Type{Kind: KArray, Name: d.Name, Elem: elemT}
		if d.LastPred != nil {
			le := newEnv(e)
			le.bind("elt", elemT, elt)
			le.bind("elts", arrT, elts)
			le.bind("length", &Type{Kind: KUint, Name: "Puint32"}, length)
			c.checkBool(d.LastPred, le, "Plast predicate")
		}
		if d.EndedPred != nil {
			le := newEnv(e)
			le.bind("elts", arrT, elts)
			le.bind("length", &Type{Kind: KUint, Name: "Puint32"}, length)
			c.checkBool(d.EndedPred, le, "Pended predicate")
		}
		if d.Where != nil {
			we := newEnv(e)
			we.bind("elts", arrT, elts)
			we.bind("length", &Type{Kind: KUint, Name: "Puint32"}, length)
			c.checkBool(d.Where, we, "Pwhere clause")
		}
	case *dsl.EnumDecl:
		c.frame = 0
		if len(d.Members) == 0 {
			c.errorf(d.Pos, "enum %s has no members", d.Name)
		}
		for i, m := range d.Members {
			if other, dup := c.desc.EnumOf[m.Name]; dup {
				c.errorf(m.Pos, "enum literal %s already declared in %s", m.Name, other.Name)
				continue
			}
			c.desc.EnumOf[m.Name] = d
			c.desc.EnumIndex[m.Name] = i
		}
	case *dsl.TypedefDecl:
		e := c.paramEnv(d.Params, 1)
		baseT := c.refType(d.Base, e)
		if d.Constraint != nil {
			ce := newEnv(e)
			ce.bind(d.VarName, baseT, Binding{Kind: BindField, Slot: len(d.Params)})
			c.checkBool(d.Constraint, ce, "typedef constraint")
		}
	}
	c.desc.Frames[d] = c.frame
}

func (c *checker) checkUnionBranch(d *dsl.UnionDecl, b *dsl.Field, e *env) {
	bt := c.refType(b.Type, e)
	if b.Constraint != nil {
		be := newEnv(e)
		be.bind(b.Name, bt, Binding{Kind: BindField, Slot: len(d.Params)})
		c.checkBool(b.Constraint, be, "branch constraint")
	}
}

func (c *checker) checkFunc(d *dsl.FuncDecl) {
	e := c.paramEnv(d.Params, 0)
	retT := c.namedType(d.RetType, d.Pos)
	sawReturn := c.checkStmts(d.Body, e, retT)
	if !sawReturn {
		c.errorf(d.Pos, "function %s has no return statement", d.Name)
	}
	c.desc.Frames[d] = c.frame
}

func (c *checker) checkStmts(stmts []dsl.Stmt, e *env, retT *Type) bool {
	saw := false
	for _, s := range stmts {
		switch s := s.(type) {
		case *dsl.VarStmt:
			t := c.namedType(s.Type, s.Pos)
			it := c.checkExpr(s.Init, e)
			if !looselyAssignable(t, it) {
				c.errorf(s.Pos, "cannot initialize %s %s with %s", s.Type, s.Name, it)
			}
			// A second declaration of a name in the same scope rebinds it
			// in place, so it reuses the slot.
			slot := 0
			if v, ok := e.vars[s.Name]; ok {
				slot = v.b.Slot
			} else {
				slot = c.slot()
			}
			c.desc.Locals[s] = slot
			e.bind(s.Name, t, Binding{Kind: BindLocal, Slot: slot})
		case *dsl.AssignStmt:
			v, ok := e.find(s.Name)
			t := v.t
			if !ok {
				c.errorf(s.Pos, "assignment to undeclared variable %s", s.Name)
				t = &Type{Kind: KInvalid}
			} else {
				c.desc.Locals[s] = v.b.Slot
			}
			vt := c.checkExpr(s.Val, e)
			if !looselyAssignable(t, vt) {
				c.errorf(s.Pos, "cannot assign %s to %s", vt, t)
			}
		case *dsl.IfStmt:
			c.checkBool(s.Cond, e, "if condition")
			if c.checkStmts(s.Then, newEnv(e), retT) {
				saw = true
			}
			if c.checkStmts(s.Else, newEnv(e), retT) {
				saw = true
			}
		case *dsl.ReturnStmt:
			vt := c.checkExpr(s.Val, e)
			if !looselyAssignable(retT, vt) {
				c.errorf(s.Pos, "cannot return %s from a function returning %s", vt, retT)
			}
			saw = true
		case *dsl.ExprStmt:
			c.checkExpr(s.X, e)
		}
	}
	return saw
}

// ---- expressions ----

func (c *checker) checkBool(x dsl.Expr, e *env, what string) {
	t := c.checkExpr(x, e)
	if rt := resolve(t); rt.Kind != KBool && rt.Kind != KInvalid {
		c.errorf(x.ExprPos(), "%s must be boolean, got %s", what, t)
	}
}

func (c *checker) checkNumeric(x dsl.Expr, e *env, what string) {
	t := c.checkExpr(x, e)
	if rt := resolve(t); !rt.Kind.Numeric() && rt.Kind != KInvalid {
		c.errorf(x.ExprPos(), "%s must be numeric, got %s", what, t)
	}
}

var (
	tInvalid = &Type{Kind: KInvalid}
	tBool    = &Type{Kind: KBool}
)

// checkExpr types x in scope e and records its type (Desc.ExprTypes).
func (c *checker) checkExpr(x dsl.Expr, e *env) *Type {
	t := c.exprType(x, e)
	c.desc.ExprTypes[x] = t
	return t
}

func (c *checker) exprType(x dsl.Expr, e *env) *Type {
	switch x := x.(type) {
	case *dsl.IntExpr:
		return &Type{Kind: KInt}
	case *dsl.FloatExpr:
		return &Type{Kind: KFloat}
	case *dsl.CharExpr:
		return &Type{Kind: KChar}
	case *dsl.StrExpr:
		return &Type{Kind: KString}
	case *dsl.BoolExpr:
		return tBool
	case *dsl.RegexpExpr:
		c.compileRegexp(x.Src, x.Pos)
		return &Type{Kind: KString}
	case *dsl.EORExpr, *dsl.EOFExpr:
		return &Type{Kind: KChar}
	case *dsl.IdentExpr:
		if v, ok := e.find(x.Name); ok {
			c.desc.Idents[x] = v.b
			return v.t
		}
		if en, ok := c.desc.EnumOf[x.Name]; ok {
			c.desc.Idents[x] = Binding{Kind: BindEnum}
			return &Type{Kind: KEnum, Name: en.Name}
		}
		c.errorf(x.Pos, "undeclared identifier %s", x.Name)
		return tInvalid
	case *dsl.CallExpr:
		fn, ok := c.desc.Funcs[x.Func]
		if !ok {
			c.errorf(x.Pos, "call to undeclared function %s", x.Func)
			for _, a := range x.Args {
				c.checkExpr(a, e)
			}
			return tInvalid
		}
		if len(x.Args) != len(fn.Params) {
			c.errorf(x.Pos, "%s takes %d argument(s), got %d", x.Func, len(fn.Params), len(x.Args))
		}
		for i, a := range x.Args {
			at := c.checkExpr(a, e)
			if i < len(fn.Params) {
				pt := c.namedType(fn.Params[i].Type, fn.Params[i].Pos)
				if !looselyAssignable(pt, at) {
					c.errorf(a.ExprPos(), "argument %d of %s: cannot use %s as %s", i+1, x.Func, at, pt)
				}
			}
		}
		return c.namedType(fn.RetType, fn.Pos)
	case *dsl.DotExpr:
		xt := resolve(c.checkExpr(x.X, e))
		ft := c.fieldType(xt, x.Field)
		if ft == nil {
			if xt.Kind != KInvalid {
				c.errorf(x.Pos, "%s has no field %s", xt, x.Field)
			}
			return tInvalid
		}
		return ft
	case *dsl.IndexExpr:
		xt := resolve(c.checkExpr(x.X, e))
		c.checkNumeric(x.Index, e, "index")
		if xt.Kind == KArray {
			return xt.Elem
		}
		if xt.Kind != KInvalid {
			c.errorf(x.Pos, "cannot index %s", xt)
		}
		return tInvalid
	case *dsl.UnaryExpr:
		xt := resolve(c.checkExpr(x.X, e))
		if x.Op == dsl.NOT {
			if xt.Kind != KBool && xt.Kind != KInvalid {
				c.errorf(x.Pos, "operator ! requires a boolean, got %s", xt)
			}
			return tBool
		}
		if !xt.Kind.Numeric() && xt.Kind != KInvalid {
			c.errorf(x.Pos, "operator - requires a number, got %s", xt)
		}
		return &Type{Kind: KInt}
	case *dsl.BinaryExpr:
		lt := resolve(c.checkExpr(x.L, e))
		rt := resolve(c.checkExpr(x.R, e))
		switch x.Op {
		case dsl.ANDAND, dsl.OROR:
			if lt.Kind != KBool && lt.Kind != KInvalid {
				c.errorf(x.L.ExprPos(), "operand of %s must be boolean, got %s", x.Op, lt)
			}
			if rt.Kind != KBool && rt.Kind != KInvalid {
				c.errorf(x.R.ExprPos(), "operand of %s must be boolean, got %s", x.Op, rt)
			}
			return tBool
		case dsl.EQ, dsl.NE, dsl.LT, dsl.LE, dsl.GT, dsl.GE:
			if !comparable2(lt, rt) {
				c.errorf(x.Pos, "cannot compare %s with %s", lt, rt)
			}
			return tBool
		default: // arithmetic
			if (!lt.Kind.Numeric() && lt.Kind != KInvalid) || (!rt.Kind.Numeric() && rt.Kind != KInvalid) {
				c.errorf(x.Pos, "operator %s requires numbers, got %s and %s", x.Op, lt, rt)
			}
			if lt.Kind == KFloat || rt.Kind == KFloat {
				return &Type{Kind: KFloat}
			}
			return &Type{Kind: KInt}
		}
	case *dsl.CondExpr:
		c.checkBool(x.Cond, e, "conditional")
		tt := c.checkExpr(x.Then, e)
		et := c.checkExpr(x.Else, e)
		if !comparable2(resolve(tt), resolve(et)) && resolve(tt).Kind != resolve(et).Kind {
			c.errorf(x.Pos, "conditional arms have incompatible types %s and %s", tt, et)
		}
		return tt
	case *dsl.ForallExpr:
		c.checkNumeric(x.Lo, e, "quantifier bound")
		c.checkNumeric(x.Hi, e, "quantifier bound")
		slot := c.slot()
		c.desc.Quants[x] = slot
		be := newEnv(e)
		be.bind(x.Var, &Type{Kind: KInt}, Binding{Kind: BindForall, Slot: slot})
		c.checkBool(x.Body, be, "quantifier body")
		return tBool
	}
	return tInvalid
}

// fieldType finds the type of a field of a struct/union value.
func (c *checker) fieldType(t *Type, field string) *Type {
	switch t.Kind {
	case KStruct:
		d, _ := c.desc.Types[t.Name].(*dsl.StructDecl)
		if d == nil {
			return nil
		}
		for _, it := range d.Items {
			if it.Field != nil && it.Field.Name == field {
				return c.refTypeShallow(it.Field.Type)
			}
		}
	case KUnion:
		d, _ := c.desc.Types[t.Name].(*dsl.UnionDecl)
		if d == nil {
			return nil
		}
		if d.Switch != nil {
			for i := range d.Switch.Cases {
				if d.Switch.Cases[i].Field.Name == field {
					return c.refTypeShallow(d.Switch.Cases[i].Field.Type)
				}
			}
		}
		for i := range d.Branches {
			if d.Branches[i].Name == field {
				return c.refTypeShallow(d.Branches[i].Type)
			}
		}
	case KDate:
		// Dates expose no fields; callers compare them numerically.
	}
	return nil
}

// resolve unwraps typedefs (and opts, to their inner type for expression
// purposes: reading an absent optional is a run-time matter).
func resolve(t *Type) *Type {
	for t != nil && (t.Kind == KTypedef || t.Kind == KOpt) {
		t = t.Elem
	}
	if t == nil {
		return tInvalid
	}
	return t
}

// comparable2 reports whether two resolved types can be compared.
func comparable2(a, b *Type) bool {
	a, b = resolve(a), resolve(b)
	if a.Kind == KInvalid || b.Kind == KInvalid {
		return true // already diagnosed
	}
	if a.Kind.Numeric() && b.Kind.Numeric() {
		return true
	}
	if a.Kind == KString && b.Kind == KString {
		return true
	}
	if a.Kind == KBool && b.Kind == KBool {
		return true
	}
	// Strings compare with chars (single-character fields).
	if a.Kind == KString && b.Kind == KChar || a.Kind == KChar && b.Kind == KString {
		return true
	}
	return false
}

// looselyAssignable is the C-flavored assignability used for arguments,
// locals, and returns.
func looselyAssignable(dst, src *Type) bool {
	d, s := resolve(dst), resolve(src)
	if d.Kind == KInvalid || s.Kind == KInvalid {
		return true
	}
	if d.Kind.Numeric() && s.Kind.Numeric() {
		return true
	}
	if d.Kind == s.Kind {
		// Named compound types must match by name.
		if d.Name != "" && s.Name != "" && d.Name != s.Name {
			return d.Kind != KStruct && d.Kind != KUnion && d.Kind != KArray && d.Kind != KEnum
		}
		return true
	}
	return false
}
