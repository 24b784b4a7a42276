package ir

import (
	"pads/internal/dsl"
	"pads/internal/expr"
	"pads/internal/sema"
)

// Compiled expressions (docs/IR.md, "Compiled expressions"). Every
// expression a description evaluates at parse time — constraints, Pwhere
// clauses, switch selectors and cases, array predicates and sizes,
// arguments — is lowered once into Program.Exprs, a flat pool of typed
// terms. Identifiers are resolved to frame slots (sema.Binding), field
// selects carry the field's index in the receiver's static struct (or the
// branch's index in its union), calls carry a function ID, and enumeration
// constants and constant sub-terms are folded. The VM compiles the pool
// into Go closures (internal/interp, compile.go); every entry keeps its
// dsl.Expr source, from which the generated parsers are written.

// ExprOp is the operation of one pooled term.
type ExprOp uint8

// Term operations. Operands are pool indexes; see Expr.
const (
	XConst  ExprOp = iota // a folded constant: Val
	XSlot                 // the frame slot Slot, bound as Bind (Name is the identifier)
	XUndef                // an identifier with no binding and no enum constant: always an error
	XCall                 // a call of function Func with Args; Func None: an unknown function
	XField                // X.Name: Index is the field's index in X's static struct, or the branch's in its union
	XIndex                // X[Y]
	XNot                  // !X
	XNeg                  // -X
	XBinary               // X BinOp Y
	XCond                 // X ? Y : Z
	XForall               // Pforall (Exists: Pexists) over Slot in [X..Y] of Z
)

// Expr is one pooled term.
type Expr struct {
	Op  ExprOp
	Src dsl.Expr
	// Type is the static type sema gave the term (nil when it recorded
	// none). Kind is the kind every successful evaluation yields, or
	// KInvalid when it may vary: the evaluator's values carry their kind
	// at run time, and a parameter, local, call or absent option can hold
	// a kind other than its declared type's.
	Type *sema.Type
	Kind sema.Kind
	// Exact marks a parsed value of exactly Type: a field, branch,
	// constraint variable, elts or elt, or an element or field of one.
	Exact bool
	// Root marks a term the program references (a constraint, predicate,
	// size, selector, case value or argument) rather than only a sub-term.
	Root bool

	X, Y, Z ExprID
	Args    []ExprID
	BinOp   dsl.Kind
	Bind    sema.BindKind
	Slot    int32
	Func    int32
	Name    string
	Index   int32
	Exists  bool
	Val     expr.V
}

// Func is a lowered predicate function. Its frame holds Params parameters
// and then its locals and quantifier variables, Frame slots in all.
type Func struct {
	Name   string
	Params int
	Frame  int
	Body   []Stmt
}

// StmtOp is a function-body statement's operation.
type StmtOp uint8

// Statement operations.
const (
	SVar    StmtOp = iota // Slot = X (a declaration)
	SAssign               // Slot = X; Slot None: an undeclared variable, an error
	SIf                   // if X then Then else Else
	SReturn               // return X
	SExpr                 // evaluate X
)

// Stmt is one lowered statement.
type Stmt struct {
	Op         StmtOp
	Slot       int32
	X          ExprID
	Then, Else []Stmt
}

// exprLowerer lowers expressions against the checked description's
// resolution tables; ev folds constant terms with the reference evaluator,
// so a folded value is exactly what evaluation would produce.
type exprLowerer struct {
	p      *Program
	ev     *expr.Evaluator
	funcID map[string]int32
}

// addExpr lowers a root expression into the pool.
func (l *lowerer) addExpr(e dsl.Expr) ExprID {
	if e == nil {
		return None
	}
	id := l.x.lower(e)
	l.p.Exprs[id].Root = true
	return id
}

// constArg folds a literal expression; falls back to a pooled expression.
func (l *lowerer) constArg(e dsl.Expr) Arg {
	switch e := e.(type) {
	case *dsl.IntExpr:
		return Arg{IsConst: true, Const: e.Val}
	case *dsl.CharExpr:
		return Arg{IsConst: true, Const: int64(e.Val)}
	}
	return Arg{Expr: l.addExpr(e)}
}

// lowerFuncs pools every predicate function, IDs first so calls resolve
// in any order (functions may recurse).
func (x *exprLowerer) lowerFuncs() {
	p := x.p
	for _, d := range p.Desc.Program.Decls {
		if fd, ok := d.(*dsl.FuncDecl); ok && p.Desc.Funcs[fd.Name] == fd {
			x.funcID[fd.Name] = int32(len(p.Funcs))
			p.Funcs = append(p.Funcs, Func{Name: fd.Name, Params: len(fd.Params), Frame: p.Desc.Frames[fd]})
		}
	}
	for _, d := range p.Desc.Program.Decls {
		if fd, ok := d.(*dsl.FuncDecl); ok && p.Desc.Funcs[fd.Name] == fd {
			body := x.stmts(fd.Body)
			p.Funcs[x.funcID[fd.Name]].Body = body
		}
	}
}

func (x *exprLowerer) stmts(list []dsl.Stmt) []Stmt {
	out := make([]Stmt, 0, len(list))
	for _, s := range list {
		switch s := s.(type) {
		case *dsl.VarStmt:
			out = append(out, Stmt{Op: SVar, Slot: x.local(s), X: x.lower(s.Init)})
		case *dsl.AssignStmt:
			out = append(out, Stmt{Op: SAssign, Slot: x.local(s), X: x.lower(s.Val)})
		case *dsl.IfStmt:
			out = append(out, Stmt{Op: SIf, Slot: None, X: x.lower(s.Cond), Then: x.stmts(s.Then), Else: x.stmts(s.Else)})
		case *dsl.ReturnStmt:
			out = append(out, Stmt{Op: SReturn, Slot: None, X: x.lower(s.Val)})
		case *dsl.ExprStmt:
			out = append(out, Stmt{Op: SExpr, Slot: None, X: x.lower(s.X)})
		}
	}
	return out
}

func (x *exprLowerer) local(s dsl.Stmt) int32 {
	if slot, ok := x.p.Desc.Locals[s]; ok {
		return int32(slot)
	}
	return None
}

// lower pools e and its sub-terms, children first, and returns its ID.
func (x *exprLowerer) lower(e dsl.Expr) ExprID {
	desc := x.p.Desc
	t := Expr{Src: e, Type: desc.ExprTypes[e], X: None, Y: None, Z: None, Slot: None, Func: None, Index: None}
	foldable := true
	switch e := e.(type) {
	case *dsl.IntExpr, *dsl.FloatExpr, *dsl.CharExpr, *dsl.StrExpr, *dsl.BoolExpr,
		*dsl.RegexpExpr, *dsl.EORExpr, *dsl.EOFExpr:
	case *dsl.IdentExpr:
		t.Name = e.Name
		b, ok := desc.Idents[e]
		if !ok || b.Kind == sema.BindEnum {
			t.Op = XUndef // unless the enum constant folds below
			break
		}
		foldable = false
		t.Op, t.Bind, t.Slot = XSlot, b.Kind, int32(b.Slot)
		switch b.Kind {
		case sema.BindForall, sema.BindLength:
			t.Kind = sema.KInt
		case sema.BindField:
			t.Exact = true
			t.Kind = leafKind(t.Type)
		}
	case *dsl.CallExpr:
		foldable = false
		t.Op, t.Name = XCall, e.Func
		if id, ok := x.funcID[e.Func]; ok {
			t.Func = id
		}
		for _, a := range e.Args {
			t.Args = append(t.Args, x.lower(a))
		}
	case *dsl.DotExpr:
		foldable = false
		t.Op, t.Name, t.X = XField, e.Field, x.lower(e.X)
		recv := &x.p.Exprs[t.X]
		t.Index = x.fieldIndex(recv.Type, e.Field)
		if recv.Exact {
			t.Exact = true
			t.Kind = leafKind(t.Type)
		}
	case *dsl.IndexExpr:
		foldable = false
		t.Op, t.X, t.Y = XIndex, x.lower(e.X), x.lower(e.Index)
		if x.p.Exprs[t.X].Exact {
			t.Exact = true
			t.Kind = leafKind(t.Type)
		}
	case *dsl.UnaryExpr:
		t.X = x.lower(e.X)
		if e.Op == dsl.NOT {
			t.Op, t.Kind = XNot, sema.KBool
			break
		}
		t.Op = XNeg
		switch k := x.p.Exprs[t.X].Kind; {
		case k == sema.KFloat:
			t.Kind = sema.KFloat
		case k.Numeric():
			t.Kind = sema.KInt
		}
	case *dsl.BinaryExpr:
		t.Op, t.BinOp, t.X, t.Y = XBinary, e.Op, x.lower(e.L), x.lower(e.R)
		lk, rk := x.p.Exprs[t.X].Kind, x.p.Exprs[t.Y].Kind
		switch e.Op {
		case dsl.ANDAND, dsl.OROR, dsl.EQ, dsl.NE, dsl.LT, dsl.LE, dsl.GT, dsl.GE:
			t.Kind = sema.KBool
		default:
			if lk.Numeric() && rk.Numeric() {
				t.Kind = sema.KInt
				if lk == sema.KFloat || rk == sema.KFloat {
					t.Kind = sema.KFloat
				}
			}
		}
	case *dsl.CondExpr:
		t.Op, t.X, t.Y, t.Z = XCond, x.lower(e.Cond), x.lower(e.Then), x.lower(e.Else)
		if k := x.p.Exprs[t.Y].Kind; k == x.p.Exprs[t.Z].Kind {
			t.Kind = k
		}
	case *dsl.ForallExpr:
		foldable = false
		t.Op, t.Kind, t.Exists = XForall, sema.KBool, e.Exists
		t.X, t.Y, t.Z = x.lower(e.Lo), x.lower(e.Hi), x.lower(e.Body)
		if slot, ok := desc.Quants[e]; ok {
			t.Slot = int32(slot)
		}
	default:
		t.Op, foldable = XUndef, false
	}
	// Fold a term whose operands are all constants, with the reference
	// evaluator itself: its value or error is the same in every scope.
	for _, k := range []ExprID{t.X, t.Y, t.Z} {
		if k != None && x.p.Exprs[k].Op != XConst {
			foldable = false
		}
	}
	if foldable {
		if v, err := x.ev.Eval(e, expr.NewEnv(nil)); err == nil {
			t = Expr{Op: XConst, Src: e, Type: t.Type, Kind: v.K, Val: v,
				X: None, Y: None, Z: None, Slot: None, Func: None, Index: None}
		}
	}
	x.p.Exprs = append(x.p.Exprs, t)
	return ExprID(len(x.p.Exprs) - 1)
}

// fieldIndex finds field in the static type of a select's receiver: the
// index among a struct's fields (literal items excluded), or the index of a
// union branch or switch case. It is None when the type is not known.
func (x *exprLowerer) fieldIndex(t *sema.Type, field string) int32 {
	for t != nil && (t.Kind == sema.KTypedef || t.Kind == sema.KOpt) {
		t = t.Elem
	}
	if t == nil {
		return None
	}
	switch d := x.p.Desc.Types[t.Name].(type) {
	case *dsl.StructDecl:
		if t.Kind != sema.KStruct {
			break
		}
		i := int32(0)
		for _, it := range d.Items {
			if it.Field == nil {
				continue
			}
			if it.Field.Name == field {
				return i
			}
			i++
		}
	case *dsl.UnionDecl:
		if t.Kind != sema.KUnion {
			break
		}
		if d.Switch != nil {
			for i := range d.Switch.Cases {
				if d.Switch.Cases[i].Field.Name == field {
					return int32(i)
				}
			}
		}
		for i := range d.Branches {
			if d.Branches[i].Name == field {
				return int32(i)
			}
		}
	}
	return None
}

// leafKind is the kind of a parsed value of static type t when every such
// value has it: a base type read always yields its own leaf. Declared
// types do not qualify (a failed call yields a void value), nor do options
// (an absent one reads as void).
func leafKind(t *sema.Type) sema.Kind {
	if t == nil || t.Kind == sema.KOpt || t.Kind == sema.KTypedef || sema.LookupBase(t.Name) == nil {
		return sema.KInvalid
	}
	return t.Kind
}
