package interp

import (
	"math"

	"pads/internal/dsl"
	"pads/internal/expr"
	"pads/internal/ir"
	"pads/internal/sema"
	"pads/internal/value"
)

// Compiled expressions (docs/IR.md, "Compiled expressions"). New compiles
// every root of the program's expression pool once into Go closures over a
// frame stack of slots; the VM runs those, and nothing on the per-record
// path walks an expression tree, looks a name up in a map, or boxes a field
// into an expr.V. A term whose kind the lowering proved (ir.Expr.Kind) runs
// in a closure specialized to that kind — bool, int64, uint64, float64 or
// string; every other term runs over dyn, the evaluator's dynamic value
// without its copy cost. The semantics are expr.Evaluator's exactly: an
// evaluation error makes a predicate false, an absent Popt reads as void,
// selecting an untaken union branch is an error, unsigned values beyond
// int64 compare as the evaluator compares them, calls nest at most
// maxCallDepth deep and quantifiers range over at most maxQuantRange+1
// values. The differential tests (compile_test.go, FuzzVMAgainstInterp and
// the conformance corpora) hold the two to that.

const (
	maxCallDepth  = 100
	maxQuantRange = 1 << 24
)

// kUnset marks a parameter slot no argument was bound to (ParseType with
// fewer arguments than parameters): reading it falls back to the enum
// constant of the same name, as an unbound name does in the evaluator.
const kUnset = sema.Kind(-1)

// dyn is a value whose kind is known only at run time: expr.V in 64 bytes
// that go back in registers. A slot bound to a parsed value (sema.BindField)
// holds it, unconverted, in ref.
type dyn struct {
	k   sema.Kind
	i   int64       // KBool (0 or 1), KInt, KChar, KDate, KEnum (index)
	u   uint64      // KUint, KIP
	f   float64     // KFloat
	s   string      // KString; KEnum member name
	ref value.Value // KStruct, KUnion, KArray
}

// frames is an Interp's expression frame stack: one window of slots per
// active declaration (ir.FNeedEnv) or function call, the current one
// starting at base. It is sized at New and grows only past its high-water
// mark, so no record allocates a scope.
type frames struct {
	slots []dyn
	base  int
	top   int
	depth int // function call depth
}

// reserve makes the stack at least n slots long.
func (f *frames) reserve(n int) {
	if n > len(f.slots) {
		f.slots = append(f.slots, make([]dyn, n)...)
	}
}

// setRef binds window slot i to a parsed value.
func (f *frames) setRef(i int32, v value.Value) { f.slots[f.base+int(i)] = dyn{ref: v} }

// setInt binds window slot i to an integer (an array length).
func (f *frames) setInt(i int32, n int64) { f.slots[f.base+int(i)] = dyn{k: sema.KInt, i: n} }

// Closure forms. The second result is false when evaluation fails.
type (
	dynFn   func(*frames) (dyn, bool)
	boolFn  func(*frames) (bool, bool)
	intFn   func(*frames) (int64, bool)
	uintFn  func(*frames) (uint64, bool)
	floatFn func(*frames) (float64, bool)
	strFn   func(*frames) (string, bool)
	rawFn   func(*frames) (value.Value, bool)
	stmtFn  func(*frames) (ret dyn, returned, ok bool)
)

// code is a program's compiled expressions, shared by an Interp and its
// clones: for each root ExprID its predicate form (an error or a non-bool
// is false, as in expr.EvalPred), its value form, and its integer form
// (the evaluator's toInt).
type code struct {
	preds []func(*frames) bool
	vals  []dynFn
	ints  []intFn
	slots int // initial frame stack size
}

// cfunc is a compiled predicate function.
type cfunc struct {
	params, frame int
	body          stmtFn
}

type compiler struct {
	p     *ir.Program
	funcs []*cfunc
}

// compileProgram compiles every root of p's expression pool.
func compileProgram(p *ir.Program) *code {
	c := &compiler{p: p, funcs: make([]*cfunc, len(p.Funcs))}
	cd := &code{
		preds: make([]func(*frames) bool, len(p.Exprs)),
		vals:  make([]dynFn, len(p.Exprs)),
		ints:  make([]intFn, len(p.Exprs)),
	}
	for i := range p.Funcs {
		c.funcs[i] = &cfunc{params: p.Funcs[i].Params, frame: p.Funcs[i].Frame}
		cd.slots += p.Funcs[i].Frame
	}
	for i := range p.Funcs {
		c.funcs[i].body = c.block(p.Funcs[i].Body)
	}
	for _, d := range p.Decls {
		cd.slots += int(d.Frame)
	}
	for id := range p.Exprs {
		if p.Exprs[id].Root {
			b := c.boolv(ir.ExprID(id))
			cd.preds[id] = func(f *frames) bool {
				v, ok := b(f)
				return v && ok
			}
			cd.vals[id] = c.dyn(ir.ExprID(id))
			cd.ints[id] = c.intv(ir.ExprID(id))
		}
	}
	return cd
}

func intFamily(k sema.Kind) bool {
	return k == sema.KInt || k == sema.KChar || k == sema.KDate || k == sema.KEnum
}

func uintFamily(k sema.Kind) bool { return k == sema.KUint || k == sema.KIP }

// isRaw reports whether a term yields a parsed value (rawFn form).
func (c *compiler) isRaw(id ir.ExprID) bool {
	e := &c.p.Exprs[id]
	return e.Op == ir.XField || e.Op == ir.XIndex || (e.Op == ir.XSlot && e.Bind == sema.BindField)
}

func fail[T any](*frames) (T, bool) {
	var zero T
	return zero, false
}

func constant[T any](v T, ok bool) func(*frames) (T, bool) {
	return func(*frames) (T, bool) { return v, ok }
}

// apply compiles op over one operand; op runs only when it evaluated.
func apply[A, R any](x func(*frames) (A, bool), op func(A) (R, bool)) func(*frames) (R, bool) {
	return func(f *frames) (R, bool) {
		a, ok := x(f)
		if !ok {
			var zero R
			return zero, false
		}
		return op(a)
	}
}

// both compiles op over two operands, evaluated left to right; op runs
// only when both evaluated.
func both[A, B, R any](l func(*frames) (A, bool), r func(*frames) (B, bool), op func(A, B) (R, bool)) func(*frames) (R, bool) {
	return func(f *frames) (R, bool) {
		a, ok := l(f)
		if !ok {
			var zero R
			return zero, false
		}
		b, ok := r(f)
		if !ok {
			var zero R
			return zero, false
		}
		return op(a, b)
	}
}

// choose compiles a conditional.
func choose[T any](cond boolFn, then, els func(*frames) (T, bool)) func(*frames) (T, bool) {
	return func(f *frames) (T, bool) {
		b, ok := cond(f)
		if !ok {
			var zero T
			return zero, false
		}
		if b {
			return then(f)
		}
		return els(f)
	}
}

// dyn compiles the dynamic form of any term.
func (c *compiler) dyn(id ir.ExprID) dynFn {
	e := &c.p.Exprs[id]
	switch e.Op {
	case ir.XConst:
		return constant(fromV(e.Val), true)
	case ir.XSlot:
		if e.Bind == sema.BindField {
			break // a parsed value: below
		}
		slot := int(e.Slot)
		unbound, enum := c.enumConst(e.Name)
		return func(f *frames) (dyn, bool) {
			d := f.slots[f.base+slot]
			if d.k == kUnset {
				return unbound, enum
			}
			return d, true
		}
	case ir.XCall:
		return c.call(e)
	case ir.XNot, ir.XForall:
		return apply(c.boolv(id), boolDyn)
	case ir.XBinary:
		switch e.BinOp {
		case dsl.ANDAND, dsl.OROR, dsl.EQ, dsl.NE, dsl.LT, dsl.LE, dsl.GT, dsl.GE:
			return apply(c.boolv(id), boolDyn)
		}
		switch e.Kind {
		case sema.KInt:
			return apply(c.intv(id), intDyn)
		case sema.KFloat:
			return apply(c.floatv(id), floatDyn)
		}
		op := e.BinOp
		return both(c.dyn(e.X), c.dyn(e.Y), func(a, b dyn) (dyn, bool) { return arith(op, a, b) })
	case ir.XNeg:
		switch e.Kind {
		case sema.KInt:
			return apply(c.intv(id), intDyn)
		case sema.KFloat:
			return apply(c.floatv(id), floatDyn)
		}
		return apply(c.dyn(e.X), func(v dyn) (dyn, bool) {
			if v.k == sema.KFloat {
				return dyn{k: sema.KFloat, f: -v.f}, true
			}
			n, ok := toInt(v)
			return dyn{k: sema.KInt, i: -n}, ok
		})
	case ir.XCond:
		return choose(c.boolv(e.X), c.dyn(e.Y), c.dyn(e.Z))
	}
	if c.isRaw(id) {
		return apply(c.raw(id), func(v value.Value) (dyn, bool) { return fromValue(v), true })
	}
	return fail[dyn]
}

// enumConst is what an unbound name reads as: its enum constant, if any.
func (c *compiler) enumConst(name string) (dyn, bool) {
	desc := c.p.Desc
	if _, ok := desc.EnumOf[name]; ok {
		return dyn{k: sema.KEnum, i: int64(desc.EnumIndex[name]), s: name}, true
	}
	return dyn{}, false
}

func boolDyn(b bool) (dyn, bool) {
	d := dyn{k: sema.KBool}
	if b {
		d.i = 1
	}
	return d, true
}

func intDyn(n int64) (dyn, bool) { return dyn{k: sema.KInt, i: n}, true }

func floatDyn(x float64) (dyn, bool) { return dyn{k: sema.KFloat, f: x}, true }

// raw compiles a term that yields a parsed value: a field, branch or
// constraint-variable slot, a field select, or an index.
func (c *compiler) raw(id ir.ExprID) rawFn {
	e := &c.p.Exprs[id]
	switch e.Op {
	case ir.XSlot:
		slot := int(e.Slot)
		return func(f *frames) (value.Value, bool) { return f.slots[f.base+slot].ref, true }
	case ir.XIndex:
		recv, idx := c.compound(e.X), c.intv(e.Y)
		return func(f *frames) (value.Value, bool) {
			r, ok := recv(f)
			if !ok {
				return nil, false
			}
			i, ok := idx(f)
			if !ok {
				return nil, false
			}
			arr, ok := deref(r).(*value.Array)
			if !ok || i < 0 || i >= int64(len(arr.Elems)) {
				return nil, false
			}
			return arr.Elems[i], true
		}
	case ir.XField:
		// The lowered index is right for a value of the receiver's static
		// type, which an exact receiver's value always is; anything else
		// is looked up by name.
		recv, name, j, exact := c.compound(e.X), e.Name, int(e.Index), c.p.Exprs[e.X].Exact
		return func(f *frames) (value.Value, bool) {
			r, ok := recv(f)
			if !ok {
				return nil, false
			}
			switch r := deref(r).(type) {
			case *value.Struct:
				if j >= 0 && j < len(r.Fields) && (exact || j < len(r.Names) && r.Names[j] == name) {
					return r.Fields[j], true
				}
				if v := r.Field(name); v != nil {
					return v, true
				}
			case *value.Union:
				if r.Tag == name {
					return r.Val, true
				}
			}
			return nil, false
		}
	}
	return fail[value.Value]
}

// compound compiles a select's or index's receiver: a parsed value, which
// the select or index reads through deref, or the compound a dynamic value
// refers to.
func (c *compiler) compound(id ir.ExprID) rawFn {
	if c.isRaw(id) {
		return c.raw(id)
	}
	return apply(c.dyn(id), func(v dyn) (value.Value, bool) { return v.ref, true })
}

// deref is the compound a parsed value reads as: options unwrapped, an
// absent one nil.
func deref(v value.Value) value.Value {
	for {
		o, isOpt := v.(*value.Opt)
		if !isOpt {
			return v
		}
		if !o.Present {
			return nil
		}
		v = o.Val
	}
}

// boolv compiles a term as a boolean: evaluation errors and non-boolean
// values fail, as predicates, logical operands and conditions do. The
// value of a failed evaluation is unspecified.
func (c *compiler) boolv(id ir.ExprID) boolFn {
	e := &c.p.Exprs[id]
	switch e.Op {
	case ir.XConst:
		return constant(e.Val.B, e.Val.K == sema.KBool)
	case ir.XNot:
		return apply(c.boolv(e.X), func(b bool) (bool, bool) { return !b, true })
	case ir.XBinary:
		switch op := e.BinOp; op {
		case dsl.ANDAND, dsl.OROR:
			l, r, and := c.boolv(e.X), c.boolv(e.Y), op == dsl.ANDAND
			return func(f *frames) (bool, bool) {
				a, ok := l(f)
				if !ok {
					return false, false
				}
				if a != and {
					return a, true // false && …, true || …
				}
				return r(f)
			}
		case dsl.EQ, dsl.NE, dsl.LT, dsl.LE, dsl.GT, dsl.GE:
			return apply(c.compare(e), func(n int64) (bool, bool) {
				switch op {
				case dsl.EQ:
					return n == 0, true
				case dsl.NE:
					return n != 0, true
				case dsl.LT:
					return n < 0, true
				case dsl.LE:
					return n <= 0, true
				case dsl.GT:
					return n > 0, true
				}
				return n >= 0, true
			})
		}
	case ir.XCond:
		return choose(c.boolv(e.X), c.boolv(e.Y), c.boolv(e.Z))
	case ir.XForall:
		return c.forall(e)
	}
	return apply(c.dyn(id), func(v dyn) (bool, bool) { return v.i != 0, v.k == sema.KBool })
}

// forall compiles Pforall/Pexists. The variable's slot is indexed afresh
// each step: a call in the body may have moved the stack.
func (c *compiler) forall(e *ir.Expr) boolFn {
	if e.Slot == ir.None {
		return fail[bool]
	}
	lo, hi, body := c.intv(e.X), c.intv(e.Y), c.boolv(e.Z)
	slot, exists := int(e.Slot), e.Exists
	return func(f *frames) (bool, bool) {
		l, ok := lo(f)
		if !ok {
			return false, false
		}
		h, ok := hi(f)
		if !ok || h-l > maxQuantRange {
			return false, false
		}
		f.slots[f.base+slot] = dyn{k: sema.KInt, i: l}
		for i := l; i <= h; i++ {
			f.slots[f.base+slot].i = i
			b, ok := body(f)
			if !ok {
				return false, false
			}
			if b == exists {
				return exists, true
			}
		}
		return !exists, true
	}
}

// compare compiles a comparison into a three-way result, specialized when
// both operand kinds are known.
func (c *compiler) compare(e *ir.Expr) intFn {
	lk, rk := c.p.Exprs[e.X].Kind, c.p.Exprs[e.Y].Kind
	switch {
	case intFamily(lk) && intFamily(rk):
		return both(c.intv(e.X), c.intv(e.Y), cmp3[int64])
	case uintFamily(lk) && uintFamily(rk):
		// Values beyond int64 order above all others, so unsigned
		// operands compare as plain uint64s.
		return both(c.uintv(e.X), c.uintv(e.Y), cmp3[uint64])
	case uintFamily(lk) && intFamily(rk):
		return both(c.uintv(e.X), c.intv(e.Y), cmpUI)
	case intFamily(lk) && uintFamily(rk):
		return both(c.intv(e.X), c.uintv(e.Y), func(a int64, b uint64) (int64, bool) {
			n, _ := cmpUI(b, a)
			return -n, true
		})
	case lk.Numeric() && rk.Numeric():
		return both(c.floatv(e.X), c.floatv(e.Y), cmp3[float64])
	case lk == sema.KString && rk == sema.KString:
		return both(c.strv(e.X), c.strv(e.Y), cmp3[string])
	}
	return both(c.dyn(e.X), c.dyn(e.Y), compare)
}

func cmp3[T int64 | uint64 | float64 | string](a, b T) (int64, bool) {
	switch {
	case a < b:
		return -1, true
	case a > b:
		return 1, true
	}
	return 0, true
}

// cmpUI compares an unsigned value with a signed one.
func cmpUI(a uint64, b int64) (int64, bool) {
	if a > math.MaxInt64 {
		return 1, true
	}
	return cmp3(int64(a), b)
}

// intv compiles a term converted to an integer as the evaluator's toInt
// converts it: unsigned values beyond int64, void and non-numeric values
// fail, floats truncate.
func (c *compiler) intv(id ir.ExprID) intFn {
	e := &c.p.Exprs[id]
	switch e.Op {
	case ir.XConst:
		return constant(toInt(fromV(e.Val)))
	case ir.XSlot:
		if e.Bind == sema.BindForall || e.Bind == sema.BindLength {
			slot := int(e.Slot)
			return func(f *frames) (int64, bool) { return f.slots[f.base+slot].i, true }
		}
	case ir.XBinary:
		switch op := e.BinOp; e.Kind {
		case sema.KInt:
			return both(c.intv(e.X), c.intv(e.Y), func(a, b int64) (int64, bool) { return intArith(op, a, b) })
		case sema.KFloat:
			return apply(c.floatv(id), func(v float64) (int64, bool) { return int64(v), true })
		}
	case ir.XNeg:
		if e.Kind == sema.KInt {
			return apply(c.intv(e.X), func(v int64) (int64, bool) { return -v, true })
		}
	case ir.XCond:
		return choose(c.boolv(e.X), c.intv(e.Y), c.intv(e.Z))
	}
	if c.isRaw(id) && e.Kind != sema.KInvalid {
		raw := c.raw(id)
		return func(f *frames) (int64, bool) {
			v, ok := raw(f)
			if !ok {
				return 0, false
			}
			switch v := v.(type) {
			case *value.Int:
				return v.Val, true
			case *value.Uint:
				return int64(v.Val), v.Val <= math.MaxInt64
			case *value.Char:
				return int64(v.Val), true
			case *value.Date:
				return v.Sec, true
			case *value.Float:
				return int64(v.Val), true
			}
			return toInt(fromValue(v))
		}
	}
	return apply(c.dyn(id), toInt)
}

// uintv compiles a term of kind KUint or KIP.
func (c *compiler) uintv(id ir.ExprID) uintFn {
	e := &c.p.Exprs[id]
	if e.Op == ir.XConst {
		return constant(e.Val.U, true)
	}
	if c.isRaw(id) {
		raw := c.raw(id)
		return func(f *frames) (uint64, bool) {
			v, ok := raw(f)
			if !ok {
				return 0, false
			}
			switch v := v.(type) {
			case *value.Uint:
				return v.Val, true
			case *value.IP:
				return uint64(v.Val), true
			}
			return fromValue(v).u, true
		}
	}
	return apply(c.dyn(id), func(v dyn) (uint64, bool) { return v.u, true })
}

// floatv compiles a numeric term converted to float64 as the evaluator's
// asFloat converts it.
func (c *compiler) floatv(id ir.ExprID) floatFn {
	e := &c.p.Exprs[id]
	switch e.Op {
	case ir.XConst:
		return constant(asFloat(fromV(e.Val)), true)
	case ir.XBinary:
		if op := e.BinOp; e.Kind == sema.KFloat {
			return both(c.floatv(e.X), c.floatv(e.Y), func(a, b float64) (float64, bool) { return floatArith(op, a, b) })
		}
	case ir.XNeg:
		if e.Kind == sema.KFloat {
			return apply(c.floatv(e.X), func(v float64) (float64, bool) { return -v, true })
		}
	}
	if c.isRaw(id) {
		return apply(c.raw(id), func(v value.Value) (float64, bool) {
			if x, isFloat := v.(*value.Float); isFloat {
				return x.Val, true
			}
			return asFloat(fromValue(v)), true
		})
	}
	return apply(c.dyn(id), func(v dyn) (float64, bool) { return asFloat(v), true })
}

// strv compiles a term of kind KString.
func (c *compiler) strv(id ir.ExprID) strFn {
	e := &c.p.Exprs[id]
	if e.Op == ir.XConst {
		return constant(e.Val.S, true)
	}
	if c.isRaw(id) {
		return apply(c.raw(id), func(v value.Value) (string, bool) {
			if x, isStr := v.(*value.Str); isStr {
				return x.Val, true
			}
			return fromValue(v).s, true
		})
	}
	return apply(c.dyn(id), func(v dyn) (string, bool) { return v.s, true })
}

// call compiles a function call: the depth limit, the arguments evaluated
// into a new window above the caller's, and the body run in it.
func (c *compiler) call(e *ir.Expr) dynFn {
	if e.Func == ir.None || len(e.Args) != c.funcs[e.Func].params {
		return fail[dyn]
	}
	fn := c.funcs[e.Func]
	args := make([]dynFn, len(e.Args))
	for i, a := range e.Args {
		args[i] = c.dyn(a)
	}
	return func(f *frames) (dyn, bool) {
		if f.depth >= maxCallDepth {
			return dyn{}, false
		}
		saved := f.top
		f.reserve(saved + fn.frame)
		f.top = saved + fn.frame
		for i, a := range args {
			v, ok := a(f)
			if !ok {
				f.top = saved
				return dyn{}, false
			}
			f.slots[saved+i] = v
		}
		caller := f.base
		f.base = saved
		f.depth++
		ret, returned, ok := fn.body(f)
		f.depth--
		f.base, f.top = caller, saved
		return ret, ok && returned
	}
}

// block compiles a statement list; it stops at the first return or error.
func (c *compiler) block(list []ir.Stmt) stmtFn {
	steps := make([]stmtFn, len(list))
	for i := range list {
		steps[i] = c.stmt(&list[i])
	}
	return func(f *frames) (dyn, bool, bool) {
		for _, st := range steps {
			if v, returned, ok := st(f); returned || !ok {
				return v, returned, ok
			}
		}
		return dyn{}, false, true
	}
}

func (c *compiler) stmt(s *ir.Stmt) stmtFn {
	switch s.Op {
	case ir.SVar, ir.SAssign:
		x, slot := c.dyn(s.X), int(s.Slot)
		if s.Slot == ir.None {
			return func(*frames) (dyn, bool, bool) { return dyn{}, false, false }
		}
		return func(f *frames) (dyn, bool, bool) {
			v, ok := x(f)
			if ok {
				f.slots[f.base+slot] = v
			}
			return dyn{}, false, ok
		}
	case ir.SIf:
		cond, then, els := c.boolv(s.X), c.block(s.Then), c.block(s.Else)
		return func(f *frames) (dyn, bool, bool) {
			b, ok := cond(f)
			if !ok {
				return dyn{}, false, false
			}
			if b {
				return then(f)
			}
			return els(f)
		}
	case ir.SReturn:
		x := c.dyn(s.X)
		return func(f *frames) (dyn, bool, bool) {
			v, ok := x(f)
			return v, true, ok
		}
	}
	x := c.dyn(s.X)
	return func(f *frames) (dyn, bool, bool) {
		_, ok := x(f)
		return dyn{}, false, ok
	}
}

// ---- the evaluator's value semantics over dyn (internal/expr) ----

// fromValue is expr.FromValue: a parsed value as an expression value.
func fromValue(v value.Value) dyn {
	switch v := v.(type) {
	case *value.Uint:
		return dyn{k: sema.KUint, u: v.Val}
	case *value.Int:
		return dyn{k: sema.KInt, i: v.Val}
	case *value.Float:
		return dyn{k: sema.KFloat, f: v.Val}
	case *value.Char:
		return dyn{k: sema.KChar, i: int64(v.Val)}
	case *value.Str:
		return dyn{k: sema.KString, s: v.Val}
	case *value.Date:
		return dyn{k: sema.KDate, i: v.Sec}
	case *value.IP:
		return dyn{k: sema.KIP, u: uint64(v.Val)}
	case *value.Enum:
		return dyn{k: sema.KEnum, i: int64(v.Index), s: v.Member}
	case *value.Opt:
		if v.Present {
			return fromValue(v.Val)
		}
		return dyn{k: sema.KVoid}
	case *value.Union:
		return dyn{k: sema.KUnion, ref: v}
	case *value.Struct:
		return dyn{k: sema.KStruct, ref: v}
	case *value.Array:
		return dyn{k: sema.KArray, ref: v}
	case *value.Void:
		return dyn{k: sema.KVoid}
	}
	return dyn{k: sema.KInvalid}
}

// fromV converts an evaluator value (a folded constant, a ParseType
// argument).
func fromV(v expr.V) dyn {
	d := dyn{k: v.K, i: v.I, u: v.U, f: v.F, s: v.S, ref: v.Ref}
	if v.K == sema.KBool {
		d.i = 0
		if v.B {
			d.i = 1
		}
	}
	return d
}

func toInt(v dyn) (int64, bool) {
	switch v.k {
	case sema.KInt, sema.KChar, sema.KDate, sema.KEnum:
		return v.i, true
	case sema.KUint, sema.KIP:
		if v.u > math.MaxInt64 {
			return 0, false
		}
		return int64(v.u), true
	case sema.KFloat:
		return int64(v.f), true
	}
	return 0, false
}

func asFloat(v dyn) float64 {
	switch v.k {
	case sema.KFloat:
		return v.f
	case sema.KUint, sema.KIP:
		return float64(v.u)
	}
	return float64(v.i)
}

func asString(v dyn) (string, bool) {
	switch v.k {
	case sema.KString:
		return v.s, true
	case sema.KChar:
		return string(byte(v.i)), true
	}
	return "", false
}

// compare is the evaluator's three-way comparison.
func compare(l, r dyn) (int64, bool) {
	if l.k == sema.KString || r.k == sema.KString {
		ls, lok := asString(l)
		rs, rok := asString(r)
		switch {
		case lok && rok:
			return cmp3(ls, rs)
		case l.k == sema.KEnum && rok:
			return cmp3(l.s, rs)
		case r.k == sema.KEnum && lok:
			return cmp3(ls, r.s)
		}
		return 0, false
	}
	if l.k == sema.KBool && r.k == sema.KBool {
		return cmp3(l.i, r.i)
	}
	if !l.k.Numeric() || !r.k.Numeric() {
		return 0, false
	}
	if l.k == sema.KFloat || r.k == sema.KFloat {
		return cmp3(asFloat(l), asFloat(r))
	}
	lBig := l.k == sema.KUint && l.u > math.MaxInt64
	rBig := r.k == sema.KUint && r.u > math.MaxInt64
	switch {
	case lBig && rBig:
		return cmp3(l.u, r.u)
	case lBig:
		return 1, true
	case rBig:
		return -1, true
	}
	li, _ := toInt(l)
	ri, _ := toInt(r)
	return cmp3(li, ri)
}

// equal is expr.EqualV: switched-union case dispatch.
func equal(a, b dyn) bool {
	n, ok := compare(a, b)
	return ok && n == 0
}

// arith is the evaluator's arithmetic on dynamic operands.
func arith(op dsl.Kind, l, r dyn) (dyn, bool) {
	if !l.k.Numeric() || !r.k.Numeric() {
		return dyn{}, false
	}
	if l.k == sema.KFloat || r.k == sema.KFloat {
		v, ok := floatArith(op, asFloat(l), asFloat(r))
		return dyn{k: sema.KFloat, f: v}, ok
	}
	li, ok := toInt(l)
	if !ok {
		return dyn{}, false
	}
	ri, ok := toInt(r)
	if !ok {
		return dyn{}, false
	}
	v, ok := intArith(op, li, ri)
	return dyn{k: sema.KInt, i: v}, ok
}

func intArith(op dsl.Kind, a, b int64) (int64, bool) {
	switch op {
	case dsl.PLUS:
		return a + b, true
	case dsl.MINUS:
		return a - b, true
	case dsl.STAR:
		return a * b, true
	case dsl.SLASH:
		if b == 0 {
			return 0, false
		}
		return a / b, true
	case dsl.PERCENT:
		if b == 0 {
			return 0, false
		}
		return a % b, true
	}
	return 0, false
}

func floatArith(op dsl.Kind, a, b float64) (float64, bool) {
	switch op {
	case dsl.PLUS:
		return a + b, true
	case dsl.MINUS:
		return a - b, true
	case dsl.STAR:
		return a * b, true
	case dsl.SLASH:
		if b == 0 {
			return 0, false
		}
		return a / b, true
	}
	return 0, false // % on floats
}
