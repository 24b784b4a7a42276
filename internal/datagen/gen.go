package datagen

import (
	"fmt"

	"pads/internal/dsl"
	"pads/internal/expr"
	"pads/internal/interp"
	"pads/internal/padsrt"
	"pads/internal/sema"
	"pads/internal/value"
)

// Generator produces random values conforming to a checked description —
// the section 9 "generate random data that conforms to a given
// specification" tool. Values are built as generic value trees and
// serialized through the interpreter's writer, so generation and parsing
// share one definition of the format.
type Generator struct {
	Desc *sema.Desc
	R    *Rand
	in   *interp.Interp
	// MaxArrayLen bounds generated unsized arrays (default 8).
	MaxArrayLen int
	// ConstraintRetries bounds rejection sampling against field and
	// typedef constraints (default 64 attempts).
	ConstraintRetries int
}

// NewGenerator builds a generator over desc. It fails when the description
// cannot be lowered to an interpreter (interp.New).
func NewGenerator(desc *sema.Desc, seed uint64) (*Generator, error) {
	in, err := interp.New(desc)
	if err != nil {
		return nil, err
	}
	return &Generator{
		Desc:              desc,
		R:                 NewRand(seed | 1),
		in:                in,
		MaxArrayLen:       8,
		ConstraintRetries: 64,
	}, nil
}

// GenerateSource produces one full instance of the description's Psource
// type, serialized to bytes.
func (g *Generator) GenerateSource() ([]byte, error) {
	v, err := g.GenerateType(g.Desc.Source.DeclName())
	if err != nil {
		return nil, err
	}
	w := g.in.NewWriter()
	return w.Append(nil, g.Desc.Source.DeclName(), v)
}

// GenerateType produces one random value of the named type.
func (g *Generator) GenerateType(name string) (value.Value, error) {
	d, ok := g.Desc.Types[name]
	if !ok {
		return nil, fmt.Errorf("datagen: unknown type %s", name)
	}
	return g.genDecl(d, expr.NewEnv(nil))
}

func (g *Generator) genDecl(d dsl.Decl, env *expr.Env) (value.Value, error) {
	switch d := d.(type) {
	case *dsl.StructDecl:
		st := &value.Struct{Common: value.NewCommon(d.Name)}
		senv := expr.NewEnv(env)
		ev := g.in.Ev
		for _, it := range d.Items {
			if it.Lit != nil {
				continue
			}
			f := it.Field
			var fv value.Value
			var err error
			for try := 0; ; try++ {
				fv, err = g.genRef(f.Type, senv)
				if err != nil {
					return nil, err
				}
				if f.Constraint == nil || try >= g.ConstraintRetries {
					break
				}
				fe := expr.NewEnv(senv)
				fe.Bind(f.Name, expr.FromValue(fv))
				if ok, _ := ev.EvalPred(f.Constraint, fe); ok {
					break
				}
			}
			st.Names = append(st.Names, f.Name)
			st.Fields = append(st.Fields, fv)
			senv.Bind(f.Name, expr.FromValue(fv))
		}
		return st, nil
	case *dsl.UnionDecl:
		un := &value.Union{Common: value.NewCommon(d.Name)}
		if d.Switch != nil {
			// A switched union's branch is not free: the selector (already
			// generated, bound in env) dictates the case.
			sel, err := g.in.Ev.Eval(d.Switch.Selector, env)
			if err != nil {
				return nil, fmt.Errorf("datagen: union %s selector: %v", d.Name, err)
			}
			var chosen *dsl.Field
			var deflt *dsl.Field
			idx := 0
		cases:
			for i := range d.Switch.Cases {
				c := &d.Switch.Cases[i]
				if len(c.Values) == 0 {
					deflt = &c.Field
					continue
				}
				for _, vx := range c.Values {
					if vv, err := g.in.Ev.Eval(vx, env); err == nil && expr.EqualV(sel, vv) {
						chosen = &c.Field
						idx = i
						break cases
					}
				}
			}
			if chosen == nil {
				chosen = deflt
			}
			if chosen == nil {
				return nil, fmt.Errorf("datagen: union %s: selector matches no case and there is no Pdefault", d.Name)
			}
			bv, err := g.genRef(chosen.Type, env)
			if err != nil {
				return nil, err
			}
			un.Tag = chosen.Name
			un.TagIdx = idx
			un.Val = bv
			return un, nil
		}
		branches := d.Branches
		if len(branches) == 0 {
			return nil, fmt.Errorf("datagen: union %s has no branches", d.Name)
		}
		// Retry across branches until one satisfies its constraint.
		for try := 0; try < g.ConstraintRetries; try++ {
			i := g.R.Intn(len(branches))
			b := branches[i]
			bv, err := g.genRef(b.Type, env)
			if err != nil {
				return nil, err
			}
			if b.Constraint != nil {
				fe := expr.NewEnv(env)
				fe.Bind(b.Name, expr.FromValue(bv))
				if ok, _ := g.in.Ev.EvalPred(b.Constraint, fe); !ok {
					continue
				}
			}
			un.Tag = b.Name
			un.TagIdx = i
			un.Val = bv
			return un, nil
		}
		// Fall back to the first branch unconstrained.
		bv, err := g.genRef(branches[0].Type, env)
		if err != nil {
			return nil, err
		}
		un.Tag = branches[0].Name
		un.Val = bv
		return un, nil
	case *dsl.ArrayDecl:
		arr := &value.Array{Common: value.NewCommon(d.Name)}
		n := g.R.Range(0, g.MaxArrayLen)
		if d.MinSize != nil {
			if v, err := g.in.Ev.Eval(d.MinSize, env); err == nil {
				if lo, err := expr.ToInt(v); err == nil && int(lo) > 0 {
					n = int(lo)
				}
			}
		}
		if d.MaxSize != nil && d.MaxSize != d.MinSize {
			if v, err := g.in.Ev.Eval(d.MaxSize, env); err == nil {
				if hi, err := expr.ToInt(v); err == nil {
					n = g.R.Range(n, int(hi))
				}
			}
		}
		for i := 0; i < n; i++ {
			ev, err := g.genRef(d.Elem, env)
			if err != nil {
				return nil, err
			}
			arr.Elems = append(arr.Elems, ev)
		}
		return arr, nil
	case *dsl.EnumDecl:
		i := g.R.Intn(len(d.Members))
		en := &value.Enum{Common: value.NewCommon(d.Name), Member: d.Members[i].Name, Index: i}
		return en, nil
	case *dsl.TypedefDecl:
		for try := 0; ; try++ {
			v, err := g.genRef(d.Base, env)
			if err != nil {
				return nil, err
			}
			if d.Constraint == nil || try >= g.ConstraintRetries {
				return v, nil
			}
			ce := expr.NewEnv(env)
			ce.Bind(d.VarName, expr.FromValue(v))
			if ok, _ := g.in.Ev.EvalPred(d.Constraint, ce); ok {
				return v, nil
			}
		}
	}
	return nil, fmt.Errorf("datagen: cannot generate %T", d)
}

func (g *Generator) genRef(tr dsl.TypeRef, env *expr.Env) (value.Value, error) {
	if tr.Opt {
		opt := &value.Opt{Common: value.NewCommon("Popt " + tr.Name)}
		if g.R.Bool(0.5) {
			inner := tr
			inner.Opt = false
			v, err := g.genRef(inner, env)
			if err != nil {
				return nil, err
			}
			opt.Present = true
			opt.Val = v
		}
		return opt, nil
	}
	if b := sema.LookupBase(tr.Name); b != nil {
		return g.genBase(b, tr, env)
	}
	d, ok := g.Desc.Types[tr.Name]
	if !ok {
		return nil, fmt.Errorf("datagen: unknown type %s", tr.Name)
	}
	// Bind declared parameters from the argument expressions.
	params := expr.NewEnv(nil)
	switch dd := d.(type) {
	case *dsl.StructDecl:
		g.bindArgs(params, dd.Params, tr.Args, env)
	case *dsl.UnionDecl:
		g.bindArgs(params, dd.Params, tr.Args, env)
	case *dsl.ArrayDecl:
		g.bindArgs(params, dd.Params, tr.Args, env)
	case *dsl.TypedefDecl:
		g.bindArgs(params, dd.Params, tr.Args, env)
	}
	return g.genDecl(d, params)
}

func (g *Generator) bindArgs(dst *expr.Env, params []dsl.Param, args []dsl.Expr, env *expr.Env) {
	for i, p := range params {
		if i >= len(args) {
			break
		}
		if v, err := g.in.Ev.Eval(args[i], env); err == nil {
			dst.Bind(p.Name, v)
		}
	}
}

func (g *Generator) genBase(b *sema.BaseInfo, tr dsl.TypeRef, env *expr.Env) (value.Value, error) {
	intArg := func(i int) int {
		if i >= len(tr.Args) {
			return 1
		}
		v, err := g.in.Ev.Eval(tr.Args[i], env)
		if err != nil {
			return 1
		}
		n, err := expr.ToInt(v)
		if err != nil || n < 0 {
			return 1
		}
		return int(n)
	}
	switch b.Kind {
	case sema.KChar:
		c := &value.Char{Common: value.NewCommon(b.Name)}
		c.Val = letters[g.R.Intn(26)]
		return c, nil
	case sema.KUint:
		u := &value.Uint{Common: value.NewCommon(b.Name), Bits: b.Bits}
		if b.FW {
			w := intArg(0)
			// Must fit both the field width and the bit width.
			max := uint64(1)
			for i := 0; i < w && max < 1e18; i++ {
				max *= 10
			}
			u.Val = g.R.Uint64() % max
			if lim := maxOfBits(b.Bits); u.Val > lim {
				u.Val %= lim + 1
			}
		} else {
			u.Val = g.R.Uint64() & maxOfBits(b.Bits)
		}
		return u, nil
	case sema.KInt:
		iv := &value.Int{Common: value.NewCommon(b.Name), Bits: b.Bits}
		switch b.Coding {
		case "bcd", "zoned":
			digits := intArg(0)
			mod := int64(1)
			for i := 0; i < digits && mod < int64(1e17); i++ {
				mod *= 10
			}
			iv.Val = int64(g.R.Uint64()%uint64(mod)) - int64(uint64(mod)/2)
			if iv.Val < 0 && b.Coding == "zoned" {
				// zoned handles signs; keep as is
			}
		default:
			iv.Val = int64(g.R.Uint64()&maxOfBits(b.Bits)) / 2
			if g.R.Bool(0.3) {
				iv.Val = -iv.Val
			}
		}
		return iv, nil
	case sema.KFloat:
		f := &value.Float{Common: value.NewCommon(b.Name), Bits: b.Bits}
		f.Val = float64(g.R.Intn(100000)) / 100
		return f, nil
	case sema.KString:
		s := &value.Str{Common: value.NewCommon(b.Name)}
		switch b.Name {
		case "Pstring_FW":
			s.Val = g.R.Alnum(intArg(0), intArg(0))
		case "Phostname":
			s.Val = g.R.Word(2, 6) + "." + g.R.Pick(clfDomains)
		case "Pzip":
			s.Val = g.R.Digits(5)
		case "Pstring_ME", "Pstring_SE":
			// Without a regexp synthesizer, emit a plain word; the
			// caller's description decides whether it matches.
			s.Val = g.R.Word(1, 8)
		default:
			s.Val = g.R.Alnum(1, 12)
		}
		return s, nil
	case sema.KDate:
		d := &value.Date{Common: value.NewCommon(b.Name)}
		d.Sec = int64(800000000 + g.R.Intn(400000000))
		d.Raw = fmt.Sprintf("%d", d.Sec)
		return d, nil
	case sema.KIP:
		ip := &value.IP{Common: value.NewCommon(b.Name)}
		ip.Val = uint32(g.R.Uint64())
		// Keep each octet in 1..254 so the text form re-parses as an IP.
		ip.Val = ip.Val&0x7F7F7F7F | 0x01010101
		return ip, nil
	case sema.KVoid:
		return &value.Void{Common: value.NewCommon(b.Name)}, nil
	}
	return nil, fmt.Errorf("datagen: cannot generate base %s", b.Name)
}

func maxOfBits(bits int) uint64 {
	if bits >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(bits) - 1
}

var _ = padsrt.ErrNone // reserved for error-injection extensions
