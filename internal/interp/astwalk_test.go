package interp

// The reference AST walk: the test-only oracle the VM is differentially
// tested against (vm_conform_test.go, FuzzVMAgainstInterp, and the
// generated-code corpora in TestVMConformGenCorpora). It interprets the
// checked AST directly, declaration by declaration, with none of the VM's
// lowering: no IR, no constant folding, no trial-protection tiers, no
// first-byte screening, and no pooled leaves. Every speculative parse pays a
// full checkpoint. What it shares with the VM is only the runtime (padsrt)
// and the expression evaluator (expr), so agreement between the two checks
// the lowering and the VM's fast paths against the plain reading of the
// description: values, parse descriptors, error codes, and record
// resynchronization. It has no observer hooks; TestTraceGolden,
// TestTraceStats and TestProfilerInterpAttribution pin the VM's.

import (
	"fmt"

	"pads/internal/dsl"
	"pads/internal/expr"
	"pads/internal/padsrt"
	"pads/internal/sema"
	"pads/internal/value"
)

// astWalk interprets one checked description by walking its AST.
type astWalk struct {
	desc *sema.Desc
	ev   *expr.Evaluator
}

func newAST(desc *sema.Desc) *astWalk { return &astWalk{desc: desc, ev: expr.New(desc)} }

// ParseSource parses the whole source, as Interp.ParseSource does.
func (w *astWalk) ParseSource(s *padsrt.Source) (value.Value, error) {
	v := w.parseDecl(w.desc.Source, s, nil, nil)
	return v, s.Err()
}

// astReader reads a header+records source one record at a time, as
// RecordReader does without an error budget.
type astReader struct {
	w      *astWalk
	s      *padsrt.Source
	mask   *padsrt.MaskNode
	rec    dsl.Decl
	header value.Value
}

// NewRecordReader parses the header, if any, and prepares record reading.
func (w *astWalk) NewRecordReader(s *padsrt.Source, mask *padsrt.MaskNode) (*astReader, error) {
	shape, err := (&Interp{Desc: w.desc}).Shape()
	if err != nil {
		return nil, err
	}
	rd, ok := w.desc.Types[shape.RecordType]
	if !ok {
		return nil, fmt.Errorf("interp: unknown record type %s", shape.RecordType)
	}
	rr := &astReader{w: w, s: s, mask: mask, rec: rd}
	if shape.HeaderType != "" {
		rr.header = w.parseDecl(w.desc.Types[shape.HeaderType], s, nil, nil)
	}
	return rr, nil
}

func (rr *astReader) Header() value.Value { return rr.header }
func (rr *astReader) More() bool          { return rr.s.More() && rr.s.Err() == nil }
func (rr *astReader) Read() value.Value   { return rr.w.parseDecl(rr.rec, rr.s, rr.mask, nil) }

// bindParams binds a declaration's parameters to its arguments in a fresh
// scope.
func bindParams(params []dsl.Param, args []expr.V) *expr.Env {
	e := expr.NewEnv(nil)
	for i, p := range params {
		if i < len(args) {
			e.Bind(p.Name, args[i])
		}
	}
	return e
}

// parseDecl parses one value of declaration d. It opens/closes a record
// window when d is Precord-annotated and performs panic-mode recovery to the
// record boundary when the content is damaged.
func (w *astWalk) parseDecl(d dsl.Decl, s *padsrt.Source, mask *padsrt.MaskNode, args []expr.V) value.Value {
	an := sema.Annot(d)
	if an.IsRecord && !s.InRecord() {
		ok, err := s.BeginRecord()
		if err != nil {
			v := &value.Void{Common: value.NewCommon(d.DeclName())}
			v.PD().SetError(padsrt.ErrIO, padsrt.Loc{Begin: s.Pos(), End: s.Pos()})
			return v
		}
		if !ok {
			v := &value.Void{Common: value.NewCommon(d.DeclName())}
			v.PD().SetError(padsrt.ErrAtEOF, padsrt.Loc{Begin: s.Pos(), End: s.Pos()})
			return v
		}
		recBegin := s.Pos()
		v := w.parseDeclBody(d, s, mask, args)
		pd := v.PD()
		if s.RecordTruncated() {
			// The discipline clamped this record to Limits.MaxRecordLen:
			// whatever parsed is suspect, so flag the record and let the
			// resync below discard the visible remainder (EndRecord streams
			// away the rest of the oversized body).
			pd.SetError(padsrt.ErrRecordTooLong, padsrt.Loc{Begin: recBegin, End: s.Pos()})
		}
		if pd.Nerr > 0 && !s.AtEOR() {
			// Panic-mode resynchronization: skip to the record boundary.
			if n := s.SkipToEOR(); n > 0 {
				pd.State = padsrt.Panicking
				pd.Nerr++
			}
		}
		s.EndRecord(pd)
		return v
	}
	return w.parseDeclBody(d, s, mask, args)
}

func (w *astWalk) parseDeclBody(d dsl.Decl, s *padsrt.Source, mask *padsrt.MaskNode, args []expr.V) value.Value {
	switch d := d.(type) {
	case *dsl.StructDecl:
		return w.parseStruct(d, s, mask, args)
	case *dsl.UnionDecl:
		return w.parseUnion(d, s, mask, args)
	case *dsl.ArrayDecl:
		return w.parseArray(d, s, mask, args)
	case *dsl.EnumDecl:
		return w.parseEnum(d, s, mask)
	case *dsl.TypedefDecl:
		return w.parseTypedef(d, s, mask, args)
	}
	v := &value.Void{Common: value.NewCommon(d.DeclName())}
	v.PD().SetError(padsrt.ErrInternal, padsrt.Loc{})
	return v
}

// parseRef parses a value of the referenced type in the given scope.
func (w *astWalk) parseRef(tr dsl.TypeRef, s *padsrt.Source, mask *padsrt.MaskNode, env *expr.Env) value.Value {
	if tr.Opt {
		inner := tr
		inner.Opt = false
		opt := &value.Opt{Common: value.NewCommon("Popt " + tr.Name)}
		s.Checkpoint()
		v := w.parseRefNonOpt(inner, s, mask, env)
		if v.PD().Nerr == 0 {
			s.Commit()
			opt.Present = true
			opt.Val = v
			return opt
		}
		s.Restore()
		opt.Present = false
		return opt
	}
	return w.parseRefNonOpt(tr, s, mask, env)
}

func (w *astWalk) parseRefNonOpt(tr dsl.TypeRef, s *padsrt.Source, mask *padsrt.MaskNode, env *expr.Env) value.Value {
	if b := sema.LookupBase(tr.Name); b != nil {
		return w.parseBase(b, tr, s, mask, env)
	}
	d, ok := w.desc.Types[tr.Name]
	if !ok {
		v := &value.Void{Common: value.NewCommon(tr.Name)}
		v.PD().SetError(padsrt.ErrInternal, padsrt.Loc{Begin: s.Pos(), End: s.Pos()})
		return v
	}
	args := make([]expr.V, 0, len(tr.Args))
	for _, a := range tr.Args {
		av, err := w.ev.Eval(a, env)
		if err != nil {
			v := &value.Void{Common: value.NewCommon(tr.Name)}
			v.PD().SetError(padsrt.ErrBadParam, padsrt.Loc{Begin: s.Pos(), End: s.Pos()})
			return v
		}
		args = append(args, av)
	}
	return w.parseDecl(d, s, mask, args)
}

// matchLiteral matches a literal item, returning the error code.
func (w *astWalk) matchLiteral(l *dsl.Literal, s *padsrt.Source) padsrt.ErrCode {
	switch l.Kind {
	case dsl.CharLit:
		return padsrt.MatchChar(s, l.Char)
	case dsl.StrLit:
		return padsrt.MatchString(s, l.Str)
	case dsl.RegexpLit:
		re := w.desc.Regexps[l.Str]
		if re == nil {
			return padsrt.ErrInternal
		}
		return padsrt.MatchRegexp(s, re)
	case dsl.EORLit:
		return padsrt.MatchEOR(s)
	case dsl.EOFLit:
		return padsrt.MatchEOF(s)
	}
	return padsrt.ErrInternal
}

func (w *astWalk) parseStruct(d *dsl.StructDecl, s *padsrt.Source, mask *padsrt.MaskNode, args []expr.V) value.Value {
	env := bindParams(d.Params, args)
	st := &value.Struct{Common: value.NewCommon(d.Name)}
	pd := st.PD()
	for _, it := range d.Items {
		if it.Lit != nil {
			begin := s.Pos()
			if code := w.matchLiteral(it.Lit, s); code != padsrt.ErrNone {
				pd.SetError(code, s.LocFrom(begin))
				if pd.State == padsrt.Normal {
					pd.State = padsrt.Partial
				}
			}
			continue
		}
		f := it.Field
		fmask := mask.Field(f.Name)
		fv := w.parseRef(f.Type, s, fmask, env)
		if f.Constraint != nil && fmask.BaseMask().DoCheck() && fv.PD().Nerr == 0 {
			fe := expr.NewEnv(env)
			fe.Bind(f.Name, expr.FromValue(fv))
			ok, _ := w.ev.EvalPred(f.Constraint, fe)
			if !ok {
				fv.PD().SetError(padsrt.ErrConstraint, padsrt.Loc{Begin: s.Pos(), End: s.Pos()})
			}
		}
		pd.AddChildErrors(fv.PD(), padsrt.ErrStructField)
		st.Names = append(st.Names, f.Name)
		st.Fields = append(st.Fields, fv)
		env.Bind(f.Name, expr.FromValue(fv))
	}
	if d.Where != nil && mask.CompoundMask().DoCheck() {
		ok, _ := w.ev.EvalPred(d.Where, env)
		if !ok {
			pd.SetError(padsrt.ErrWhere, padsrt.Loc{Begin: s.Pos(), End: s.Pos()})
		}
	}
	return st
}

func (w *astWalk) parseUnion(d *dsl.UnionDecl, s *padsrt.Source, mask *padsrt.MaskNode, args []expr.V) value.Value {
	env := bindParams(d.Params, args)
	un := &value.Union{Common: value.NewCommon(d.Name)}
	pd := un.PD()
	begin := s.Pos()

	if d.Switch != nil {
		sel, err := w.ev.Eval(d.Switch.Selector, env)
		if err != nil {
			pd.SetError(padsrt.ErrBadParam, padsrt.Loc{Begin: begin, End: begin})
			return un
		}
		var chosen *dsl.SwitchCase
		var defaultCase *dsl.SwitchCase
		for i := range d.Switch.Cases {
			c := &d.Switch.Cases[i]
			if len(c.Values) == 0 {
				defaultCase = c
				continue
			}
			for _, vx := range c.Values {
				vv, err := w.ev.Eval(vx, env)
				if err == nil && expr.EqualV(sel, vv) {
					chosen = c
					break
				}
			}
			if chosen != nil {
				break
			}
		}
		if chosen == nil {
			chosen = defaultCase
		}
		if chosen == nil {
			pd.SetError(padsrt.ErrUnionTag, padsrt.Loc{Begin: begin, End: begin})
			return un
		}
		f := &chosen.Field
		bv := w.parseBranch(f, s, mask, env)
		un.Tag = f.Name
		un.Val = bv
		pd.AddChildErrors(bv.PD(), padsrt.ErrStructField)
		return un
	}

	for i := range d.Branches {
		f := &d.Branches[i]
		s.Checkpoint()
		bv := w.parseBranch(f, s, mask, env)
		if bv.PD().Nerr == 0 {
			s.Commit()
			un.Tag = f.Name
			un.TagIdx = i
			un.Val = bv
			return un
		}
		s.Restore()
	}
	pd.SetError(padsrt.ErrUnionMatch, padsrt.Loc{Begin: begin, End: s.Pos()})
	return un
}

func (w *astWalk) parseBranch(f *dsl.Field, s *padsrt.Source, mask *padsrt.MaskNode, env *expr.Env) value.Value {
	fmask := mask.Field(f.Name)
	bv := w.parseRef(f.Type, s, fmask, env)
	// Branch constraints always run when checking is on: they decide
	// which branch matches (auth_id_t in Figure 4).
	if f.Constraint != nil && bv.PD().Nerr == 0 && fmask.BaseMask().DoCheck() {
		fe := expr.NewEnv(env)
		fe.Bind(f.Name, expr.FromValue(bv))
		ok, _ := w.ev.EvalPred(f.Constraint, fe)
		if !ok {
			bv.PD().SetError(padsrt.ErrConstraint, padsrt.Loc{Begin: s.Pos(), End: s.Pos()})
		}
	}
	return bv
}

func (w *astWalk) parseArray(d *dsl.ArrayDecl, s *padsrt.Source, mask *padsrt.MaskNode, args []expr.V) value.Value {
	env := bindParams(d.Params, args)
	arr := &value.Array{Common: value.NewCommon(d.Name)}
	pd := arr.PD()
	begin := s.Pos()

	var minSize, maxSize int64 = -1, -1
	if d.MinSize != nil {
		if v, err := w.ev.Eval(d.MinSize, env); err == nil {
			minSize, _ = expr.ToInt(v)
		}
	}
	if d.MaxSize != nil {
		if v, err := w.ev.Eval(d.MaxSize, env); err == nil {
			maxSize, _ = expr.ToInt(v)
		}
	}

	elemIsRecord := false
	if ed, ok := w.desc.Types[d.Elem.Name]; ok && sema.Annot(ed).IsRecord {
		elemIsRecord = true
	}
	elemMask := mask.ElemMask()
	arrV := func() expr.V { return expr.FromValue(arr) }

	bindSeqEnv := func() *expr.Env {
		e := expr.NewEnv(env)
		e.Bind("elts", arrV())
		e.Bind("length", expr.Int(int64(len(arr.Elems))))
		return e
	}

	for {
		if maxSize >= 0 && int64(len(arr.Elems)) >= maxSize {
			break
		}
		// Pended predicate: stop before parsing the next element.
		if d.EndedPred != nil {
			if ok, _ := w.ev.EvalPred(d.EndedPred, bindSeqEnv()); ok {
				break
			}
		}
		// Terminator checks.
		if d.Term != nil {
			stop := false
			switch d.Term.Kind {
			case dsl.EORLit:
				stop = s.AtEOR()
			case dsl.EOFLit:
				stop = s.AtEOF()
			default:
				// A literal terminator is consumed by the array.
				s.Checkpoint()
				if w.matchLiteral(d.Term, s) == padsrt.ErrNone {
					s.Commit()
					stop = true
				} else {
					s.Restore()
				}
			}
			if stop {
				break
			}
		}
		// Natural boundaries.
		if elemIsRecord && !s.InRecord() {
			if !s.More() {
				break
			}
		} else if s.AtEOR() || (!s.InRecord() && s.AtEOF()) {
			break
		}
		// Separator between elements.
		iterBegin := s.Pos()
		if len(arr.Elems) > 0 && d.Sep != nil {
			sepBegin := s.Pos()
			if code := w.matchLiteral(d.Sep, s); code != padsrt.ErrNone {
				pd.SetError(padsrt.ErrArraySep, s.LocFrom(sepBegin))
				break
			}
		}
		posBefore := s.Pos()
		ev := w.parseRef(d.Elem, s, elemMask, env)
		if ev.PD().Nerr > 0 {
			pd.AddChildErrors(ev.PD(), padsrt.ErrArrayElem)
			arr.Elems = append(arr.Elems, ev)
			if s.Pos() == posBefore {
				break // no progress: stop rather than loop forever
			}
		} else {
			arr.Elems = append(arr.Elems, ev)
			if maxSize < 0 && s.Pos() == iterBegin {
				// A clean zero-width element in an unbounded array (no
				// separator consumed either) would repeat forever.
				break
			}
		}
		// Plast predicate: stop after this element.
		if d.LastPred != nil {
			e := bindSeqEnv()
			e.Bind("elt", expr.FromValue(ev))
			if ok, _ := w.ev.EvalPred(d.LastPred, e); ok {
				break
			}
		}
	}

	if minSize >= 0 && int64(len(arr.Elems)) < minSize && mask.CompoundMask().DoCheck() {
		pd.SetError(padsrt.ErrArraySize, s.LocFrom(begin))
	}
	if d.Where != nil && mask.CompoundMask().DoCheck() {
		ok, _ := w.ev.EvalPred(d.Where, bindSeqEnv())
		if !ok {
			pd.SetError(padsrt.ErrWhere, s.LocFrom(begin))
		}
	}
	return arr
}

func (w *astWalk) parseEnum(d *dsl.EnumDecl, s *padsrt.Source, mask *padsrt.MaskNode) value.Value {
	en := &value.Enum{Common: value.NewCommon(d.Name), Index: -1}
	begin := s.Pos()
	// Longest literal first so prefixes do not shadow longer members.
	best := -1
	for i, m := range d.Members {
		if best >= 0 && len(m.Repr) <= len(d.Members[best].Repr) {
			continue
		}
		w := s.Peek(len(m.Repr))
		if len(w) == len(m.Repr) && string(w) == m.Repr {
			best = i
		}
	}
	if best < 0 {
		en.PD().SetError(padsrt.ErrInvalidEnum, padsrt.Loc{Begin: begin, End: begin})
		return en
	}
	s.Skip(len(d.Members[best].Repr))
	en.Member = d.Members[best].Name
	en.Index = best
	return en
}

func (w *astWalk) parseTypedef(d *dsl.TypedefDecl, s *padsrt.Source, mask *padsrt.MaskNode, args []expr.V) value.Value {
	env := bindParams(d.Params, args)
	v := w.parseRefNonOpt(d.Base, s, mask, env)
	if d.Constraint != nil && mask.BaseMask().DoCheck() && v.PD().Nerr == 0 {
		ce := expr.NewEnv(env)
		ce.Bind(d.VarName, expr.FromValue(v))
		ok, _ := w.ev.EvalPred(d.Constraint, ce)
		if !ok {
			v.PD().SetError(padsrt.ErrConstraint, padsrt.Loc{Begin: s.Pos(), End: s.Pos()})
		}
	}
	return v
}

// parseBase parses one base-type value, dispatching on the registry entry.
func (w *astWalk) parseBase(b *sema.BaseInfo, tr dsl.TypeRef, s *padsrt.Source, mask *padsrt.MaskNode, env *expr.Env) value.Value {
	begin := s.Pos()
	fail := func(v value.Value, code padsrt.ErrCode) value.Value {
		v.PD().SetError(code, s.LocFrom(begin))
		return v
	}

	// Resolve arguments.
	intArg := func(i int) (int64, padsrt.ErrCode) {
		v, err := w.ev.Eval(tr.Args[i], env)
		if err != nil {
			return 0, padsrt.ErrBadParam
		}
		n, err := expr.ToInt(v)
		if err != nil || n < 0 {
			return 0, padsrt.ErrBadParam
		}
		return n, padsrt.ErrNone
	}
	// termArg decodes a character-terminator argument; ok=false means the
	// terminator is Peor/Peof (read to the record/input boundary).
	termArg := func(i int) (byte, bool, padsrt.ErrCode) {
		switch a := tr.Args[i].(type) {
		case *dsl.EORExpr, *dsl.EOFExpr:
			return 0, false, padsrt.ErrNone
		default:
			v, err := w.ev.Eval(a, env)
			if err != nil || v.K != sema.KChar {
				return 0, false, padsrt.ErrBadParam
			}
			return byte(v.I), true, padsrt.ErrNone
		}
	}

	switch b.Kind {
	case sema.KChar:
		v := &value.Char{Common: value.NewCommon(b.Name)}
		var c byte
		var code padsrt.ErrCode
		switch b.Coding {
		case "a":
			c, code = padsrt.ReadAChar(s)
		case "e":
			c, code = padsrt.ReadEChar(s)
		case "b":
			c, code = padsrt.ReadBChar(s)
		default:
			c, code = padsrt.ReadChar(s)
		}
		if code != padsrt.ErrNone {
			return fail(v, code)
		}
		v.Val = c
		return v

	case sema.KUint:
		v := &value.Uint{Common: value.NewCommon(b.Name), Bits: b.Bits}
		var u uint64
		var code padsrt.ErrCode
		switch {
		case b.FW:
			w, c := intArg(0)
			if c != padsrt.ErrNone {
				return fail(v, c)
			}
			if b.Coding == "a" {
				u, code = padsrt.ReadAUintFW(s, int(w), b.Bits)
			} else {
				u, code = padsrt.ReadUintFW(s, int(w), b.Bits)
			}
		case b.Coding == "a":
			u, code = padsrt.ReadAUint(s, b.Bits)
		case b.Coding == "e":
			u, code = padsrt.ReadEUint(s, b.Bits)
		case b.Coding == "b":
			u, code = padsrt.ReadBUint(s, b.Bits/8)
		default:
			u, code = padsrt.ReadUint(s, b.Bits)
		}
		if code != padsrt.ErrNone {
			return fail(v, code)
		}
		v.Val = u
		return v

	case sema.KInt:
		v := &value.Int{Common: value.NewCommon(b.Name), Bits: b.Bits}
		var i int64
		var code padsrt.ErrCode
		switch {
		case b.Coding == "bcd":
			d, c := intArg(0)
			if c != padsrt.ErrNone {
				return fail(v, c)
			}
			i, code = padsrt.ReadBCD(s, int(d))
		case b.Coding == "zoned":
			d, c := intArg(0)
			if c != padsrt.ErrNone {
				return fail(v, c)
			}
			i, code = padsrt.ReadZoned(s, int(d))
		case b.FW:
			w, c := intArg(0)
			if c != padsrt.ErrNone {
				return fail(v, c)
			}
			i, code = padsrt.ReadAIntFW(s, int(w), b.Bits)
		case b.Coding == "a":
			i, code = padsrt.ReadAInt(s, b.Bits)
		case b.Coding == "e":
			i, code = padsrt.ReadEInt(s, b.Bits)
		case b.Coding == "b":
			i, code = padsrt.ReadBInt(s, b.Bits/8)
		default:
			i, code = padsrt.ReadInt(s, b.Bits)
		}
		if code != padsrt.ErrNone {
			return fail(v, code)
		}
		v.Val = i
		return v

	case sema.KFloat:
		v := &value.Float{Common: value.NewCommon(b.Name), Bits: b.Bits}
		f, code := padsrt.ReadAFloat(s, b.Bits)
		if code != padsrt.ErrNone {
			return fail(v, code)
		}
		v.Val = f
		return v

	case sema.KString:
		v := &value.Str{Common: value.NewCommon(b.Name)}
		switch b.Name {
		case "Pstring":
			term, isChar, c := termArg(0)
			if c != padsrt.ErrNone {
				return fail(v, c)
			}
			var str string
			var code padsrt.ErrCode
			if isChar {
				str, code = padsrt.ReadStringTerm(s, term)
			} else {
				// Terminated by Peor/Peof: read the remainder.
				str, code = padsrt.ReadStringEOR(s)
			}
			if code != padsrt.ErrNone {
				return fail(v, code)
			}
			v.Val = str
			return v
		case "Pstring_FW":
			w, c := intArg(0)
			if c != padsrt.ErrNone {
				return fail(v, c)
			}
			str, code := padsrt.ReadStringFW(s, int(w))
			if code != padsrt.ErrNone {
				return fail(v, code)
			}
			v.Val = str
			return v
		case "Pstring_ME", "Pstring_SE":
			re := w.regexpArg(tr.Args[0])
			if re == nil {
				return fail(v, padsrt.ErrBadParam)
			}
			var str string
			var code padsrt.ErrCode
			if b.Name == "Pstring_ME" {
				str, code = padsrt.ReadStringME(s, re)
			} else {
				str, code = padsrt.ReadStringSE(s, re)
			}
			if code != padsrt.ErrNone {
				return fail(v, code)
			}
			v.Val = str
			return v
		case "Phostname":
			str, code := padsrt.ReadHostname(s)
			if code != padsrt.ErrNone {
				return fail(v, code)
			}
			v.Val = str
			return v
		case "Pzip":
			str, code := padsrt.ReadZip(s)
			if code != padsrt.ErrNone {
				return fail(v, code)
			}
			v.Val = str
			return v
		}
		return fail(v, padsrt.ErrInternal)

	case sema.KDate:
		v := &value.Date{Common: value.NewCommon(b.Name)}
		term, isChar, c := termArg(0)
		if c != padsrt.ErrNone {
			return fail(v, c)
		}
		if !isChar {
			term = 0
		}
		sec, raw, code := padsrt.ReadDate(s, term)
		v.Raw = raw
		if code != padsrt.ErrNone {
			return fail(v, code)
		}
		v.Sec = sec
		return v

	case sema.KIP:
		v := &value.IP{Common: value.NewCommon(b.Name)}
		ip, code := padsrt.ReadIP(s)
		if code != padsrt.ErrNone {
			return fail(v, code)
		}
		v.Val = ip
		return v

	case sema.KVoid:
		return &value.Void{Common: value.NewCommon(b.Name)}
	}
	v := &value.Void{Common: value.NewCommon(b.Name)}
	return fail(v, padsrt.ErrInternal)
}

func (w *astWalk) regexpArg(a dsl.Expr) *padsrt.Regexp {
	re, ok := a.(*dsl.RegexpExpr)
	if !ok {
		return nil
	}
	return w.desc.Regexps[re.Src]
}
