// Package interp is the description interpreter: it parses data directly
// from a checked PADS description, producing generic values with nested
// parse descriptors. Its semantics are the reference for the generated
// parsers (the two are differentially tested against each other), and it
// powers the driver tools (padsacc, padsfmt, padsxml, padsquery) that work
// on any description without a compile step.
package interp

import (
	"fmt"
	"strings"

	"pads/internal/dsl"
	"pads/internal/expr"
	"pads/internal/ir"
	"pads/internal/padsrt"
	"pads/internal/sema"
	"pads/internal/telemetry"
	"pads/internal/telemetry/prof"
	"pads/internal/value"
)

// Interp interprets one checked description.
//
// Stats and Tracer, when non-nil, observe the parse: Stats tallies errors by
// dotted field path and histograms union branch selection; Tracer emits one
// structured event per parsing decision (docs/OBSERVABILITY.md). Both default
// to nil, which costs one branch per decision and nothing else. An Interp is
// single-goroutine: besides the evaluator's call-depth state it owns the
// VM's chunks of leaf value nodes, which are per-Interp and unsynchronized.
// That is why sharded parses, segment workers, and padsd requests each parse
// on their own Clone (see RecordReader.Shard, which also routes the shard's
// counters to its chunk source's Stats).
type Interp struct {
	Desc   *sema.Desc
	Ev     *expr.Evaluator
	Stats  *telemetry.Stats
	Tracer *telemetry.Tracer

	// Prof, when non-nil, attributes wall time, bytes, and errors to
	// description node paths (telemetry/prof; the -profile flag). Its span
	// hooks are kept separate from the Stats/Tracer blocks because they
	// must not build path strings: the profiler interns nodes itself. Hook
	// discipline: each call site checks Prof.Sampling() once, remembers the
	// answer in a local, and only calls Exit if its own Enter ran — so
	// spans stay balanced even when the sampling state flips at a record
	// boundary between the two.
	Prof *prof.Profiler

	// prog is the lowered IR program (internal/ir). When non-nil, parsing
	// runs on the bytecode VM (vm.go); when nil, on the reference AST walk.
	// New lowers eagerly and falls back to the walk only if lowering fails;
	// NewAST pins the walk for differential testing.
	prog *ir.Program

	path []string // dotted field path stack, maintained only while observing

	leaves leaves // the VM's chunks of pointer-free value nodes (alloc.go)
}

// observing reports whether any telemetry consumer is attached.
func (in *Interp) observing() bool { return in.Stats != nil || in.Tracer != nil }

func (in *Interp) pathString() string { return strings.Join(in.path, ".") }

// trace builds and emits an event only when a tracer is attached, so the
// disabled path never constructs an Event.
func (in *Interp) trace(ev, name string, s *padsrt.Source) {
	if in.Tracer == nil {
		return
	}
	p := s.Pos()
	in.Tracer.Emit(telemetry.Event{Ev: ev, Name: name, Off: p.Byte, Rec: p.Record})
}

// traceSpan emits an event covering [begin, here), with an optional error.
func (in *Interp) traceSpan(ev, name, branch string, begin padsrt.Pos, s *padsrt.Source, code padsrt.ErrCode) {
	if in.Tracer == nil {
		return
	}
	p := s.Pos()
	e := telemetry.Event{Ev: ev, Name: name, Branch: branch, Off: begin.Byte, End: p.Byte, Rec: p.Record}
	if code != padsrt.ErrNone {
		e.Err = code.String()
	}
	in.Tracer.Emit(e)
}

// New builds an interpreter for the description. The description is lowered
// to the flat IR once, here, and parsed by the bytecode VM; if lowering is
// not possible the reference AST walk takes over, so New never fails.
func New(desc *sema.Desc) *Interp {
	in := &Interp{Desc: desc, Ev: expr.New(desc)}
	if p, err := ir.Lower(desc); err == nil {
		in.prog = p
	}
	return in
}

// NewAST builds an interpreter pinned to the reference AST walk, bypassing
// the IR lowering. The conformance suite uses it as the semantic baseline
// the VM and the generated code are differentially tested against.
func NewAST(desc *sema.Desc) *Interp {
	return &Interp{Desc: desc, Ev: expr.New(desc)}
}

// Clone returns an interpreter over the same checked description and lowered
// program but with private mutable state: a fresh expression evaluator
// (evaluation carries call-depth state), its own leaf chunks, and detached
// observers. It is the compile-once, parse-many primitive — segment shards
// and the padsd registry both clone one compiled description per concurrent
// parse instead of re-lowering it. A NewAST interpreter's clones stay on the
// AST walk.
func (in *Interp) Clone() *Interp {
	return &Interp{Desc: in.Desc, Ev: expr.New(in.Desc), prog: in.prog}
}

// ParseSource parses the entire data source according to the description's
// Psource declaration, with full checking. For large inputs prefer the
// record-at-a-time entry points (NewRecordReader).
func (in *Interp) ParseSource(s *padsrt.Source) (value.Value, error) {
	return in.ParseType(in.Desc.Source.DeclName(), s, nil, nil)
}

// ParseType parses a single value of the named type: the "multiple entry
// points" of section 4 that let applications read manageable portions of
// very large sources. args supplies values for the type's parameters; mask
// selects what to check and set (nil = check and set everything).
func (in *Interp) ParseType(name string, s *padsrt.Source, mask *padsrt.MaskNode, args []expr.V) (value.Value, error) {
	d, ok := in.Desc.Types[name]
	if !ok {
		return nil, fmt.Errorf("interp: unknown type %s", name)
	}
	v := in.parse(d, s, mask, args)
	return v, s.Err()
}

// env bundles the lexical scope threaded through a parse.
type penv struct {
	env *expr.Env
}

func (in *Interp) bindParams(params []dsl.Param, args []expr.V) *expr.Env {
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
func (in *Interp) parseDecl(d dsl.Decl, s *padsrt.Source, mask *padsrt.MaskNode, args []expr.V) value.Value {
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
		if in.Prof != nil {
			in.Prof.BeginRecord(d.DeclName(), recBegin.Byte)
		}
		in.trace(telemetry.EvRecordBegin, d.DeclName(), s)
		v := in.parseDeclBody(d, s, mask, args)
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
			begin := s.Pos()
			if n := s.SkipToEOR(); n > 0 {
				pd.State = padsrt.Panicking
				pd.Nerr++
				in.traceSpan(telemetry.EvError, d.DeclName(), "", begin, s, padsrt.ErrPanicSkipped)
			}
		}
		s.EndRecord(pd)
		if in.Prof != nil {
			in.Prof.EndRecord(s.Pos().Byte, pd.Nerr > 0)
		}
		in.traceSpan(telemetry.EvRecordEnd, d.DeclName(), "", recBegin, s, pd.ErrCode)
		return v
	}
	return in.parseDeclBody(d, s, mask, args)
}

func (in *Interp) parseDeclBody(d dsl.Decl, s *padsrt.Source, mask *padsrt.MaskNode, args []expr.V) value.Value {
	switch d := d.(type) {
	case *dsl.StructDecl:
		return in.parseStruct(d, s, mask, args)
	case *dsl.UnionDecl:
		return in.parseUnion(d, s, mask, args)
	case *dsl.ArrayDecl:
		return in.parseArray(d, s, mask, args)
	case *dsl.EnumDecl:
		return in.parseEnum(d, s, mask)
	case *dsl.TypedefDecl:
		return in.parseTypedef(d, s, mask, args)
	}
	v := &value.Void{Common: value.NewCommon(d.DeclName())}
	v.PD().SetError(padsrt.ErrInternal, padsrt.Loc{})
	return v
}

// parseRef parses a value of the referenced type in the given scope.
func (in *Interp) parseRef(tr dsl.TypeRef, s *padsrt.Source, mask *padsrt.MaskNode, env *expr.Env) value.Value {
	if tr.Opt {
		inner := tr
		inner.Opt = false
		opt := &value.Opt{Common: value.NewCommon("Popt " + tr.Name)}
		begin := s.Pos()
		s.Checkpoint()
		v := in.parseRefNonOpt(inner, s, mask, env)
		if v.PD().Nerr == 0 {
			s.Commit()
			opt.Present = true
			opt.Val = v
			return opt
		}
		s.Restore()
		_ = begin
		opt.Present = false
		return opt
	}
	return in.parseRefNonOpt(tr, s, mask, env)
}

func (in *Interp) parseRefNonOpt(tr dsl.TypeRef, s *padsrt.Source, mask *padsrt.MaskNode, env *expr.Env) value.Value {
	if b := sema.LookupBase(tr.Name); b != nil {
		return in.parseBase(b, tr, s, mask, env)
	}
	d, ok := in.Desc.Types[tr.Name]
	if !ok {
		v := &value.Void{Common: value.NewCommon(tr.Name)}
		v.PD().SetError(padsrt.ErrInternal, padsrt.Loc{Begin: s.Pos(), End: s.Pos()})
		return v
	}
	args := make([]expr.V, 0, len(tr.Args))
	for _, a := range tr.Args {
		av, err := in.Ev.Eval(a, env)
		if err != nil {
			v := &value.Void{Common: value.NewCommon(tr.Name)}
			v.PD().SetError(padsrt.ErrBadParam, padsrt.Loc{Begin: s.Pos(), End: s.Pos()})
			return v
		}
		args = append(args, av)
	}
	return in.parseDecl(d, s, mask, args)
}

// matchLiteral matches a literal item, returning the error code.
func (in *Interp) matchLiteral(l *dsl.Literal, s *padsrt.Source) padsrt.ErrCode {
	switch l.Kind {
	case dsl.CharLit:
		return padsrt.MatchChar(s, l.Char)
	case dsl.StrLit:
		return padsrt.MatchString(s, l.Str)
	case dsl.RegexpLit:
		re := in.Desc.Regexps[l.Str]
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

func (in *Interp) parseStruct(d *dsl.StructDecl, s *padsrt.Source, mask *padsrt.MaskNode, args []expr.V) value.Value {
	env := in.bindParams(d.Params, args)
	st := &value.Struct{Common: value.NewCommon(d.Name)}
	pd := st.PD()
	for _, it := range d.Items {
		if it.Lit != nil {
			begin := s.Pos()
			if code := in.matchLiteral(it.Lit, s); code != padsrt.ErrNone {
				pd.SetError(code, s.LocFrom(begin))
				if pd.State == padsrt.Normal {
					pd.State = padsrt.Partial
				}
				in.traceSpan(telemetry.EvError, d.Name, "", begin, s, code)
			}
			continue
		}
		f := it.Field
		fmask := mask.Field(f.Name)
		var fieldPath string
		var fieldBegin padsrt.Pos
		if in.observing() {
			in.path = append(in.path, f.Name)
			fieldPath = in.pathString()
			fieldBegin = s.Pos()
			in.trace(telemetry.EvFieldEnter, fieldPath, s)
		}
		profOpen := in.Prof.Sampling()
		if profOpen {
			in.Prof.Enter(f.Name, s.Pos().Byte)
		}
		fv := in.parseRef(f.Type, s, fmask, env)
		if f.Constraint != nil && fmask.BaseMask().DoCheck() && fv.PD().Nerr == 0 {
			fe := expr.NewEnv(env)
			fe.Bind(f.Name, expr.FromValue(fv))
			ok, _ := in.Ev.EvalPred(f.Constraint, fe)
			if !ok {
				fv.PD().SetError(padsrt.ErrConstraint, padsrt.Loc{Begin: s.Pos(), End: s.Pos()})
			}
		}
		if profOpen {
			in.Prof.Exit(s.Pos().Byte, fv.PD().Nerr > 0)
		}
		if in.observing() {
			if fpd := fv.PD(); fpd.Nerr > 0 {
				if in.Stats != nil {
					in.Stats.FieldError(fieldPath)
				}
				in.traceSpan(telemetry.EvFieldExit, fieldPath, "", fieldBegin, s, fpd.ErrCode)
			} else {
				in.traceSpan(telemetry.EvFieldExit, fieldPath, "", fieldBegin, s, padsrt.ErrNone)
			}
			in.path = in.path[:len(in.path)-1]
		}
		pd.AddChildErrors(fv.PD(), padsrt.ErrStructField)
		st.Names = append(st.Names, f.Name)
		st.Fields = append(st.Fields, fv)
		env.Bind(f.Name, expr.FromValue(fv))
	}
	if d.Where != nil && mask.CompoundMask().DoCheck() {
		ok, _ := in.Ev.EvalPred(d.Where, env)
		if !ok {
			pd.SetError(padsrt.ErrWhere, padsrt.Loc{Begin: s.Pos(), End: s.Pos()})
		}
	}
	return st
}

func (in *Interp) parseUnion(d *dsl.UnionDecl, s *padsrt.Source, mask *padsrt.MaskNode, args []expr.V) value.Value {
	env := in.bindParams(d.Params, args)
	un := &value.Union{Common: value.NewCommon(d.Name)}
	pd := un.PD()
	begin := s.Pos()

	if d.Switch != nil {
		sel, err := in.Ev.Eval(d.Switch.Selector, env)
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
				vv, err := in.Ev.Eval(vx, env)
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
			if in.Stats != nil {
				in.Stats.UnionChoice(d.Name, noBranch)
			}
			in.traceSpan(telemetry.EvError, d.Name, "", begin, s, padsrt.ErrUnionTag)
			return un
		}
		f := &chosen.Field
		profOpen := in.Prof.Sampling()
		if profOpen {
			in.Prof.Enter(f.Name, s.Pos().Byte)
		}
		bv := in.parseBranch(d, f, s, mask, env)
		if profOpen {
			in.Prof.Exit(s.Pos().Byte, bv.PD().Nerr > 0)
		}
		un.Tag = f.Name
		un.Val = bv
		pd.AddChildErrors(bv.PD(), padsrt.ErrStructField)
		if in.Stats != nil {
			in.Stats.UnionChoice(d.Name, f.Name)
		}
		in.traceSpan(telemetry.EvBranchSelect, d.Name, f.Name, begin, s, bv.PD().ErrCode)
		return un
	}

	for i := range d.Branches {
		f := &d.Branches[i]
		s.Checkpoint()
		if in.Tracer != nil {
			in.Tracer.Emit(telemetry.Event{
				Ev: telemetry.EvBranchAttempt, Name: d.Name, Branch: f.Name,
				Off: begin.Byte, Rec: begin.Record,
			})
		}
		profOpen := in.Prof.Sampling()
		if profOpen {
			in.Prof.Enter(f.Name, s.Pos().Byte)
		}
		bv := in.parseBranch(d, f, s, mask, env)
		if bv.PD().Nerr == 0 {
			s.Commit()
			if profOpen {
				in.Prof.Exit(s.Pos().Byte, false)
			}
			un.Tag = f.Name
			un.TagIdx = i
			un.Val = bv
			if in.Stats != nil {
				in.Stats.UnionChoice(d.Name, f.Name)
			}
			in.traceSpan(telemetry.EvBranchSelect, d.Name, f.Name, begin, s, padsrt.ErrNone)
			return un
		}
		// Close the span before Restore so the attempt's speculative
		// consumption is measurable (the cursor is about to rewind).
		if profOpen {
			in.Prof.ExitSpeculative(s.Pos().Byte)
		}
		in.traceSpan(telemetry.EvBranchBacktrack, d.Name, f.Name, begin, s, bv.PD().ErrCode)
		s.Restore()
	}
	pd.SetError(padsrt.ErrUnionMatch, padsrt.Loc{Begin: begin, End: s.Pos()})
	if in.Stats != nil {
		in.Stats.UnionChoice(d.Name, noBranch)
	}
	in.traceSpan(telemetry.EvError, d.Name, "", begin, s, padsrt.ErrUnionMatch)
	return un
}

// noBranch is the histogram key recorded when no union branch (or switch
// case) matched.
const noBranch = "<none>"

func (in *Interp) parseBranch(d *dsl.UnionDecl, f *dsl.Field, s *padsrt.Source, mask *padsrt.MaskNode, env *expr.Env) value.Value {
	fmask := mask.Field(f.Name)
	bv := in.parseRef(f.Type, s, fmask, env)
	// Branch constraints always run when checking is on: they decide
	// which branch matches (auth_id_t in Figure 4).
	if f.Constraint != nil && bv.PD().Nerr == 0 && fmask.BaseMask().DoCheck() {
		fe := expr.NewEnv(env)
		fe.Bind(f.Name, expr.FromValue(bv))
		ok, _ := in.Ev.EvalPred(f.Constraint, fe)
		if !ok {
			bv.PD().SetError(padsrt.ErrConstraint, padsrt.Loc{Begin: s.Pos(), End: s.Pos()})
		}
	}
	return bv
}

func (in *Interp) parseArray(d *dsl.ArrayDecl, s *padsrt.Source, mask *padsrt.MaskNode, args []expr.V) value.Value {
	env := in.bindParams(d.Params, args)
	arr := &value.Array{Common: value.NewCommon(d.Name)}
	pd := arr.PD()
	begin := s.Pos()

	var minSize, maxSize int64 = -1, -1
	if d.MinSize != nil {
		if v, err := in.Ev.Eval(d.MinSize, env); err == nil {
			minSize, _ = expr.ToInt(v)
		}
	}
	if d.MaxSize != nil {
		if v, err := in.Ev.Eval(d.MaxSize, env); err == nil {
			maxSize, _ = expr.ToInt(v)
		}
	}

	elemIsRecord := false
	if ed, ok := in.Desc.Types[d.Elem.Name]; ok && sema.Annot(ed).IsRecord {
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
			if ok, _ := in.Ev.EvalPred(d.EndedPred, bindSeqEnv()); ok {
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
				if in.matchLiteral(d.Term, s) == padsrt.ErrNone {
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
			if code := in.matchLiteral(d.Sep, s); code != padsrt.ErrNone {
				pd.SetError(padsrt.ErrArraySep, s.LocFrom(sepBegin))
				break
			}
		}
		posBefore := s.Pos()
		profOpen := in.Prof.Sampling()
		if profOpen {
			in.Prof.Enter("[]", posBefore.Byte)
		}
		ev := in.parseRef(d.Elem, s, elemMask, env)
		if profOpen {
			in.Prof.Exit(s.Pos().Byte, ev.PD().Nerr > 0)
		}
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
			if ok, _ := in.Ev.EvalPred(d.LastPred, e); ok {
				break
			}
		}
	}

	if minSize >= 0 && int64(len(arr.Elems)) < minSize && mask.CompoundMask().DoCheck() {
		pd.SetError(padsrt.ErrArraySize, s.LocFrom(begin))
	}
	if d.Where != nil && mask.CompoundMask().DoCheck() {
		ok, _ := in.Ev.EvalPred(d.Where, bindSeqEnv())
		if !ok {
			pd.SetError(padsrt.ErrWhere, s.LocFrom(begin))
		}
	}
	return arr
}

func (in *Interp) parseEnum(d *dsl.EnumDecl, s *padsrt.Source, mask *padsrt.MaskNode) value.Value {
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

func (in *Interp) parseTypedef(d *dsl.TypedefDecl, s *padsrt.Source, mask *padsrt.MaskNode, args []expr.V) value.Value {
	env := in.bindParams(d.Params, args)
	v := in.parseRefNonOpt(d.Base, s, mask, env)
	if d.Constraint != nil && mask.BaseMask().DoCheck() && v.PD().Nerr == 0 {
		ce := expr.NewEnv(env)
		ce.Bind(d.VarName, expr.FromValue(v))
		ok, _ := in.Ev.EvalPred(d.Constraint, ce)
		if !ok {
			v.PD().SetError(padsrt.ErrConstraint, padsrt.Loc{Begin: s.Pos(), End: s.Pos()})
		}
	}
	return v
}
