package interp

import (
	"pads/internal/dsl"
	"pads/internal/ir"
	"pads/internal/padsrt"
	"pads/internal/sema"
	"pads/internal/telemetry"
	"pads/internal/value"
)

// The bytecode VM is the interpreter's one parse engine. It executes the
// flat IR program (internal/ir) that New lowers once from the checked
// description: base reads dispatch on precompiled ReadOps, literals come
// from the matcher pool, enum members are pre-sorted longest-first, and
// speculative union branches are pre-screened through table-driven
// first-byte classes, and every expression runs as a closure compiled once
// from the lowered expression pool (compile.go) over the Interp's frame
// stack.
//
// Its semantics are pinned against the reference AST walk, a test-only
// oracle (astwalk_test.go) that interprets the checked AST directly with
// none of these fast paths. The conformance tests (vm_conform_test.go:
// the datagen and sample corpora, the generated-code corpora, and
// FuzzVMAgainstInterp over random description/input pairs) demand identical
// values, bit-identical parse descriptors, and identical accumulator output.
// The oracle has no observers; the VM's are pinned on their own:
// TestTraceGolden and TestTraceStats (trace events, field-error and union
// branch counters) and TestProfilerInterpAttribution (profiler node
// attribution).

// noBranch is the histogram key recorded when no union branch (or switch
// case) matched.
const noBranch = "<none>"

// execDecl parses one value of a lowered declaration, opening and closing a
// record window for Precord types and resynchronizing a damaged record at
// its boundary (panic mode). win is the frame slot where the declaration's
// window starts, its parameters already bound there.
func (in *Interp) execDecl(decl ir.DeclID, s *padsrt.Source, mask *padsrt.MaskNode, win int) value.Value {
	p := in.prog
	di := &p.Decls[decl]
	root := di.Root
	n := &p.Nodes[root]
	if n.Flags&ir.FRecord != 0 && !s.InRecord() {
		ok, err := s.BeginRecord()
		if err != nil {
			v := in.leaves.void(di.Name)
			v.PD().SetError(padsrt.ErrIO, padsrt.Loc{Begin: s.Pos(), End: s.Pos()})
			return v
		}
		if !ok {
			v := in.leaves.void(di.Name)
			v.PD().SetError(padsrt.ErrAtEOF, padsrt.Loc{Begin: s.Pos(), End: s.Pos()})
			return v
		}
		recBegin := s.Pos()
		if in.Prof != nil {
			in.Prof.BeginRecord(di.Name, recBegin.Byte)
		}
		in.trace(telemetry.EvRecordBegin, di.Name, s)
		v := in.execBody(root, s, mask, win, di)
		pd := v.PD()
		if s.RecordTruncated() {
			pd.SetError(padsrt.ErrRecordTooLong, padsrt.Loc{Begin: recBegin, End: s.Pos()})
		}
		if pd.Nerr > 0 && !s.AtEOR() {
			begin := s.Pos()
			if skipped := s.SkipToEOR(); skipped > 0 {
				pd.State = padsrt.Panicking
				pd.Nerr++
				in.traceSpan(telemetry.EvError, di.Name, "", begin, s, padsrt.ErrPanicSkipped)
			}
		}
		s.EndRecord(pd)
		if in.Prof != nil {
			in.Prof.EndRecord(s.Pos().Byte, pd.Nerr > 0)
		}
		in.traceSpan(telemetry.EvRecordEnd, di.Name, "", recBegin, s, pd.ErrCode)
		return v
	}
	return in.execBody(root, s, mask, win, di)
}

// execBody parses the body of a declaration node. A frame window is opened
// only for declarations that evaluate expressions (ir.FNeedEnv); own is the
// window slot of the declaration's first own binding (after its
// parameters; sema.Binding lays the window out), or -1 when there is no
// window and nothing is bound.
func (in *Interp) execBody(id ir.NodeID, s *padsrt.Source, mask *padsrt.MaskNode, win int, di *ir.DeclInfo) value.Value {
	n := &in.prog.Nodes[id]
	if n.Flags&ir.FNeedEnv == 0 {
		return in.execNode(id, s, mask, -1, di)
	}
	f := &in.fr
	base, top := f.base, f.top
	f.reserve(win + int(di.Frame))
	f.base, f.top = win, win+int(di.Frame)
	v := in.execNode(id, s, mask, int32(len(di.Params)), di)
	f.base, f.top = base, top
	return v
}

func (in *Interp) execNode(id ir.NodeID, s *padsrt.Source, mask *padsrt.MaskNode, own int32, di *ir.DeclInfo) value.Value {
	n := &in.prog.Nodes[id]
	switch n.Op {
	case ir.OpStruct:
		return in.execStruct(id, s, mask, own)
	case ir.OpUnion:
		return in.execUnion(n, s, mask, own)
	case ir.OpSwitch:
		return in.execSwitch(n, s, mask, own)
	case ir.OpArray:
		return in.execArray(n, s, mask, own)
	case ir.OpEnum:
		return in.execEnum(n, s)
	case ir.OpTypedef:
		return in.execTypedef(n, s, mask, own)
	}
	v := in.leaves.void(di.Name)
	v.PD().SetError(padsrt.ErrInternal, padsrt.Loc{})
	return v
}

// matchLit matches a pooled literal.
func (in *Interp) matchLit(l *ir.Lit, s *padsrt.Source) padsrt.ErrCode {
	switch l.Kind {
	case dsl.CharLit:
		return padsrt.MatchChar(s, l.Char)
	case dsl.StrLit:
		return padsrt.MatchString(s, l.Str)
	case dsl.RegexpLit:
		return padsrt.MatchRegexp(s, l.Re)
	case dsl.EORLit:
		return padsrt.MatchEOR(s)
	}
	return padsrt.MatchEOF(s)
}

// execRef parses a type-reference node (OpOpt, OpBase, or OpCall).
// Argument expressions evaluate in the current frame window.
func (in *Interp) execRef(id ir.NodeID, s *padsrt.Source, mask *padsrt.MaskNode) value.Value {
	p := in.prog
	n := &p.Nodes[id]
	switch n.Op {
	case ir.OpBase:
		return in.execBase(&p.Bases[n.A], s, mask)
	case ir.OpCall:
		// The callee's window starts at the top of the stack; its
		// parameters are evaluated straight into its first slots.
		f := &in.fr
		win := f.top
		if n.B != ir.None {
			list := p.Cases[n.B]
			f.reserve(win + len(list))
			f.top = win + len(list)
			for i, eid := range list {
				av, ok := in.code.vals[eid](f)
				if !ok {
					f.top = win
					v := in.leaves.void(n.Name)
					v.PD().SetError(padsrt.ErrBadParam, padsrt.Loc{Begin: s.Pos(), End: s.Pos()})
					return v
				}
				f.slots[win+i] = av
			}
			f.top = win
		}
		return in.execDecl(n.A, s, mask, win)
	case ir.OpOpt:
		child := n.A
		opt := &value.Opt{Common: value.NewCommon(p.OptTypes[id])}
		// Trial protection by tier (the generated code makes the same
		// moves): an atomic inner type consumes nothing on failure, so the
		// trial needs no checkpoint; a rewindable one consumes only by
		// advancing the cursor in-record, so a Mark/Rewind pair suffices;
		// everything else pays a full checkpoint.
		flags := p.Nodes[child].Flags
		atomic := flags&ir.FAtomic != 0
		rewind := flags&ir.FRewind != 0
		var mark int
		switch {
		case atomic:
		case rewind:
			mark = s.Mark()
		default:
			s.Checkpoint()
		}
		v := in.execRef(child, s, mask)
		if v.PD().Nerr == 0 {
			if !atomic && !rewind {
				s.Commit()
			}
			opt.Present = true
			opt.Val = v
			return opt
		}
		switch {
		case atomic:
		case rewind:
			s.Rewind(mark)
		default:
			s.Restore()
		}
		opt.Present = false
		return opt
	}
	v := in.leaves.void(n.Name)
	v.PD().SetError(padsrt.ErrInternal, padsrt.Loc{Begin: s.Pos(), End: s.Pos()})
	return v
}

func (in *Interp) execStruct(id ir.NodeID, s *padsrt.Source, mask *padsrt.MaskNode, own int32) value.Value {
	p := in.prog
	n := &p.Nodes[id]
	st := newStruct(n.Name, int(n.D))
	pd := st.PD()
	slot := own // the next field's window slot
	for _, kid := range p.KidsOf(n) {
		k := &p.Nodes[kid]
		if k.Op == ir.OpLit {
			begin := s.Pos()
			if code := in.matchLit(&p.Lits[k.A], s); code != padsrt.ErrNone {
				pd.SetError(code, s.LocFrom(begin))
				if pd.State == padsrt.Normal {
					pd.State = padsrt.Partial
				}
				in.traceSpan(telemetry.EvError, n.Name, "", begin, s, code)
			}
			continue
		}
		fmask := mask.Field(k.Name)
		var fieldPath string
		var fieldBegin padsrt.Pos
		if in.observing() {
			in.path = append(in.path, k.Name)
			fieldPath = in.pathString()
			fieldBegin = s.Pos()
			in.trace(telemetry.EvFieldEnter, fieldPath, s)
		}
		profOpen := in.Prof.Sampling()
		if profOpen {
			in.Prof.Enter(k.Name, s.Pos().Byte)
		}
		fv := in.execRef(k.A, s, fmask)
		if own >= 0 {
			// Bound before its own constraint, which reads it under the
			// same name; fields are bound whether or not they parsed.
			in.fr.setRef(slot, fv)
			slot++
		}
		if k.B != ir.None && fmask.BaseMask().DoCheck() && fv.PD().Nerr == 0 {
			if !in.code.preds[k.B](&in.fr) {
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
		st.Fields = append(st.Fields, fv)
	}
	if n.C != ir.None && mask.CompoundMask().DoCheck() {
		if !in.code.preds[n.C](&in.fr) {
			pd.SetError(padsrt.ErrWhere, padsrt.Loc{Begin: s.Pos(), End: s.Pos()})
		}
	}
	// Names is set once the fields are all in, so a struct never shows
	// more names than fields.
	st.Names = p.FieldNames[id]
	return st
}

// execBranch parses one union branch or switch case (an OpField node) with
// its constraint, which always runs when checking is on: constraints decide
// which branch matches. The branch value is bound in the window slot own.
func (in *Interp) execBranch(k *ir.Node, s *padsrt.Source, mask *padsrt.MaskNode, own int32) value.Value {
	fmask := mask.Field(k.Name)
	bv := in.execRef(k.A, s, fmask)
	if k.B != ir.None && bv.PD().Nerr == 0 && fmask.BaseMask().DoCheck() {
		in.fr.setRef(own, bv)
		if !in.code.preds[k.B](&in.fr) {
			bv.PD().SetError(padsrt.ErrConstraint, padsrt.Loc{Begin: s.Pos(), End: s.Pos()})
		}
	}
	return bv
}

func (in *Interp) execUnion(n *ir.Node, s *padsrt.Source, mask *padsrt.MaskNode, own int32) value.Value {
	p := in.prog
	un := &value.Union{Common: value.NewCommon(n.Name)}
	pd := un.PD()
	begin := s.Pos()

	// First-byte screening is a pure strength reduction — a skipped branch
	// is one whose trial parse provably fails — but it elides the
	// checkpoint/attempt activity observability contracts describe, so it
	// only arms when nothing is watching and no speculation limits could
	// make the elided checkpoints observable.
	screen := in.Tracer == nil && in.Stats == nil && in.Prof == nil &&
		s.Stats() == nil && s.Prof() == nil && !s.SpecLimited()
	var next byte
	var haveNext bool
	if screen {
		next, haveNext = s.PeekByte()
	}

	for i, kid := range p.KidsOf(n) {
		k := &p.Nodes[kid]
		if screen && k.D != ir.None && (!p.ClassASCII[k.D] || s.Coding() == padsrt.ASCII) {
			if !haveNext || !p.Classes[k.D].Has(next) {
				continue // no byte this branch could start from
			}
		}
		flags := p.Nodes[k.A].Flags
		atomic := flags&ir.FAtomic != 0 && k.B == ir.None
		rewind := flags&ir.FRewind != 0 && k.B == ir.None
		var mark int
		switch {
		case atomic:
		case rewind:
			mark = s.Mark()
		default:
			s.Checkpoint()
		}
		if in.Tracer != nil {
			in.Tracer.Emit(telemetry.Event{
				Ev: telemetry.EvBranchAttempt, Name: n.Name, Branch: k.Name,
				Off: begin.Byte, Rec: begin.Record,
			})
		}
		profOpen := in.Prof.Sampling()
		if profOpen {
			in.Prof.Enter(k.Name, s.Pos().Byte)
		}
		bv := in.execBranch(k, s, mask, own)
		if bv.PD().Nerr == 0 {
			if !atomic && !rewind {
				s.Commit()
			}
			if profOpen {
				in.Prof.Exit(s.Pos().Byte, false)
			}
			un.Tag = k.Name
			un.TagIdx = i
			un.Val = bv
			if in.Stats != nil {
				in.Stats.UnionChoice(n.Name, k.Name)
			}
			in.traceSpan(telemetry.EvBranchSelect, n.Name, k.Name, begin, s, padsrt.ErrNone)
			return un
		}
		if profOpen {
			in.Prof.ExitSpeculative(s.Pos().Byte)
		}
		in.traceSpan(telemetry.EvBranchBacktrack, n.Name, k.Name, begin, s, bv.PD().ErrCode)
		switch {
		case atomic:
		case rewind:
			s.Rewind(mark)
		default:
			s.Restore()
		}
	}
	pd.SetError(padsrt.ErrUnionMatch, padsrt.Loc{Begin: begin, End: s.Pos()})
	if in.Stats != nil {
		in.Stats.UnionChoice(n.Name, noBranch)
	}
	in.traceSpan(telemetry.EvError, n.Name, "", begin, s, padsrt.ErrUnionMatch)
	return un
}

func (in *Interp) execSwitch(n *ir.Node, s *padsrt.Source, mask *padsrt.MaskNode, own int32) value.Value {
	p := in.prog
	un := &value.Union{Common: value.NewCommon(n.Name)}
	pd := un.PD()
	begin := s.Pos()

	sel, ok := in.code.vals[n.C](&in.fr)
	if !ok {
		pd.SetError(padsrt.ErrBadParam, padsrt.Loc{Begin: begin, End: begin})
		return un
	}
	kids := p.KidsOf(n)
	var chosen *ir.Node
	for _, kid := range kids {
		k := &p.Nodes[kid]
		if k.D == ir.None {
			continue // Pdefault; only taken when no value matches
		}
		for _, eid := range p.Cases[k.D] {
			if vv, ok := in.code.vals[eid](&in.fr); ok && equal(sel, vv) {
				chosen = k
				break
			}
		}
		if chosen != nil {
			break
		}
	}
	if chosen == nil && n.D != ir.None {
		chosen = &p.Nodes[kids[n.D]]
	}
	if chosen == nil {
		pd.SetError(padsrt.ErrUnionTag, padsrt.Loc{Begin: begin, End: begin})
		if in.Stats != nil {
			in.Stats.UnionChoice(n.Name, noBranch)
		}
		in.traceSpan(telemetry.EvError, n.Name, "", begin, s, padsrt.ErrUnionTag)
		return un
	}
	profOpen := in.Prof.Sampling()
	if profOpen {
		in.Prof.Enter(chosen.Name, s.Pos().Byte)
	}
	bv := in.execBranch(chosen, s, mask, own)
	if profOpen {
		in.Prof.Exit(s.Pos().Byte, bv.PD().Nerr > 0)
	}
	un.Tag = chosen.Name
	un.Val = bv
	pd.AddChildErrors(bv.PD(), padsrt.ErrStructField)
	if in.Stats != nil {
		in.Stats.UnionChoice(n.Name, chosen.Name)
	}
	in.traceSpan(telemetry.EvBranchSelect, n.Name, chosen.Name, begin, s, bv.PD().ErrCode)
	return un
}

func (in *Interp) execArray(n *ir.Node, s *padsrt.Source, mask *padsrt.MaskNode, own int32) value.Value {
	p := in.prog
	spec := &p.Arrays[n.A]
	arr := &value.Array{Common: value.NewCommon(n.Name)}
	pd := arr.PD()
	begin := s.Pos()
	f := &in.fr

	// A size that fails to evaluate sets no bound; one that evaluates to
	// something toInt rejects is 0.
	var minSize, maxSize int64 = -1, -1
	if spec.HasMin {
		if spec.MinSize.IsConst {
			minSize = spec.MinSize.Const
		} else if v, ok := in.code.vals[spec.MinSize.Expr](f); ok {
			minSize, _ = toInt(v)
		}
	}
	if spec.HasMax {
		if spec.MaxSize.IsConst {
			maxSize = spec.MaxSize.Const
		} else if v, ok := in.code.vals[spec.MaxSize.Expr](f); ok {
			maxSize, _ = toInt(v)
		}
	}

	elemMask := mask.ElemMask()
	// bindSeq binds elts and length (window slots own, own+1) for the
	// array's predicates; elt is own+2.
	bindSeq := func() {
		f.setRef(own, arr)
		f.setInt(own+1, int64(len(arr.Elems)))
	}

	for {
		if maxSize >= 0 && int64(len(arr.Elems)) >= maxSize {
			break
		}
		if spec.EndedPred != ir.None {
			bindSeq()
			if in.code.preds[spec.EndedPred](f) {
				break
			}
		}
		switch {
		case spec.TermEOR:
			if s.AtEOR() {
				goto done
			}
		case spec.TermEOF:
			if s.AtEOF() {
				goto done
			}
		case spec.Term != ir.None:
			// A literal terminator is consumed by the array. Char and
			// string matchers consume nothing on failure, so only regexp
			// terminators need the checkpoint.
			lit := &p.Lits[spec.Term]
			if lit.Kind == dsl.RegexpLit {
				s.Checkpoint()
				if in.matchLit(lit, s) == padsrt.ErrNone {
					s.Commit()
					goto done
				}
				s.Restore()
			} else if in.matchLit(lit, s) == padsrt.ErrNone {
				goto done
			}
		}
		if spec.ElemIsRecord && !s.InRecord() {
			if !s.More() {
				break
			}
		} else if s.AtEOR() || (!s.InRecord() && s.AtEOF()) {
			break
		}
		{
			iterBegin := s.Pos()
			if len(arr.Elems) > 0 && spec.Sep != ir.None {
				sepBegin := s.Pos()
				if code := in.matchLit(&p.Lits[spec.Sep], s); code != padsrt.ErrNone {
					pd.SetError(padsrt.ErrArraySep, s.LocFrom(sepBegin))
					break
				}
			}
			posBefore := s.Pos()
			profOpen := in.Prof.Sampling()
			if profOpen {
				in.Prof.Enter("[]", posBefore.Byte)
			}
			ev := in.execRef(n.B, s, elemMask)
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
					// A clean zero-width element in an unbounded array
					// would repeat forever.
					break
				}
			}
			if spec.LastPred != ir.None {
				bindSeq()
				f.setRef(own+2, ev)
				if in.code.preds[spec.LastPred](f) {
					break
				}
			}
		}
	}
done:

	if minSize >= 0 && int64(len(arr.Elems)) < minSize && mask.CompoundMask().DoCheck() {
		pd.SetError(padsrt.ErrArraySize, s.LocFrom(begin))
	}
	if spec.Where != ir.None && mask.CompoundMask().DoCheck() {
		bindSeq()
		if !in.code.preds[spec.Where](f) {
			pd.SetError(padsrt.ErrWhere, s.LocFrom(begin))
		}
	}
	return arr
}

func (in *Interp) execEnum(n *ir.Node, s *padsrt.Source) value.Value {
	p := in.prog
	spec := &p.Enums[n.A]
	en := in.leaves.enums.next()
	en.Type, en.Index = n.Name, -1
	begin := s.Pos()
	// Alts are pre-sorted longest-repr first: the first match is what the
	// reference walk's best-match scan would pick.
	w := s.Peek(spec.MaxLen)
	for i := range spec.Alts {
		a := &spec.Alts[i]
		if len(w) >= len(a.Repr) && string(w[:len(a.Repr)]) == a.Repr {
			s.Skip(len(a.Repr))
			en.Member = a.Name
			en.Index = a.Index
			return en
		}
	}
	en.PD().SetError(padsrt.ErrInvalidEnum, padsrt.Loc{Begin: begin, End: begin})
	return en
}

func (in *Interp) execTypedef(n *ir.Node, s *padsrt.Source, mask *padsrt.MaskNode, own int32) value.Value {
	v := in.execRef(n.A, s, mask)
	if n.B != ir.None && mask.BaseMask().DoCheck() && v.PD().Nerr == 0 {
		in.fr.setRef(own, v)
		if !in.code.preds[n.B](&in.fr) {
			v.PD().SetError(padsrt.ErrConstraint, padsrt.Loc{Begin: s.Pos(), End: s.Pos()})
		}
	}
	return v
}

// execBase parses one base value from its resolved spec: no registry lookup,
// no argument re-resolution when the description supplied constants.
func (in *Interp) execBase(b *ir.BaseSpec, s *padsrt.Source, mask *padsrt.MaskNode) value.Value {
	begin := s.Pos()
	name := b.Info.Name
	fail := func(v value.Value, code padsrt.ErrCode) value.Value {
		v.PD().SetError(code, s.LocFrom(begin))
		return v
	}
	// Argument resolution, folded at lowering time when constant.
	intArg := func(a ir.Arg) (int64, padsrt.ErrCode) {
		if a.IsConst {
			if a.Const < 0 {
				return 0, padsrt.ErrBadParam
			}
			return a.Const, padsrt.ErrNone
		}
		n, ok := in.code.ints[a.Expr](&in.fr)
		if !ok || n < 0 {
			return 0, padsrt.ErrBadParam
		}
		return n, padsrt.ErrNone
	}
	charArg := func(a ir.Arg) (byte, padsrt.ErrCode) {
		if a.IsConst {
			return byte(a.Const), padsrt.ErrNone
		}
		v, ok := in.code.vals[a.Expr](&in.fr)
		if !ok || v.k != sema.KChar {
			return 0, padsrt.ErrBadParam
		}
		return byte(v.i), padsrt.ErrNone
	}

	switch b.Read {
	case ir.RChar, ir.RAChar, ir.REChar, ir.RBChar:
		v := in.leaves.chars.next()
		v.Type = name
		if b.BadParam {
			return fail(v, padsrt.ErrBadParam)
		}
		var c byte
		var code padsrt.ErrCode
		switch b.Read {
		case ir.RAChar:
			c, code = padsrt.ReadAChar(s)
		case ir.REChar:
			c, code = padsrt.ReadEChar(s)
		case ir.RBChar:
			c, code = padsrt.ReadBChar(s)
		default:
			c, code = padsrt.ReadChar(s)
		}
		if code != padsrt.ErrNone {
			return fail(v, code)
		}
		v.Val = c
		return v

	case ir.RUint, ir.RAUint, ir.REUint, ir.RBUint, ir.RUintFW, ir.RAUintFW:
		v := in.leaves.uints.next()
		v.Type, v.Bits = name, b.Bits
		if b.BadParam {
			return fail(v, padsrt.ErrBadParam)
		}
		var u uint64
		var code padsrt.ErrCode
		switch b.Read {
		case ir.RAUint:
			u, code = padsrt.ReadAUint(s, b.Bits)
		case ir.REUint:
			u, code = padsrt.ReadEUint(s, b.Bits)
		case ir.RBUint:
			u, code = padsrt.ReadBUint(s, b.Bits/8)
		case ir.RUintFW, ir.RAUintFW:
			w, c := intArg(b.Width)
			if c != padsrt.ErrNone {
				return fail(v, c)
			}
			if b.Read == ir.RAUintFW {
				u, code = padsrt.ReadAUintFW(s, int(w), b.Bits)
			} else {
				u, code = padsrt.ReadUintFW(s, int(w), b.Bits)
			}
		default:
			u, code = padsrt.ReadUint(s, b.Bits)
		}
		if code != padsrt.ErrNone {
			return fail(v, code)
		}
		v.Val = u
		return v

	case ir.RInt, ir.RAInt, ir.REInt, ir.RBInt, ir.RAIntFW, ir.RBCD, ir.RZoned:
		v := in.leaves.ints.next()
		v.Type, v.Bits = name, b.Bits
		if b.BadParam {
			return fail(v, padsrt.ErrBadParam)
		}
		var i int64
		var code padsrt.ErrCode
		switch b.Read {
		case ir.RAInt:
			i, code = padsrt.ReadAInt(s, b.Bits)
		case ir.REInt:
			i, code = padsrt.ReadEInt(s, b.Bits)
		case ir.RBInt:
			i, code = padsrt.ReadBInt(s, b.Bits/8)
		case ir.RBCD, ir.RZoned, ir.RAIntFW:
			w, c := intArg(b.Width)
			if c != padsrt.ErrNone {
				return fail(v, c)
			}
			switch b.Read {
			case ir.RBCD:
				i, code = padsrt.ReadBCD(s, int(w))
			case ir.RZoned:
				i, code = padsrt.ReadZoned(s, int(w))
			default:
				i, code = padsrt.ReadAIntFW(s, int(w), b.Bits)
			}
		default:
			i, code = padsrt.ReadInt(s, b.Bits)
		}
		if code != padsrt.ErrNone {
			return fail(v, code)
		}
		v.Val = i
		return v

	case ir.RAFloat:
		v := in.leaves.floats.next()
		v.Type, v.Bits = name, b.Bits
		f, code := padsrt.ReadAFloat(s, b.Bits)
		if code != padsrt.ErrNone {
			return fail(v, code)
		}
		v.Val = f
		return v

	case ir.RStringTerm, ir.RStringEOR, ir.RStringFW, ir.RStringME, ir.RStringSE, ir.RHostname, ir.RZip:
		v := in.leaves.strs.next()
		v.Type = name
		if b.BadParam {
			return fail(v, padsrt.ErrBadParam)
		}
		var str string
		var code padsrt.ErrCode
		switch b.Read {
		case ir.RStringTerm:
			term, c := charArg(b.Term)
			if c != padsrt.ErrNone {
				return fail(v, c)
			}
			str, code = padsrt.ReadStringTerm(s, term)
		case ir.RStringEOR:
			str, code = padsrt.ReadStringEOR(s)
		case ir.RStringFW:
			w, c := intArg(b.Width)
			if c != padsrt.ErrNone {
				return fail(v, c)
			}
			str, code = padsrt.ReadStringFW(s, int(w))
		case ir.RStringME:
			str, code = padsrt.ReadStringME(s, b.Re)
		case ir.RStringSE:
			str, code = padsrt.ReadStringSE(s, b.Re)
		case ir.RHostname:
			str, code = padsrt.ReadHostname(s)
		default:
			str, code = padsrt.ReadZip(s)
		}
		if code != padsrt.ErrNone {
			return fail(v, code)
		}
		v.Val = str
		return v

	case ir.RDate:
		v := in.leaves.dates.next()
		v.Type = name
		var term byte
		if b.TermChar {
			t, c := charArg(b.Term)
			if c != padsrt.ErrNone {
				return fail(v, c)
			}
			term = t
		}
		sec, raw, code := padsrt.ReadDate(s, term)
		v.Raw = raw
		if code != padsrt.ErrNone {
			return fail(v, code)
		}
		v.Sec = sec
		return v

	case ir.RIP:
		v := in.leaves.ips.next()
		v.Type = name
		ip, code := padsrt.ReadIP(s)
		if code != padsrt.ErrNone {
			return fail(v, code)
		}
		v.Val = ip
		return v

	case ir.RVoid:
		return in.leaves.void(name)
	}
	return fail(in.leaves.void(name), padsrt.ErrInternal)
}
