package ir

import (
	"fmt"

	"pads/internal/dsl"
	"pads/internal/expr"
	"pads/internal/sema"
)

// Lower compiles a checked description into its flat IR program. Lowering
// never consults the AST again at parse time: every registry lookup, literal
// compilation, branch ordering, and foldable constant is resolved here.
func Lower(desc *sema.Desc) (*Program, error) {
	p := &Program{Desc: desc, byName: make(map[string]DeclID)}
	l := &lowerer{p: p, x: &exprLowerer{p: p, ev: expr.New(desc), funcID: make(map[string]int32)}}
	l.x.lowerFuncs()

	// Declaration table first, in source order, so forward and recursive
	// references resolve to stable DeclIDs.
	for _, d := range desc.Program.Decls {
		if _, ok := d.(*dsl.FuncDecl); ok {
			continue
		}
		p.byName[d.DeclName()] = DeclID(len(p.Decls))
		p.Decls = append(p.Decls, DeclInfo{Name: d.DeclName(), Root: None, Params: declParams(d), Frame: int32(desc.Frames[d])})
	}
	for _, d := range desc.Program.Decls {
		if _, ok := d.(*dsl.FuncDecl); ok {
			continue
		}
		id := p.byName[d.DeclName()]
		root, err := l.lowerDecl(d)
		if err != nil {
			return nil, dsl.Errorf(d.DeclPos(), "%v", err)
		}
		p.Decls[id].Root = root
	}

	// Analysis passes over the finished node array: trial-protection
	// tiers, folded widths, per-declaration environment needs, and
	// first-byte classes for speculative union branches.
	l.foldTrialFlags()
	l.foldWidths()
	l.foldNeedEnv()
	l.foldFirstClasses()
	return p, nil
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

type lowerer struct {
	p *Program
	x *exprLowerer
}

func annotFlags(d dsl.Decl) Flags {
	an := sema.Annot(d)
	var f Flags
	if an.IsRecord {
		f |= FRecord
	}
	if an.IsSource {
		f |= FSource
	}
	return f
}

func (l *lowerer) lowerDecl(d dsl.Decl) (NodeID, error) {
	switch d := d.(type) {
	case *dsl.StructDecl:
		return l.lowerStruct(d)
	case *dsl.UnionDecl:
		return l.lowerUnion(d)
	case *dsl.ArrayDecl:
		return l.lowerArray(d)
	case *dsl.EnumDecl:
		return l.lowerEnum(d)
	case *dsl.TypedefDecl:
		return l.lowerTypedef(d)
	}
	return None, fmt.Errorf("ir: cannot lower %T", d)
}

func (l *lowerer) lowerStruct(d *dsl.StructDecl) (NodeID, error) {
	p := l.p
	kids := make([]NodeID, 0, len(d.Items))
	var names []string
	for _, it := range d.Items {
		if it.Lit != nil {
			lit, err := l.lowerLit(it.Lit)
			if err != nil {
				return None, err
			}
			kids = append(kids, p.addNode(Node{Op: OpLit, A: lit, B: None, C: None, D: None}))
			continue
		}
		kid, err := l.lowerField(it.Field)
		if err != nil {
			return None, err
		}
		kids = append(kids, kid)
		names = append(names, it.Field.Name)
	}
	start := int32(len(p.Kids))
	p.Kids = append(p.Kids, kids...)
	id := p.addNode(Node{
		Op: OpStruct, Flags: annotFlags(d), Name: d.Name,
		A: start, B: int32(len(kids)), C: l.addExpr(d.Where), D: int32(len(names)),
	})
	p.FieldNames[id] = names[:len(names):len(names)]
	return id, nil
}

func (l *lowerer) lowerField(f *dsl.Field) (NodeID, error) {
	p := l.p
	child, err := l.lowerRef(f.Type)
	if err != nil {
		return None, err
	}
	return p.addNode(Node{
		Op: OpField, Name: f.Name,
		A: child, B: l.addExpr(f.Constraint), C: p.addRef(f.Type), D: None,
	}), nil
}

func (l *lowerer) lowerUnion(d *dsl.UnionDecl) (NodeID, error) {
	p := l.p
	if d.Switch != nil {
		kids := make([]NodeID, 0, len(d.Switch.Cases))
		defaultKid := None
		for ci := range d.Switch.Cases {
			c := &d.Switch.Cases[ci]
			kid, err := l.lowerField(&c.Field)
			if err != nil {
				return None, err
			}
			if len(c.Values) == 0 {
				defaultKid = int32(len(kids))
			} else {
				vals := make(CaseList, 0, len(c.Values))
				for _, vx := range c.Values {
					vals = append(vals, l.addExpr(vx))
				}
				p.Cases = append(p.Cases, vals)
				p.Nodes[kid].D = int32(len(p.Cases) - 1)
			}
			kids = append(kids, kid)
		}
		start := int32(len(p.Kids))
		p.Kids = append(p.Kids, kids...)
		return p.addNode(Node{
			Op: OpSwitch, Flags: annotFlags(d), Name: d.Name,
			A: start, B: int32(len(kids)), C: l.addExpr(d.Switch.Selector), D: defaultKid,
		}), nil
	}
	kids := make([]NodeID, 0, len(d.Branches))
	for i := range d.Branches {
		kid, err := l.lowerField(&d.Branches[i])
		if err != nil {
			return None, err
		}
		kids = append(kids, kid)
	}
	start := int32(len(p.Kids))
	p.Kids = append(p.Kids, kids...)
	return p.addNode(Node{
		Op: OpUnion, Flags: annotFlags(d), Name: d.Name,
		A: start, B: int32(len(kids)), C: None, D: None,
	}), nil
}

func (l *lowerer) lowerArray(d *dsl.ArrayDecl) (NodeID, error) {
	p := l.p
	elem, err := l.lowerRef(d.Elem)
	if err != nil {
		return None, err
	}
	spec := ArraySpec{
		Sep: None, Term: None,
		LastPred:  l.addExpr(d.LastPred),
		EndedPred: l.addExpr(d.EndedPred),
		Where:     l.addExpr(d.Where),
	}
	if d.MinSize != nil {
		spec.HasMin = true
		spec.MinSize = l.constArg(d.MinSize)
	}
	if d.MaxSize != nil {
		spec.HasMax = true
		spec.MaxSize = l.constArg(d.MaxSize)
	}
	if d.Sep != nil {
		if spec.Sep, err = l.lowerLit(d.Sep); err != nil {
			return None, err
		}
	}
	if d.Term != nil {
		switch d.Term.Kind {
		case dsl.EORLit:
			spec.TermEOR = true
		case dsl.EOFLit:
			spec.TermEOF = true
		default:
			if spec.Term, err = l.lowerLit(d.Term); err != nil {
				return None, err
			}
		}
	}
	if ed, ok := p.Desc.Types[d.Elem.Name]; ok && sema.Annot(ed).IsRecord {
		spec.ElemIsRecord = true
	}
	p.Arrays = append(p.Arrays, spec)
	// The elem ref is pooled so the backend can type the element.
	return p.addNode(Node{
		Op: OpArray, Flags: annotFlags(d), Name: d.Name,
		A: int32(len(p.Arrays) - 1), B: elem, C: p.addRef(d.Elem), D: None,
	}), nil
}

func (l *lowerer) lowerEnum(d *dsl.EnumDecl) (NodeID, error) {
	p := l.p
	alts, maxLen := sortAlts(d.Members)
	p.Enums = append(p.Enums, EnumSpec{Alts: alts, MaxLen: maxLen})
	return p.addNode(Node{
		Op: OpEnum, Flags: annotFlags(d), Name: d.Name,
		A: int32(len(p.Enums) - 1), B: None, C: None, D: None,
	}), nil
}

func (l *lowerer) lowerTypedef(d *dsl.TypedefDecl) (NodeID, error) {
	p := l.p
	child, err := l.lowerRef(d.Base)
	if err != nil {
		return None, err
	}
	return p.addNode(Node{
		Op: OpTypedef, Flags: annotFlags(d), Name: d.VarName,
		A: child, B: l.addExpr(d.Constraint), C: p.addRef(d.Base), D: None,
	}), nil
}

// lowerRef lowers a type reference use site: a Popt wrapper, a resolved base
// read, or a call to a declared type.
func (l *lowerer) lowerRef(tr dsl.TypeRef) (NodeID, error) {
	p := l.p
	if tr.Opt {
		inner := tr
		inner.Opt = false
		child, err := l.lowerRef(inner)
		if err != nil {
			return None, err
		}
		id := p.addNode(Node{Op: OpOpt, Name: tr.Name, A: child, B: p.addRef(tr), C: None, D: None})
		p.OptTypes[id] = "Popt " + tr.Name
		return id, nil
	}
	if b := sema.LookupBase(tr.Name); b != nil {
		return l.lowerBase(b, tr)
	}
	id, ok := p.byName[tr.Name]
	if !ok {
		return None, fmt.Errorf("ir: unknown type %s", tr.Name)
	}
	args := None
	if len(tr.Args) > 0 {
		list := make(CaseList, 0, len(tr.Args))
		for _, a := range tr.Args {
			list = append(list, l.addExpr(a))
		}
		p.Cases = append(p.Cases, list)
		args = int32(len(p.Cases) - 1)
	}
	return p.addNode(Node{Op: OpCall, Name: tr.Name, A: id, B: args, C: p.addRef(tr), D: None}), nil
}

// lowerBase resolves a base-type reference into its ReadOp and folded
// arguments: the per-value registry dispatch of the tree-walking interpreter
// done once.
func (l *lowerer) lowerBase(b *sema.BaseInfo, tr dsl.TypeRef) (NodeID, error) {
	p := l.p
	spec := BaseSpec{Info: b, Bits: b.Bits, Term: Arg{Expr: None}, Width: Arg{Expr: None}}

	width := func(i int) {
		if i >= len(tr.Args) {
			spec.BadParam = true
			return
		}
		spec.HasWidth = true
		spec.Width = l.constArg(tr.Args[i])
	}
	term := func(i int) {
		if i >= len(tr.Args) {
			spec.BadParam = true
			return
		}
		switch a := tr.Args[i].(type) {
		case *dsl.EORExpr, *dsl.EOFExpr:
			spec.TermChar = false
		case *dsl.CharExpr:
			spec.TermChar = true
			spec.Term = Arg{IsConst: true, Const: int64(a.Val)}
		default:
			// Left to runtime: the interpreter rejects non-char
			// terminator values, so only chars may fold.
			spec.TermChar = true
			spec.Term = Arg{Expr: l.addExpr(tr.Args[i])}
		}
	}

	switch b.Kind {
	case sema.KChar:
		switch b.Coding {
		case "a":
			spec.Read = RAChar
		case "e":
			spec.Read = REChar
		case "b":
			spec.Read = RBChar
		default:
			spec.Read = RChar
		}
	case sema.KUint:
		switch {
		case b.FW && b.Coding == "a":
			spec.Read = RAUintFW
			width(0)
		case b.FW:
			spec.Read = RUintFW
			width(0)
		case b.Coding == "a":
			spec.Read = RAUint
		case b.Coding == "e":
			spec.Read = REUint
		case b.Coding == "b":
			spec.Read = RBUint
		default:
			spec.Read = RUint
		}
	case sema.KInt:
		switch {
		case b.Coding == "bcd":
			spec.Read = RBCD
			width(0)
		case b.Coding == "zoned":
			spec.Read = RZoned
			width(0)
		case b.FW:
			spec.Read = RAIntFW
			width(0)
		case b.Coding == "a":
			spec.Read = RAInt
		case b.Coding == "e":
			spec.Read = REInt
		case b.Coding == "b":
			spec.Read = RBInt
		default:
			spec.Read = RInt
		}
	case sema.KFloat:
		spec.Read = RAFloat
	case sema.KString:
		switch b.Name {
		case "Pstring":
			spec.Read = RStringTerm
			term(0)
			if !spec.TermChar {
				spec.Read = RStringEOR
			}
		case "Pstring_FW":
			spec.Read = RStringFW
			width(0)
		case "Pstring_ME", "Pstring_SE":
			if b.Name == "Pstring_ME" {
				spec.Read = RStringME
			} else {
				spec.Read = RStringSE
			}
			if len(tr.Args) > 0 {
				if rex, ok := tr.Args[0].(*dsl.RegexpExpr); ok {
					spec.Re = p.Desc.Regexps[rex.Src]
				}
			}
			if spec.Re == nil {
				spec.BadParam = true
			}
		case "Phostname":
			spec.Read = RHostname
		case "Pzip":
			spec.Read = RZip
		default:
			return None, fmt.Errorf("ir: unsupported string base %s", b.Name)
		}
	case sema.KDate:
		spec.Read = RDate
		term(0)
	case sema.KIP:
		spec.Read = RIP
	case sema.KVoid:
		spec.Read = RVoid
	default:
		return None, fmt.Errorf("ir: unsupported base kind for %s", b.Name)
	}

	p.Bases = append(p.Bases, spec)
	return p.addNode(Node{
		Op: OpBase, Name: b.Name,
		A: int32(len(p.Bases) - 1), B: None, C: p.addRef(tr), D: None,
	}), nil
}

func (l *lowerer) lowerLit(lit *dsl.Literal) (LitID, error) {
	p := l.p
	out := Lit{Kind: lit.Kind, Char: lit.Char, Str: lit.Str}
	if lit.Kind == dsl.RegexpLit {
		out.Re = p.Desc.Regexps[lit.Str]
		if out.Re == nil {
			return None, fmt.Errorf("ir: regexp /%s/ was not compiled by sema", lit.Str)
		}
	}
	p.Lits = append(p.Lits, out)
	return LitID(len(p.Lits) - 1), nil
}

// ---- analysis passes ----

// Trial-protection tiers for speculative parses (Popt, union branches),
// strongest first. foldTrialFlags assigns each node the strongest tier it
// provably supports; engines protect a trial with the cheapest mechanism
// its tier allows.
const (
	trialNone   = int8(0) // full Checkpoint/Restore required
	trialRewind = int8(1) // Mark/Rewind pair suffices (FRewind)
	trialAtomic = int8(2) // no protection needed (FAtomic)
)

// foldTrialFlags marks constraint-free nodes whose speculative trials need
// less than a full checkpoint. FAtomic: the parse consumes no input on any
// failure path, so the trial needs no protection at all — base reads
// qualify only when their padsrt reader provably leaves the cursor
// untouched on failure (ReadOp.Atomic). FRewind: the parse consumes input
// only by advancing the cursor inside the current record (every base read:
// no record framing, no compaction mid-read), so a Source.Mark/Rewind pair
// restores a failed trial exactly — this covers text integers, which Skip
// the digit run before reporting ErrRange. Compound nodes and calls into
// Precord declarations stay at trialNone: record framing mutates source
// state a bare cursor rewind cannot undo.
func (l *lowerer) foldTrialFlags() {
	memo := make(map[NodeID]int8) // -1 in progress, else trial* tier
	var visit func(id NodeID) int8
	visit = func(id NodeID) int8 {
		if v, ok := memo[id]; ok {
			if v < 0 {
				return trialNone // cycles get no trial shortcut
			}
			return v
		}
		memo[id] = -1
		n := &l.p.Nodes[id]
		tier := trialNone
		switch n.Op {
		case OpBase:
			if l.p.Bases[n.A].Read.Atomic() {
				tier = trialAtomic
			} else {
				tier = trialRewind
			}
		case OpEnum:
			tier = trialAtomic // peeks members, skips only on a match
		case OpTypedef:
			if n.B == None {
				tier = visit(n.A)
			}
		case OpCall:
			root := l.p.Decls[n.A].Root
			if root != None && l.p.Nodes[root].Flags&FRecord == 0 {
				tier = visit(root)
			}
		}
		memo[id] = tier
		switch tier {
		case trialAtomic:
			n.Flags |= FAtomic
		case trialRewind:
			n.Flags |= FRewind
		}
		return tier
	}
	for id := range l.p.Nodes {
		visit(NodeID(id))
	}
}

// foldWidths computes the fixed byte width of every node whose size is
// statically known, enabling constant field offsets (Program.FieldOffset).
func (l *lowerer) foldWidths() {
	p := l.p
	const unknown = int32(-2)
	state := make([]int32, len(p.Nodes))
	for i := range state {
		state[i] = unknown
	}
	var visit func(id NodeID) int32
	visit = func(id NodeID) int32 {
		if state[id] != unknown {
			return state[id]
		}
		state[id] = None // cycles are variable-width
		n := &p.Nodes[id]
		w := None
		switch n.Op {
		case OpLit:
			lit := &p.Lits[n.A]
			switch lit.Kind {
			case dsl.CharLit:
				w = 1
			case dsl.StrLit:
				w = int32(len(lit.Str))
			}
		case OpBase:
			b := &p.Bases[n.A]
			switch b.Read {
			case RChar, RAChar, REChar, RBChar:
				w = 1
			case RBUint, RBInt:
				w = int32(b.Bits / 8)
			case RUintFW, RAUintFW, RAIntFW, RStringFW:
				if b.Width.IsConst {
					w = int32(b.Width.Const)
				}
			case RVoid:
				w = 0
			}
		case OpField, OpTypedef:
			w = visit(n.A)
		case OpStruct:
			total := int32(0)
			ok := true
			for _, kid := range p.KidsOf(n) {
				kw := visit(kid)
				if kw < 0 {
					ok = false
					break
				}
				total += kw
			}
			if ok {
				w = total
			}
		case OpUnion, OpSwitch:
			first := true
			same := int32(None)
			for _, kid := range p.KidsOf(n) {
				kw := visit(kid)
				if first {
					same, first = kw, false
				} else if kw != same {
					same = None
				}
			}
			if !first && same >= 0 {
				w = same
			}
		case OpEnum:
			e := &p.Enums[n.A]
			same := -1
			for _, a := range e.Alts {
				if same == -1 {
					same = len(a.Repr)
				} else if len(a.Repr) != same {
					same = -2
				}
			}
			if same >= 0 {
				w = int32(same)
			}
		case OpCall:
			if root := p.Decls[n.A].Root; root != None {
				w = visit(root)
			}
		}
		state[id] = w
		return w
	}
	for id := range p.Nodes {
		visit(NodeID(id))
	}
	copy(p.Widths, state)
}

// foldNeedEnv marks declarations whose bodies evaluate any expression, so
// the VM can skip building lexical environments everywhere else.
func (l *lowerer) foldNeedEnv() {
	p := l.p
	for di := range p.Decls {
		d := &p.Decls[di]
		if d.Root == None {
			continue
		}
		root := &p.Nodes[d.Root]
		if len(d.Params) > 0 || l.bodyEvals(d.Root) {
			root.Flags |= FNeedEnv
		}
	}
}

// bodyEvals reports whether any node in the declaration body (not crossing
// into called declarations) evaluates a pooled expression at parse time.
func (l *lowerer) bodyEvals(id NodeID) bool {
	p := l.p
	n := &p.Nodes[id]
	switch n.Op {
	case OpStruct:
		if n.C != None {
			return true
		}
		for _, kid := range p.KidsOf(n) {
			if l.bodyEvals(kid) {
				return true
			}
		}
	case OpField:
		return n.B != None || l.bodyEvals(n.A)
	case OpUnion:
		for _, kid := range p.KidsOf(n) {
			if l.bodyEvals(kid) {
				return true
			}
		}
	case OpSwitch:
		return true // the selector always evaluates
	case OpArray:
		a := &p.Arrays[n.A]
		if a.LastPred != None || a.EndedPred != None || a.Where != None ||
			(a.HasMin && !a.MinSize.IsConst) || (a.HasMax && !a.MaxSize.IsConst) {
			return true
		}
		return l.bodyEvals(n.B)
	case OpTypedef:
		return n.B != None || l.bodyEvals(n.A)
	case OpOpt:
		return l.bodyEvals(n.A)
	case OpCall:
		return n.B != None // argument expressions evaluate in this scope
	case OpBase:
		b := &p.Bases[n.A]
		if b.HasWidth && !b.Width.IsConst {
			return true
		}
		if b.TermChar && !b.Term.IsConst {
			return true
		}
	}
	return false
}

// foldFirstClasses attaches a first-byte character class to each speculative
// union branch whose possible successful parses are statically known to
// begin with a bounded byte set. The VM and generated code probe the class
// before committing to a checkpointed trial parse of the branch.
func (l *lowerer) foldFirstClasses() {
	p := l.p
	type firstInfo struct {
		class    Class
		definite bool // false: give up, treat as "any byte"
		nullable bool // can succeed consuming nothing
		ascii    bool // class assumes the ambient coding is ASCII
	}
	memo := make(map[NodeID]firstInfo)
	var visit func(id NodeID) firstInfo
	visit = func(id NodeID) firstInfo {
		if fi, ok := memo[id]; ok {
			return fi
		}
		memo[id] = firstInfo{} // cycles: not definite
		n := &p.Nodes[id]
		var fi firstInfo
		switch n.Op {
		case OpLit:
			lit := &p.Lits[n.A]
			switch lit.Kind {
			case dsl.CharLit:
				fi.definite = true
				fi.class.add(lit.Char)
			case dsl.StrLit:
				if len(lit.Str) > 0 {
					fi.definite = true
					fi.class.add(lit.Str[0])
				}
			}
		case OpBase:
			b := &p.Bases[n.A]
			switch b.Read {
			case RAUint:
				fi.definite = true
				fi.class.addRange('0', '9')
			case RAInt:
				fi.definite = true
				fi.class.addRange('0', '9')
				fi.class.add('-')
				fi.class.add('+')
			case RUint:
				// Default-coded reads dispatch on the ambient coding at
				// parse time; the digit class holds only under ASCII.
				fi.definite = true
				fi.ascii = true
				fi.class.addRange('0', '9')
			case RInt:
				fi.definite = true
				fi.ascii = true
				fi.class.addRange('0', '9')
				fi.class.add('-')
				fi.class.add('+')
			}
		case OpEnum:
			e := &p.Enums[n.A]
			fi.definite = true
			for _, a := range e.Alts {
				if len(a.Repr) == 0 {
					fi.nullable = true
					continue
				}
				fi.class.add(a.Repr[0])
			}
		case OpStruct:
			fi.definite = true
			fi.nullable = true
			for _, kid := range p.KidsOf(n) {
				ki := visit(kid)
				if !ki.definite {
					fi.definite = false
					break
				}
				fi.class.union(&ki.class)
				fi.ascii = fi.ascii || ki.ascii
				if !ki.nullable {
					fi.nullable = false
					break
				}
			}
		case OpUnion, OpSwitch:
			fi.definite = true
			for _, kid := range p.KidsOf(n) {
				ki := visit(kid)
				if !ki.definite {
					fi.definite = false
					break
				}
				fi.class.union(&ki.class)
				fi.ascii = fi.ascii || ki.ascii
				fi.nullable = fi.nullable || ki.nullable
			}
		case OpArray:
			a := &p.Arrays[n.A]
			ei := visit(n.B)
			fi.class = ei.class
			fi.definite = ei.definite
			fi.ascii = ei.ascii
			fi.nullable = ei.nullable || !(a.HasMin && a.MinSize.IsConst && a.MinSize.Const >= 1)
		case OpOpt:
			ci := visit(n.A)
			fi = firstInfo{class: ci.class, definite: ci.definite, nullable: true, ascii: ci.ascii}
		case OpField, OpTypedef:
			fi = visit(n.A)
		case OpCall:
			if root := p.Decls[n.A].Root; root != None {
				fi = visit(root)
			}
		}
		memo[id] = fi
		return fi
	}
	full := func(c *Class) bool {
		return c[0]&c[1]&c[2]&c[3] == ^uint64(0)
	}
	for id := range p.Nodes {
		n := &p.Nodes[id]
		if n.Op != OpUnion {
			continue
		}
		for _, kid := range p.KidsOf(n) {
			fi := visit(kid)
			if fi.definite && !fi.nullable && !full(&fi.class) {
				p.Nodes[kid].D = p.addClass(fi.class, fi.ascii)
			}
		}
	}
}
