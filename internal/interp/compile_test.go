package interp

import (
	"fmt"
	"math"
	"testing"

	"pads/internal/dsl"
	"pads/internal/expr"
	"pads/internal/ir"
	"pads/internal/padsrt"
	"pads/internal/sema"
	"pads/internal/value"
)

// The differential test of the expression compiler: every operator over
// every pairing of operand kinds, evaluated by the compiled closures and by
// the reference evaluator (expr.Evaluator) in the same scope, must give the
// same value or fail alike. The scope is a record's Pwhere clause, so the
// operands are parsed fields of every kind — including an absent Popt, an
// untaken union branch, and an unsigned value above MaxInt64 — literals,
// enum constants and function calls.

const diffDesc = `
Penum color { RED, GREEN, BLUE };
Punion num_or_word { Puint8 n; Pstring(:'|':) w; };
Pstruct pair { Puint8 a; ','; Puint8 b; };
Parray nums { Puint8[] : Psep(',') && Pterm('|'); };
bool deep(Pint32 n) { if (n <= 0) return true; return deep(n - 1); };
Pint32 shadow(Pint32 a) {
	Pint32 x = a;
	if (a > 0) { Pint32 x = 100; x = x + 1; } else { x = 7; }
	Pint32 a = x * 2;
	return a;
};
Pint32 half(Pint32 n) { return n / 2; };
Precord Pstruct k_t {
	Puint64 u; '|'; Puint64 big; '|'; Pint64 i; '|'; Pa_float64 fl; '|'; Pchar c; '|';
	Pstring(:'|':) s; '|'; color e; '|'; Popt Puint32 o; '|'; Popt Puint32 p; '|';
	num_or_word nw; '|'; pair pr; '|'; nums ns; Pip ip; '|'; Pdate(:Peor:) d;
} Pwhere { %s };
`

const diffData = "7|18446744073709551615|-5|2.5|x|hello|GREEN|42||word|3,4|1,2,3|1.2.3.4|2005-10-12\n"

// diffAtoms are the operands: one per kind and case the evaluator
// distinguishes.
var diffAtoms = []string{
	"u", "big", "i", "fl", "c", "s", "e", "o", "p", "ip", "d",
	"nw.n", "nw.w", "pr.a", "ns[1]", "ns[9]", "pr", "ns",
	"RED", "GREEN", "true", "false", "0", "3", "-2", "2.5", "0.0",
	"'x'", "'h'", `"x"`, `"hello"`, `"GREEN"`,
	"deep(3)", "half(i)", "shadow(u)",
}

var diffBinary = []string{"==", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/", "%", "&&", "||"}

// diffRig compiles a description around one Pwhere expression and parses
// diffData with it.
type diffRig struct {
	in    *Interp
	st    *value.Struct
	where ir.ExprID
	src   dsl.Expr
}

func newDiffRig(tb testing.TB, whereSrc string) *diffRig {
	tb.Helper()
	prog, errs := dsl.Parse(fmt.Sprintf(diffDesc, whereSrc))
	if len(errs) > 0 {
		tb.Fatalf("%s: %v", whereSrc, errs[0])
	}
	// Type errors are kept: ill-typed expressions are where the two
	// evaluators' dynamic semantics matter most. Resolution is complete
	// either way.
	desc, _ := sema.Check(prog)
	in, err := New(desc)
	if err != nil {
		tb.Fatalf("%s: %v", whereSrc, err)
	}
	id, _ := in.prog.DeclByName("k_t")
	root := &in.prog.Nodes[in.prog.Decls[id].Root]
	v, err := in.ParseType("k_t", padsrt.NewBytesSource([]byte(diffData)), nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	st := v.(*value.Struct)
	for i, f := range st.Fields {
		if f.PD().Nerr != 0 {
			tb.Fatalf("field %s did not parse: %+v", st.Names[i], *f.PD())
		}
	}
	return &diffRig{in: in, st: st, where: root.C, src: in.prog.Exprs[root.C].Src}
}

// compiled evaluates the Pwhere root with the compiled code in a window
// holding the parsed fields.
func (r *diffRig) compiled() (d dyn, ok bool, pred bool, n int64, nok bool) {
	f := &r.in.fr
	f.base, f.top, f.depth = 0, len(r.st.Fields), 0
	f.reserve(64)
	for i, fv := range r.st.Fields {
		f.setRef(int32(i), fv)
	}
	d, ok = r.in.code.vals[r.where](f)
	pred = r.in.code.preds[r.where](f)
	n, nok = r.in.code.ints[r.where](f)
	return
}

// oracle evaluates the same expression with the reference evaluator.
func (r *diffRig) oracle() (expr.V, error) { return expr.New(r.in.Desc).Eval(r.src, r.env()) }

func (r *diffRig) env() *expr.Env {
	env := expr.NewEnv(nil)
	for i, fv := range r.st.Fields {
		env.Bind(r.st.Names[i], expr.FromValue(fv))
	}
	return env
}

// toV converts a compiled value for comparison (EnumType is not kept).
func toV(d dyn) expr.V {
	v := expr.V{K: d.k, I: d.i, U: d.u, F: d.f, S: d.s, Ref: d.ref}
	if d.k == sema.KBool {
		v.I, v.B = 0, d.i != 0
	}
	return v
}

func sameV(a, b expr.V) bool {
	if a.K != b.K || a.B != b.B || a.I != b.I || a.U != b.U || a.S != b.S || a.Ref != b.Ref {
		return false
	}
	return a.F == b.F || (math.IsNaN(a.F) && math.IsNaN(b.F))
}

func (r *diffRig) check(t *testing.T, src string) {
	t.Helper()
	want, err := r.oracle()
	d, ok, pred, n, nok := r.compiled()
	if ok != (err == nil) {
		t.Errorf("%s: compiled ok=%v, evaluator error %v", src, ok, err)
		return
	}
	if ok && !sameV(toV(d), want) {
		t.Errorf("%s: compiled %+v, evaluator %+v", src, toV(d), want)
	}
	if wp, _ := expr.New(r.in.Desc).EvalPred(r.src, r.env()); pred != wp {
		t.Errorf("%s: compiled predicate %v, evaluator %v (%+v, %v)", src, pred, wp, want, err)
	}
	wn, werr := int64(0), err
	if err == nil {
		wn, werr = expr.ToInt(want)
	}
	if nok != (werr == nil) || (nok && n != wn) {
		t.Errorf("%s: compiled int %d/%v, evaluator %d/%v", src, n, nok, wn, werr)
	}
}

func TestCompiledMatchesEvaluator(t *testing.T) {
	var cases []string
	for _, a := range diffAtoms {
		cases = append(cases, a, "!"+a, "-"+a, "(true ? "+a+" : 0)", "(false ? 0 : "+a+")")
		for _, b := range diffAtoms {
			for _, op := range diffBinary {
				cases = append(cases, a+" "+op+" "+b)
			}
		}
	}
	cases = append(cases,
		// Call depth: deep(n) nests n+1 calls; 100 are allowed.
		"deep(98)", "deep(99)", "deep(100)", "deep(5000)",
		// Quantifier range: at most 1<<24 steps past the first.
		"Pforall (j Pin [0..16777217] : j >= 0)",
		"Pexists (j Pin [0..16777216] : j == 3)",
		"Pexists (j Pin [1..16777217] : j == 3)",
		"Pforall (j Pin [0..2] : ns[j] < ns[j+1] || j == 2)",
		"Pforall (j Pin [0..3] : ns[j] > 0)",
		"Pexists (j Pin [0..2] : Pforall (k Pin [0..j] : ns[k] <= ns[j]) && ns[j] == 3)",
		"Pforall (j Pin [u..i] : false)",
		"Pforall (j Pin [0..big] : true)",
		// Locals: shadowing in an if-block, assignment to an outer local,
		// a parameter redeclared in place.
		"shadow(3)", "shadow(-3)", "shadow(big)",
		"half(7) == 3 && half(-7) == -3", "half(fl)", "half(s)",
		"(i < 0 ? u : fl)", "(i > 0 ? u : fl) + 1", "-(c) + c", "--big", "-fl * -fl",
		"1 / 0", "1 % 0", "2.5 / 0", "2.5 % 1", "0.0 / 0.0", "big % 2", "big / 1",
		"e == GREEN", "e == \"GREEN\"", "\"GREEN\" == e", "e < BLUE", "e + 1", "RED + 1",
		"c == \"x\"", "\"xy\" > c", "s == 'h'", "ip == 16909060", "ip > u", "d > 0", "d == d",
		"pr.b", "pr.z", "nw.w == s", "ns.a", "pr[0]", "u.x", "u[0]", "o.x", "p + 1", "p == p",
		"ns[-1]", "ns[big]", "ns[fl]", "ns[s]", "ns[1] == pr.a - 1",
	)
	for _, src := range cases {
		newDiffRig(t, src).check(t, src)
	}
}

// TestCompiledForallAllocs pins the Sirius eventSeq sort check, run by the
// compiled code over an already-parsed array, at zero allocations.
func TestCompiledForallAllocs(t *testing.T) {
	desc := loadDesc(t, "sirius.pads")
	in, err := New(desc)
	if err != nil {
		t.Fatal(err)
	}
	data, err := testdataBytes("sirius.sample")
	if err != nil {
		t.Fatal(err)
	}
	rr, err := in.NewRecordReader(padsrt.NewBytesSource(data), nil)
	if err != nil {
		t.Fatal(err)
	}
	var events *value.Array
	for rr.More() {
		rec := rr.Read().(*value.Struct)
		if a := rec.Field("events").(*value.Array); len(a.Elems) >= 2 && rec.PD().Nerr == 0 {
			events = a
			break
		}
	}
	if events == nil {
		t.Fatal("no clean record with two or more events")
	}
	id, _ := in.prog.DeclByName("eventSeq")
	where := in.prog.Arrays[in.prog.Nodes[in.prog.Decls[id].Root].A].Where
	f := &in.fr
	f.base, f.top = 0, int(in.prog.Decls[id].Frame)
	f.setRef(0, events)
	f.setInt(1, int64(len(events.Elems)))
	allocs := testing.AllocsPerRun(1000, func() {
		if !in.code.preds[where](f) {
			t.Fatal("sorted events fail the check")
		}
	})
	if allocs != 0 {
		t.Errorf("compiled Pforall check allocates %.1f times, want 0", allocs)
	}
}

func loadDesc(tb testing.TB, name string) *sema.Desc {
	tb.Helper()
	src, err := testdataBytes(name)
	if err != nil {
		tb.Fatal(err)
	}
	prog, errs := dsl.Parse(string(src))
	if len(errs) > 0 {
		tb.Fatal(errs[0])
	}
	desc, serrs := sema.Check(prog)
	if len(serrs) > 0 {
		tb.Fatal(serrs[0])
	}
	return desc
}
