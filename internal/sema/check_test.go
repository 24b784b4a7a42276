package sema

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pads/internal/dsl"
)

func checkFile(t *testing.T, name string) *Desc {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return checkSrc(t, string(data))
}

func checkSrc(t *testing.T, src string) *Desc {
	t.Helper()
	prog, errs := dsl.Parse(src)
	if len(errs) > 0 {
		t.Fatalf("parse: %v", errs[0])
	}
	desc, serrs := Check(prog)
	for _, e := range serrs {
		t.Errorf("check: %v", e)
	}
	if t.Failed() {
		t.FailNow()
	}
	return desc
}

func errsOf(t *testing.T, src string) []*dsl.Error {
	t.Helper()
	prog, errs := dsl.Parse(src)
	if len(errs) > 0 {
		t.Fatalf("parse: %v", errs[0])
	}
	_, serrs := Check(prog)
	return serrs
}

func wantErr(t *testing.T, src, frag string) {
	t.Helper()
	serrs := errsOf(t, src)
	for _, e := range serrs {
		if strings.Contains(e.Msg, frag) {
			return
		}
	}
	t.Errorf("no error containing %q; got %v", frag, serrs)
}

func TestCheckCLF(t *testing.T) {
	desc := checkFile(t, "clf.pads")
	if desc.Source == nil || desc.Source.DeclName() != "clt_t" {
		t.Errorf("source = %v", desc.Source)
	}
	if desc.EnumOf["GET"] == nil || desc.EnumOf["GET"].Name != "method_t" {
		t.Error("enum literal GET not registered")
	}
	if desc.EnumIndex["UNLINK"] != 6 {
		t.Errorf("UNLINK index = %d", desc.EnumIndex["UNLINK"])
	}
	if desc.Funcs["chkVersion"] == nil {
		t.Error("chkVersion not registered")
	}
}

func TestCheckSirius(t *testing.T) {
	desc := checkFile(t, "sirius.pads")
	if desc.Source.DeclName() != "out_sum" {
		t.Errorf("source = %s", desc.Source.DeclName())
	}
	if Annot(desc.Types["entry_t"]).IsRecord != true {
		t.Error("entry_t should be a record")
	}
}

// Figure 1 of the paper lists six classes of sources; this repo carries a
// description for each class, and all must check cleanly (experiment E1).
func TestFigure1Sources(t *testing.T) {
	for _, name := range []string{"clf.pads", "sirius.pads"} {
		t.Run(name, func(t *testing.T) { checkFile(t, name) })
	}
	// The remaining Figure 1 classes (binary call detail, Cobol billing,
	// Regulus ASCII, netflow) are covered once their descriptions land in
	// testdata; they are exercised by interp and example tests too.
	for _, name := range []string{"calldetail.pads", "regulus.pads", "netflow.pads", "billing.pads"} {
		path := filepath.Join("..", "..", "testdata", name)
		if _, err := os.Stat(path); err == nil {
			t.Run(name, func(t *testing.T) { checkFile(t, name) })
		}
	}
}

func TestUndeclaredType(t *testing.T) {
	wantErr(t, "Pstruct s { mystery_t x; };", "undeclared type mystery_t")
}

func TestDeclareBeforeUse(t *testing.T) {
	wantErr(t, `
Pstruct a { b_t x; };
Pstruct b_t { Puint8 y; };
`, "undeclared type b_t")
}

func TestSelfReferenceRejected(t *testing.T) {
	wantErr(t, "Pstruct s { s x; };", "undeclared type s")
}

// A self-referential typedef or array errors at its own check (the name
// registers only afterwards), but the erroneous declaration still lands in
// the registry for later lookups. Resolving it again — here via a second
// declaration using the name — must report the original error, not recurse
// forever computing the typedef's underlying type (this once overflowed
// the checker's stack; found by FuzzVMAgainstInterp).
func TestSelfReferentialTypedefNoOverflow(t *testing.T) {
	wantErr(t, `
Ptypedef t t;
Pstruct s { t x; };
`, "undeclared type t")
	wantErr(t, `
Parray a { a[]; };
Pstruct s { a x; };
`, "undeclared type a")
}

func TestRedeclaration(t *testing.T) {
	wantErr(t, "Pstruct s { Puint8 x; };\nPenum s { A };", "redeclared")
	wantErr(t, "Pstruct Pip { Puint8 x; };", "shadows a base type")
}

func TestFieldScoping(t *testing.T) {
	// Later fields may use earlier ones; the reverse is an error.
	checkSrc(t, `
Pstruct ok { Puint8 a; Puint8 b : b > a; };
`)
	wantErr(t, `
Pstruct bad { Puint8 a : a > b; Puint8 b; };
`, "undeclared identifier b")
}

func TestConstraintMustBeBool(t *testing.T) {
	wantErr(t, "Pstruct s { Puint8 x : x + 1; };", "must be boolean")
}

func TestBaseArgChecking(t *testing.T) {
	wantErr(t, "Pstruct s { Pstring x; };", "takes 1 argument(s), got 0")
	wantErr(t, "Pstruct s { Puint32(:3:) x; };", "takes 0 argument(s), got 1")
	wantErr(t, "Pstruct s { Pstring(:3:) x; };", "expects a character argument")
	wantErr(t, "Pstruct s { Puint16_FW(:'c':) x; };", "expects a numeric argument")
	wantErr(t, `Pstruct s { Pstring_ME(:"x":) x; };`, "regular-expression argument")
	checkSrc(t, "Pstruct s { Pstring(:Peor:) x; };")
}

func TestBadRegexp(t *testing.T) {
	wantErr(t, `Pstruct s { Pstring_ME(:Pre "[":) x; };`, "invalid regular expression")
	wantErr(t, `Pstruct s { Pre "("; Puint8 x; };`, "invalid regular expression")
}

func TestRegexpsCollected(t *testing.T) {
	desc := checkSrc(t, `Pstruct s { Pre "[A-Z]+"; Pstring_ME(:Pre "[0-9]+":) d; };`)
	if desc.Regexps["[A-Z]+"] == nil || desc.Regexps["[0-9]+"] == nil {
		t.Errorf("regexps not collected: %v", desc.Regexps)
	}
}

func TestParameterizedTypes(t *testing.T) {
	checkSrc(t, `
Pstruct payload (:Puint32 n:) {
  Pstring_FW(:n:) body;
};
Pstruct packet {
  Puint32 len; '|';
  payload(:len:) p;
};
`)
	wantErr(t, `
Pstruct payload (:Puint32 n:) { Pstring_FW(:n:) body; };
Pstruct packet { payload p; };
`, "takes 1 argument(s), got 0")
}

func TestSwitchedUnionChecks(t *testing.T) {
	checkSrc(t, `
Punion u (:Puint8 tag:) Pswitch (tag) {
  Pcase 1: Puint32 num;
  Pdefault: Pstring(:'|':) text;
};
Pstruct s { Puint8 t; u(:t:) v; };
`)
	wantErr(t, `
Punion u (:Puint8 tag:) Pswitch (tag) {
  Pcase "x": Puint32 num;
};
`, "does not match selector type")
	wantErr(t, `
Punion u (:Puint8 tag:) Pswitch (tag) {
  Pdefault: Puint32 a;
  Pdefault: Puint32 b;
};
`, "multiple Pdefault")
}

func TestEnumLiteralConflicts(t *testing.T) {
	wantErr(t, `
Penum a { X, Y };
Penum b { Y, Z };
`, "already declared")
}

func TestFunctionChecks(t *testing.T) {
	wantErr(t, "bool f(Puint8 x) { x + 1; };", "no return statement")
	wantErr(t, `bool f(Puint8 x) { return "s"; };`, "cannot return")
	wantErr(t, `
bool f(Puint8 x) { return x > 0; };
Pstruct s { Puint8 a : f(a, a); };
`, "takes 1 argument(s), got 2")
	wantErr(t, `
Pstruct s { Puint8 a : g(a); };
`, "undeclared function g")
	// Locals, assignment, if/else.
	checkSrc(t, `
Puint32 clamp(Puint32 x) {
  Puint32 y = x;
  if (y > 100) { y = 100; } else y = y;
  return y;
};
Pstruct s { Puint32 a : clamp(a) == a; };
`)
}

func TestArrayPredScopes(t *testing.T) {
	checkSrc(t, `
Parray a { Puint32[] : Psep (',') && Plast (elt == 0); };
Parray b { Puint32[] : Psep (',') && Pended (length == 3); };
Parray c { Puint32[]; } Pwhere { Pforall (i Pin [0..length-2] : elts[i] <= elts[i+1]) };
`)
	wantErr(t, "Parray a { Puint32[] : Pended (elt == 0); };", "undeclared identifier elt")
	wantErr(t, "Parray a { Puint32[]; } Pwhere { length };", "must be boolean")
}

func TestDotAndIndexTyping(t *testing.T) {
	checkSrc(t, `
Pstruct inner { Puint32 v; };
Parray seq { inner[] : Psep (','); };
Pstruct outer {
  seq xs;
} Pwhere { Pforall (i Pin [0..0] : xs[i].v >= 0) };
`)
	wantErr(t, `
Pstruct inner { Puint32 v; };
Pstruct outer { inner x; Puint8 y : x.nope == 0; };
`, "has no field nope")
	wantErr(t, `
Pstruct outer { Puint32 x; Puint8 y : x[0] == 0; };
`, "cannot index")
}

func TestUnionWhereRejected(t *testing.T) {
	wantErr(t, `
Punion u { Puint8 a; Puint16 b; } Pwhere { true };
`, "not supported on unions")
}

func TestMultipleSources(t *testing.T) {
	wantErr(t, `
Psource Pstruct a { Puint8 x; };
Psource Pstruct b { Puint8 y; };
`, "multiple Psource")
}

func TestSourceDefaultsToLast(t *testing.T) {
	desc := checkSrc(t, `
Pstruct a { Puint8 x; };
Pstruct b { Puint8 y; };
`)
	if desc.Source.DeclName() != "b" {
		t.Errorf("default source = %s, want b", desc.Source.DeclName())
	}
}

func TestTypedefChaining(t *testing.T) {
	checkSrc(t, `
Ptypedef Puint32 id_t : id_t x => { x > 0 };
Ptypedef id_t big_id_t : big_id_t y => { y > 1000 };
Pstruct s { big_id_t v : v != 5; };
`)
}

func TestRegisterBase(t *testing.T) {
	old := RegisterBase(BaseInfo{Name: "Pmac", Kind: KString})
	defer func() {
		if old == nil {
			delete(baseTypes, "Pmac")
		} else {
			RegisterBase(*old)
		}
	}()
	checkSrc(t, "Pstruct s { Pmac addr; };")
}

func TestKindPredicates(t *testing.T) {
	for _, k := range []Kind{KUint, KInt, KFloat, KChar, KDate, KIP, KEnum} {
		if !k.Numeric() {
			t.Errorf("%v should be numeric", k)
		}
	}
	for _, k := range []Kind{KString, KBool, KStruct, KUnion, KArray, KOpt, KVoid} {
		if k.Numeric() {
			t.Errorf("%v should not be numeric", k)
		}
	}
}

func TestStringCharComparison(t *testing.T) {
	checkSrc(t, `Pstruct s { Pstring(:'|':) x : x == "-" || x == '-'; };`)
}

// TestBindingLayout pins the frame layout the VM binds into (Binding's doc
// comment): parameters first, then a struct's fields in order, a union's
// branch slot, a typedef's variable, an array's elts/length/elt, then
// quantifier variables and function locals; an unbound name is an enum
// constant, and an if-block local gets a slot of its own.
func TestBindingLayout(t *testing.T) {
	d := checkSrc(t, `
Penum color { red, green };
Pstruct s_t (:Puint8 k:) { Puint8 a : a > k; ','; color c : c == green; Puint8 green : green > 0; }
  Pwhere { Pforall (i Pin [0..a] : i < green) };
Punion u_t (:Puint8 k:) { Puint8 k : k > 0; Pstring(:';':) w : k == 1; };
Ptypedef Puint8 small_t : small_t x => { x < 10 };
Parray a_t (:Puint8 n:) { Puint8[] : Psep(',') && Plast (elt == n); } Pwhere { length > 0 && elts[0] < n };
Puint8 f(Puint8 p) { Puint8 x = p; if (p > 1) { Puint8 x = 2; x = x + 1; } x = 4; return x; };
`)
	got := map[string][]Binding{}
	for id, b := range d.Idents {
		got[id.Name] = append(got[id.Name], b)
	}
	want := map[string][]Binding{
		"a":      {{BindField, 1}},
		"c":      {{BindField, 2}},
		"green":  {{BindEnum, 0}, {BindField, 3}},
		"i":      {{BindForall, 4}},
		"elt":    {{BindField, 3}},
		"elts":   {{BindField, 1}},
		"length": {{BindLength, 2}},
		"x":      {{BindField, 0}, {BindLocal, 1}, {BindLocal, 2}},
	}
	for name, bs := range want {
		for _, b := range bs {
			found := false
			for _, g := range got[name] {
				found = found || g == b
			}
			if !found {
				t.Errorf("%s: bindings %v, want %v among them", name, got[name], b)
			}
		}
	}
	// The if-block's x is a second local; the assignment after the block
	// writes the first.
	body := d.Funcs["f"].Body
	inner := body[1].(*dsl.IfStmt).Then
	for i, st := range []dsl.Stmt{body[0], inner[0], inner[1], body[2]} {
		if want := []int{1, 2, 2, 1}[i]; d.Locals[st] != want {
			t.Errorf("statement %d of f writes slot %d, want %d", i, d.Locals[st], want)
		}
	}
	// k: the struct's and the union's parameter, shadowed by the union's
	// branch of the same name inside that branch's constraint only.
	kinds := map[Binding]bool{}
	for _, b := range got["k"] {
		kinds[b] = true
	}
	if !kinds[Binding{BindParam, 0}] || !kinds[Binding{BindField, 1}] {
		t.Errorf("k: bindings %v, want the parameter (slot 0) and the branch (slot 1)", got["k"])
	}
	frames := map[string]int{}
	for decl, n := range d.Frames {
		frames[decl.DeclName()] = n
	}
	for name, n := range map[string]int{"s_t": 5, "u_t": 2, "small_t": 1, "a_t": 4, "f": 3} {
		if frames[name] != n {
			t.Errorf("frame of %s = %d, want %d", name, frames[name], n)
		}
	}
}
