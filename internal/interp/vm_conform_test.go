package interp_test

// Three-way IR conformance: the bytecode VM (interp.New) is compared
// against the reference AST walk (NewAST, the test-only oracle of
// astwalk_test.go) over the datagen corpora, demanding indistinguishable
// results — value.EqualFull requires identical values, type names, and
// bit-identical parse descriptors at every node, and the accumulator reports
// built from both streams must render the same bytes. The generated-code leg
// of the three-way runs in the gen packages (internal/gen/{clf,sirius,
// kitchen}), which diff against interp.New — the VM — and
// TestVMConformGenCorpora checks the VM against the walk on their corpora,
// so the chain AST walk == VM == generated code closes over every corpus.
// FuzzVMAgainstInterp extends the same contract to random description/input
// pairs.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"pads/internal/accum"
	"pads/internal/datagen"
	"pads/internal/dsl"
	"pads/internal/interp"
	"pads/internal/padsrt"
	"pads/internal/sema"
	"pads/internal/value"
)

func checkFile(t *testing.T, name string) *sema.Desc {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	prog, errs := dsl.Parse(string(src))
	if len(errs) > 0 {
		t.Fatalf("parse: %v", errs[0])
	}
	desc, serrs := sema.Check(prog)
	if len(serrs) > 0 {
		t.Fatalf("check: %v", serrs[0])
	}
	return desc
}

// newVM builds the VM for a checked description, failing the test when the
// description does not lower: New has no fallback, so a lowering failure on
// a description sema accepts is a bug in the lowering.
func newVM(tb testing.TB, desc *sema.Desc) *interp.Interp {
	tb.Helper()
	in, err := interp.New(desc)
	if err != nil {
		tb.Fatalf("checked description does not lower: %v", err)
	}
	return in
}

// conformRecords parses data record-by-record through the AST walk and the
// VM, requiring indistinguishable headers, records, and accumulator output.
func conformRecords(t *testing.T, desc *sema.Desc, data []byte) int {
	t.Helper()
	ast := interp.NewAST(desc)
	vm := newVM(t, desc)

	ra, err := ast.NewRecordReader(padsrt.NewBytesSource(data), nil)
	if err != nil {
		t.Fatal(err)
	}
	rv, err := vm.NewRecordReader(padsrt.NewBytesSource(data), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := value.DiffFull(ra.Header(), rv.Header()); d != "" {
		t.Fatalf("headers differ: %s", d)
	}

	accA := accum.New(accum.DefaultConfig())
	accV := accum.New(accum.DefaultConfig())
	rec := 0
	for ra.More() {
		av := ra.Read()
		if !rv.More() {
			t.Fatalf("VM reader exhausted at record %d", rec)
		}
		vv := rv.Read()
		if d := value.DiffFull(av, vv); d != "" {
			t.Fatalf("record %d: AST walk and VM differ: %s\nAST: %s\nVM:  %s",
				rec, d, value.String(av), value.String(vv))
		}
		accA.Add(av)
		accV.Add(vv)
		rec++
	}
	if rv.More() {
		t.Fatal("VM reader has records left over")
	}
	var ba, bv bytes.Buffer
	accA.Report(&ba, "")
	accV.Report(&bv, "")
	if ba.String() != bv.String() {
		t.Fatalf("accumulator reports differ:\n--- AST\n%s\n--- VM\n%s", ba.String(), bv.String())
	}
	return rec
}

func TestVMConformSiriusCorpus(t *testing.T) {
	desc := checkFile(t, "sirius.pads")
	var buf bytes.Buffer
	cfg := datagen.DefaultSirius(400)
	cfg.SortViolations = 5
	cfg.SyntaxErrors = 9
	if _, err := datagen.Sirius(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	if n := conformRecords(t, desc, buf.Bytes()); n != 400 {
		t.Fatalf("records = %d", n)
	}
}

func TestVMConformCLFCorpus(t *testing.T) {
	desc := checkFile(t, "clf.pads")
	var buf bytes.Buffer
	if _, err := datagen.CLF(&buf, datagen.DefaultCLF(400)); err != nil {
		t.Fatal(err)
	}
	if n := conformRecords(t, desc, buf.Bytes()); n != 400 {
		t.Fatalf("records = %d", n)
	}
}

// TestVMConformKitchen runs the kitchen-sink description (every language
// construct) over generically-generated instances, whole-source.
func TestVMConformKitchen(t *testing.T) {
	desc := checkFile(t, "kitchen.pads")
	for seed := uint64(1); seed <= 25; seed++ {
		g, err := datagen.NewGenerator(desc, seed)
		if err != nil {
			t.Fatal(err)
		}
		data, err := g.GenerateSource()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		av, err := interp.NewAST(desc).ParseSource(padsrt.NewBytesSource(data))
		if err != nil {
			t.Fatalf("seed %d: AST: %v", seed, err)
		}
		vv, err := newVM(t, desc).ParseSource(padsrt.NewBytesSource(data))
		if err != nil {
			t.Fatalf("seed %d: VM: %v", seed, err)
		}
		if d := value.DiffFull(av, vv); d != "" {
			t.Fatalf("seed %d: %s\ninput: %q", seed, d, data)
		}
	}
}

// TestVMConformGenCorpora checks the VM against the reference AST walk on
// the corpora the generated-code tests (internal/gen/{clf,sirius,kitchen})
// diff the VM against, which cannot reach the test-only walk themselves.
// Together they close the chain AST walk == VM == generated code on each
// corpus.
func TestVMConformGenCorpora(t *testing.T) {
	var clf bytes.Buffer
	if _, err := datagen.CLF(&clf, datagen.DefaultCLF(500)); err != nil {
		t.Fatal(err)
	}
	if n := conformRecords(t, checkFile(t, "clf.pads"), clf.Bytes()); n != 500 {
		t.Fatalf("clf records = %d", n)
	}

	var sirius bytes.Buffer
	cfg := datagen.DefaultSirius(500)
	cfg.SortViolations = 3
	cfg.SyntaxErrors = 7
	if _, err := datagen.Sirius(&sirius, cfg); err != nil {
		t.Fatal(err)
	}
	if n := conformRecords(t, checkFile(t, "sirius.pads"), sirius.Bytes()); n != 500 {
		t.Fatalf("sirius records = %d", n)
	}

	desc := checkFile(t, "kitchen.pads")
	vm := newVM(t, desc)
	for seed := uint64(1); seed <= 40; seed++ {
		g, err := datagen.NewGenerator(desc, seed)
		if err != nil {
			t.Fatal(err)
		}
		data, err := g.GenerateSource()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		av, err := interp.NewAST(desc).ParseSource(padsrt.NewBytesSource(data))
		if err != nil {
			t.Fatalf("seed %d: AST: %v", seed, err)
		}
		vv, err := vm.ParseSource(padsrt.NewBytesSource(data))
		if err != nil {
			t.Fatalf("seed %d: VM: %v", seed, err)
		}
		if d := value.DiffFull(av, vv); d != "" {
			t.Fatalf("seed %d: kitchen AST walk and VM differ: %s", seed, d)
		}
	}
}

// TestVMConformRangeOverflowUnion pins the FAtomic soundness rule
// (ir.ReadOp.Atomic): ReadAUint consumes the digit run before reporting
// ErrRange, so a union branch trying Puint8 against "300" must run under a
// checkpoint, or the next branch would start three bytes late and read ""
// instead of "300".
func TestVMConformRangeOverflowUnion(t *testing.T) {
	src := `Punion u { Puint8 a; Pstring(:' ':) s; }; Precord Pstruct r { u v; ' '; Peor; }; Psource Parray rs { r[]; };`
	prog, errs := dsl.Parse(src)
	if len(errs) > 0 {
		t.Fatalf("parse: %v", errs[0])
	}
	desc, serrs := sema.Check(prog)
	if len(serrs) > 0 {
		t.Fatalf("check: %v", serrs[0])
	}
	data := []byte("300 \n7 \n99999999999999999999 \n")
	av, err := interp.NewAST(desc).ParseSource(padsrt.NewBytesSource(data))
	if err != nil {
		t.Fatalf("AST: %v", err)
	}
	vv, err := newVM(t, desc).ParseSource(padsrt.NewBytesSource(data))
	if err != nil {
		t.Fatalf("VM: %v", err)
	}
	if d := value.DiffFull(av, vv); d != "" {
		t.Fatalf("AST walk and VM differ: %s\nAST: %s\nVM:  %s", d, value.String(av), value.String(vv))
	}
	// Both engines must have taken the string branch with the full text.
	rec := av.(*value.Array).Elems[0].(*value.Struct).Field("v").(*value.Union)
	if rec.Tag != "s" {
		t.Fatalf("record 0 tag = %s, want s", rec.Tag)
	}
	if got := rec.Val.(*value.Str).Val; got != "300" {
		t.Fatalf("record 0 s = %q, want \"300\" (range-failing Puint8 branch leaked consumed digits)", got)
	}
}

// TestVMConformSamples pins the checked-in sample files.
func TestVMConformSamples(t *testing.T) {
	for _, pair := range [][2]string{{"clf.pads", "clf.sample"}, {"sirius.pads", "sirius.sample"}} {
		desc := checkFile(t, pair[0])
		data, err := os.ReadFile(filepath.Join("..", "..", "testdata", pair[1]))
		if err != nil {
			t.Fatal(err)
		}
		conformRecords(t, desc, data)
	}
}

// FuzzVMAgainstInterp co-fuzzes description and input: any description that
// checks cleanly must parse any byte string identically through the AST
// walk and the VM — same values, same parse descriptors, same error codes,
// same accumulator output.
func FuzzVMAgainstInterp(f *testing.F) {
	for _, pair := range [][2]string{{"clf.pads", "clf.sample"}, {"sirius.pads", "sirius.sample"}} {
		descSrc, err := os.ReadFile(filepath.Join("..", "..", "testdata", pair[0]))
		if err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join("..", "..", "testdata", pair[1]))
		if err != nil {
			f.Fatal(err)
		}
		if len(data) > 512 {
			data = data[:512]
		}
		f.Add(string(descSrc), data)
	}
	f.Add(`Psource Precord Pstruct r { Puint8 x; Peor; };`, []byte("1\nx\n300\n"))
	f.Add(`Punion u { Pip a; Puint32 b; Pstring(:' ':) s; }; Psource Precord Pstruct r { u v; Peor; };`,
		[]byte("1.2.3.4\nhello\n99\n"))
	f.Add(`Penum color { red, green, blue }; Psource Precord Pstruct r { color c; Popt Puint16 n; Peor; };`,
		[]byte("red7\nblue\nmauve\n"))
	f.Add(`Parray inner { Puint8 : Psep(',') && Pterm(';'); }; Psource Precord Pstruct r { inner v; ';'; Peor; };`,
		[]byte("1,2,3;\n;\n1,,2;\n"))
	// Range overflow inside a speculative branch: ReadAUint consumes the
	// digits before reporting ErrRange, so the Puint8 trial must be
	// checkpointed (the FAtomic soundness repro, caught deterministically).
	f.Add(`Punion u { Puint8 a; Pstring(:' ':) s; }; Precord Pstruct r { u v; ' '; Peor; }; Psource Parray rs { r[]; };`,
		[]byte("300 \n7 \n99999999999999999999 \n"))
	// Expression-heavy seeds: a struct Pwhere, a switched union, a
	// predicate function as a field constraint, and a Pforall sort check
	// shaped like Sirius's eventSeq.
	f.Add(`Precord Pstruct r { Puint8 a; ','; Puint8 b; Peor; } Pwhere { a < b }; Psource Parray rs { r[]; };`,
		[]byte("1,2\n3,1\n7,\n"))
	f.Add(`Punion t (:Puint8 k:) Pswitch (k) { Pcase 1: Puint16 small; Pcase 2, 3: Pstring(:';':) s; Pdefault: Pchar other; }; Precord Pstruct r { Puint8 k; ':'; t(:k:) v; Peor; }; Psource Parray rs { r[]; };`,
		[]byte("1:300\n2:ab\n9:z\n1:x\n"))
	f.Add(`bool ordered(Puint8 a, Puint8 b) { if (a == 0) return false; return a <= b; }; Precord Pstruct r { Puint8 a; ','; Puint8 b : ordered(a, b); Peor; }; Psource Parray rs { r[]; };`,
		[]byte("1,2\n0,5\n4,3\n"))
	f.Add(`Pstruct ev { Pstring(:'|':) st; '|'; Puint32 ts; }; Parray seq { ev[] : Psep('|') && Pterm(Peor); } Pwhere { Pforall (i Pin [0..length-2] : (elts[i].ts <= elts[i+1].ts)); }; Precord Pstruct r { seq events; }; Psource Parray rs { r[]; };`,
		[]byte("A|1|B|2\nA|5|B|3\nA|x\n"))
	// Name resolution, which the compiled code fixes at lowering time: a
	// field named like an enum member is the constant until the field is
	// parsed and the field from its own constraint on; a union branch
	// shadows a parameter of its name in its constraint only; an array's
	// length shadows a parameter named length; an if-block local shadows
	// the outer one, while an assignment outside any redeclaration writes
	// the outer local.
	f.Add(`Penum color { red, green }; Precord Pstruct r { color c : c == green || c == red; ','; Puint8 green : green > 1; ','; Puint8 x : x == green && c != red; Peor; } Pwhere { green < 9 }; Psource Parray rs { r[]; };`,
		[]byte("green,2,2\nred,2,2\ngreen,1,1\ngreen,9,9\n"))
	f.Add(`Punion u (:Puint8 k:) { Puint8 k : k > 3; Pstring(:';':) s : k == 1; }; Precord Pstruct r { Puint8 n; ':'; u(:n:) v; Peor; }; Psource Parray rs { r[]; };`,
		[]byte("1:5\n1:2\n1:x\n2:y\n"))
	f.Add(`Parray seq (:Puint8 length:) { Puint8[] : Psep(',') && Pterm(';'); } Pwhere { length > 1 }; Precord Pstruct r { Puint8 n; ':'; seq(:n:) v; Peor; }; Psource Parray rs { r[]; };`,
		[]byte("0:1,2;\n9:1;\n"))
	f.Add(`Pint32 pick(Pint32 a) { Pint32 x = a; if (a > 2) { Pint32 x = 0; x = 5; } else { x = a + 10; } return x; }; Precord Pstruct r { Puint8 a; ','; Puint8 b : b == pick(a); Peor; }; Psource Parray rs { r[]; };`,
		[]byte("1,11\n3,3\n5,5\n2,12\n"))
	// A failed literal as a nested struct's only error: the struct's own
	// descriptor, not a child's, must turn Partial.
	f.Add(`Pstruct kv { Puint8 k; '='; }; Precord Pstruct r { kv a; Puint8 v; Peor; }; Psource Parray rs { r[]; };`,
		[]byte("1=2\n1:2\n"))

	f.Fuzz(func(t *testing.T, descSrc string, data []byte) {
		if len(descSrc) > 4096 || len(data) > 4096 {
			return
		}
		prog, errs := dsl.Parse(descSrc)
		if len(errs) > 0 {
			return
		}
		desc, serrs := sema.Check(prog)
		if len(serrs) > 0 {
			return
		}
		// MaxRecordLen keeps damaged-record scans bounded, and MaxBacktracks
		// keeps fuzzed descriptions with exponential trial trees from
		// hanging the worker (nested unions/options can re-scan a 4 KiB
		// input for minutes otherwise). The other speculation caps stay
		// unarmed: the VM legitimately uses fewer checkpoints than the walk
		// (atomic trials are checkpoint-free), so a spec limit can trip in
		// one engine and not the other by design.
		limits := padsrt.WithLimits(padsrt.Limits{MaxRecordLen: 1 << 16, MaxBacktracks: 10_000})
		vm := newVM(t, desc) // a checked description that does not lower fails the run
		sa := padsrt.NewBytesSource(data, limits)
		sv := padsrt.NewBytesSource(data, limits)
		av, aerr := interp.NewAST(desc).ParseSource(sa)
		vv, verr := vm.ParseSource(sv)
		var le *padsrt.LimitError
		if errors.As(sa.Err(), &le) || errors.As(sv.Err(), &le) {
			// A budget tripped. The engines spend rollbacks at different
			// rates (checkpoint elision), so their wind-down states are not
			// comparable — the run only proves both terminated.
			return
		}
		if (aerr == nil) != (verr == nil) {
			t.Fatalf("source errors differ: AST=%v VM=%v", aerr, verr)
		}
		if aerr != nil {
			return
		}
		if d := value.DiffFull(av, vv); d != "" {
			t.Fatalf("AST walk and VM differ: %s", d)
		}
		accA := accum.New(accum.DefaultConfig())
		accV := accum.New(accum.DefaultConfig())
		accA.Add(av)
		accV.Add(vv)
		var ba, bv bytes.Buffer
		accA.Report(&ba, "")
		accV.Report(&bv, "")
		if ba.String() != bv.String() {
			t.Fatal("accumulator reports differ")
		}
	})
}
