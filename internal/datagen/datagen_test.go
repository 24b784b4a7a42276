package datagen

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"pads/internal/dsl"
	"pads/internal/interp"
	"pads/internal/padsrt"
	"pads/internal/sema"
	"pads/internal/value"
)

func compileFile(t *testing.T, name string) *interp.Interp {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return compileSrc(t, string(data))
}

func compileSrc(t *testing.T, src string) *interp.Interp {
	t.Helper()
	prog, errs := dsl.Parse(src)
	if len(errs) > 0 {
		t.Fatalf("parse: %v", errs[0])
	}
	desc, serrs := sema.Check(prog)
	if len(serrs) > 0 {
		t.Fatalf("check: %v", serrs[0])
	}
	in, err := interp.New(desc)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return in
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(43)
	same := true
	a = NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestGeometricMean(t *testing.T) {
	r := NewRand(7)
	n := 200000
	sum := 0
	min, max := 1<<30, 0
	for i := 0; i < n; i++ {
		v := r.Geometric(5.5, 1, 156)
		sum += v
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	mean := float64(sum) / float64(n)
	if mean < 4.5 || mean > 6.5 {
		t.Errorf("geometric mean = %.2f, want ≈5.5", mean)
	}
	if min != 1 {
		t.Errorf("min = %d", min)
	}
	if max > 156 {
		t.Errorf("max = %d exceeds clamp", max)
	}
}

// TestSiriusPopulation is experiment E12: the generated file reproduces the
// section 7 statistics in scaled form, verified by actually parsing it.
func TestSiriusPopulation(t *testing.T) {
	var buf bytes.Buffer
	cfg := DefaultSirius(5000)
	cfg.SortViolations = 2
	cfg.SyntaxErrors = 5
	st, err := Sirius(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 5000 || st.SortViolations != 2 || st.SyntaxErrors != 5 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MinEvents != 1 || st.MaxEvents != 156 {
		t.Errorf("event extremes = %d..%d, want 1..156", st.MinEvents, st.MaxEvents)
	}
	mean := float64(st.Events) / float64(st.Records)
	if mean < 4.5 || mean > 6.5 {
		t.Errorf("mean events = %.2f, want ≈5.5", mean)
	}

	// Parse the generated file and count what the description flags.
	in := compileFile(t, "sirius.pads")
	s := padsrt.NewBytesSource(buf.Bytes())
	rr, err := in.NewRecordReader(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Header().PD().Nerr != 0 {
		t.Fatalf("header: %v", rr.Header().PD())
	}
	var sortBad, syntaxBad, clean int
	n := 0
	for rr.More() {
		rec := rr.Read()
		n++
		pd := rec.PD()
		switch {
		case pd.Nerr == 0:
			clean++
		case pd.ErrCode.Class() == padsrt.ClassSemantic:
			sortBad++
		default:
			syntaxBad++
		}
	}
	if n != 5000 {
		t.Fatalf("parsed records = %d", n)
	}
	if sortBad != 2 {
		t.Errorf("sort violations found = %d, want 2", sortBad)
	}
	if syntaxBad != 5 {
		t.Errorf("syntax errors found = %d, want 5", syntaxBad)
	}
	if clean != 5000-7 {
		t.Errorf("clean = %d", clean)
	}
}

func TestCLFGeneratedParses(t *testing.T) {
	var buf bytes.Buffer
	cfg := DefaultCLF(2000)
	st, err := CLF(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(st.BadLengths) / float64(st.Records)
	if frac < 0.04 || frac > 0.09 {
		t.Errorf("bad-length fraction = %.4f, want ≈0.0667", frac)
	}

	in := compileFile(t, "clf.pads")
	s := padsrt.NewBytesSource(buf.Bytes())
	rr, err := in.NewRecordReader(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad, n := 0, 0
	for rr.More() {
		rec := rr.Read()
		if rec.PD().Nerr > 0 {
			bad++
		}
		n++
	}
	if n != 2000 {
		t.Fatalf("records = %d", n)
	}
	if bad != st.BadLengths {
		t.Errorf("parser found %d bad records, generator injected %d", bad, st.BadLengths)
	}
}

// The generic description-driven generator: generated data re-parses
// cleanly and the parsed value equals the generated one.
func TestGeneratorRoundTrip(t *testing.T) {
	src := `
Penum color_t { RED, GREEN, BLUE };
Punion id_t {
  Pip ip;
  Puint32 num;
};
Pstruct item_t {
  color_t color; '|';
  id_t id; '|';
  Popt Puint16 weight; '|';
  Pstring(:';':) name; ';';
  Pint32 delta;
};
Parray items_t {
  item_t[] : Psep (',') && Pterm (Peor);
};
Precord Pstruct row_t {
  Puint8 n; '#';
  items_t items;
};
Psource Parray rows_t { row_t[]; };
`
	in := compileSrc(t, src)
	for seed := uint64(1); seed <= 25; seed++ {
		g, err := NewGenerator(in.Desc, seed)
		if err != nil {
			t.Fatal(err)
		}
		data, err := g.GenerateSource()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		s := padsrt.NewBytesSource(data)
		v, err := in.ParseSource(s)
		if err != nil {
			t.Fatalf("seed %d: parse: %v", seed, err)
		}
		if v.PD().Nerr != 0 {
			t.Fatalf("seed %d: generated data does not re-parse cleanly: %v\n%s", seed, v.PD(), data)
		}
	}
}

func TestGeneratorHonorsConstraints(t *testing.T) {
	src := `
Ptypedef Puint16_FW(:3:) response_t : response_t x => { 100 <= x && x < 600 };
Precord Pstruct r_t { response_t code; };
Psource Parray rs_t { r_t[]; };
`
	in := compileSrc(t, src)
	g, err := NewGenerator(in.Desc, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		v, err := g.GenerateType("response_t")
		if err != nil {
			t.Fatal(err)
		}
		u := v.(*value.Uint)
		if u.Val < 100 || u.Val >= 600 {
			t.Errorf("constraint ignored: %d", u.Val)
		}
	}
}

func TestGeneratorFixedWidthArgs(t *testing.T) {
	src := `
Precord Pstruct r_t {
  Puint8 n : n > 0 && n < 9; '|';
  Pstring_FW(:n:) body;
};
Psource Parray rs_t { r_t[]; };
`
	in := compileSrc(t, src)
	g, err := NewGenerator(in.Desc, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		v, err := g.GenerateType("r_t")
		if err != nil {
			t.Fatal(err)
		}
		st := v.(*value.Struct)
		n := st.Field("n").(*value.Uint).Val
		body := st.Field("body").(*value.Str).Val
		if uint64(len(body)) != n {
			t.Errorf("body width %d != n %d", len(body), n)
		}
	}
}

func TestSpread(t *testing.T) {
	m := spread(3, 300)
	if len(m) != 3 {
		t.Errorf("spread count = %d", len(m))
	}
	if len(spread(0, 100)) != 0 || len(spread(5, 0)) != 0 {
		t.Error("degenerate spreads not empty")
	}
	if len(spread(10, 5)) > 5 {
		t.Error("spread exceeded n")
	}
}

// Section 9's "deviates from it in specified ways": corrupted records are
// flagged by the parser, intact ones keep parsing.
func TestCorruptorDeviations(t *testing.T) {
	var buf bytes.Buffer
	cfg := DefaultSirius(400)
	cfg.SortViolations = 0
	cfg.SyntaxErrors = 0
	if _, err := Sirius(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	data, corrupted := Corruptor{Rate: 0.1, Seed: 5}.Corrupt(buf.Bytes())
	if corrupted == 0 {
		t.Fatal("nothing corrupted")
	}

	in := compileFile(t, "sirius.pads")
	s := padsrt.NewBytesSource(data)
	rr, err := in.NewRecordReader(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Header().PD().Nerr != 0 {
		t.Fatal("header must stay intact")
	}
	bad := 0
	n := 0
	for rr.More() {
		if rr.Read().PD().Nerr > 0 {
			bad++
		}
		n++
	}
	if n != 400 {
		t.Fatalf("records = %d", n)
	}
	// Every corruption lands in some record, but a flexible format
	// absorbs many physical deviations (a dropped byte inside a string
	// field, a truncation that still ends on a valid event pair), so only
	// a fraction surfaces as parse errors — itself a faithful property of
	// ad hoc formats. Demand a meaningful fraction and no false extras.
	if bad < corrupted/4 || bad > corrupted {
		t.Errorf("parser flagged %d of %d corrupted records", bad, corrupted)
	}
}

func TestCorruptorSpecificDeviation(t *testing.T) {
	var buf bytes.Buffer
	cfg := DefaultSirius(100)
	cfg.SortViolations = 0
	cfg.SyntaxErrors = 0
	if _, err := Sirius(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	// MangleDigit only: a letter in a numeric field never parses, but a
	// mangled digit inside a *string* field (state names, order types) is
	// absorbed, so the caught fraction is high but not total.
	data, corrupted := Corruptor{Rate: 0.2, Deviations: []Deviation{MangleDigit}, Seed: 9}.Corrupt(buf.Bytes())
	in := compileFile(t, "sirius.pads")
	rr, err := in.NewRecordReader(padsrt.NewBytesSource(data), nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := 0
	for rr.More() {
		if rr.Read().PD().Nerr > 0 {
			bad++
		}
	}
	if bad == 0 || bad > corrupted {
		t.Errorf("flagged %d, corrupted %d", bad, corrupted)
	}
	if bad < corrupted/3 {
		t.Errorf("only %d of %d mangled records caught", bad, corrupted)
	}
}
