package accum

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"pads/internal/datagen"
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
	prog, errs := dsl.Parse(string(data))
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

func uintVal(v uint64) value.Value {
	u := &value.Uint{Val: v, Bits: 32}
	u.Type = "Puint32"
	return u
}

func badUint() value.Value {
	u := &value.Uint{Bits: 32}
	u.Type = "Puint32"
	u.PD().SetError(padsrt.ErrInvalidInt, padsrt.Loc{})
	return u
}

func TestScalarStats(t *testing.T) {
	a := New(DefaultConfig())
	for _, v := range []uint64{35, 100, 35, 248591} {
		a.Add(uintVal(v))
	}
	a.Add(badUint())
	if a.Good != 4 || a.Bad != 1 {
		t.Fatalf("good/bad = %d/%d", a.Good, a.Bad)
	}
	if a.Min() != 35 || a.Max() != 248591 {
		t.Errorf("min/max = %v/%v", a.Min(), a.Max())
	}
	wantAvg := float64(35+100+35+248591) / 4
	if a.Avg() != wantAvg {
		t.Errorf("avg = %v, want %v", a.Avg(), wantAvg)
	}
	if a.PcntBad() != 20 {
		t.Errorf("pcnt-bad = %v", a.PcntBad())
	}
	if a.Distinct() != 3 {
		t.Errorf("distinct = %d", a.Distinct())
	}
	if a.ErrCounts[padsrt.ErrInvalidInt] != 1 {
		t.Errorf("err counts = %v", a.ErrCounts)
	}
}

func TestTrackerCap(t *testing.T) {
	a := New(Config{MaxTracked: 10, TopN: 3})
	for i := 0; i < 100; i++ {
		a.Add(uintVal(uint64(i)))
	}
	if a.Distinct() != 10 {
		t.Fatalf("distinct = %d, want capped at 10", a.Distinct())
	}
	// 10 of 100 good values tracked.
	if got := a.TrackedPcnt(); got != 10 {
		t.Errorf("tracked%% = %v", got)
	}
	// Values already tracked keep counting after the cap.
	for i := 0; i < 5; i++ {
		a.Add(uintVal(3))
	}
	top := a.top(1)
	if top[0].key != "3" || top[0].n != 6 {
		t.Errorf("top = %+v", top)
	}
}

func TestTopOrderingDeterministic(t *testing.T) {
	a := New(DefaultConfig())
	for _, v := range []uint64{5, 5, 7, 7, 9} {
		a.Add(uintVal(v))
	}
	top := a.top(3)
	// Equal counts break ties by key.
	if top[0].key != "5" || top[1].key != "7" || top[2].key != "9" {
		t.Errorf("top = %+v", top)
	}
}

// TestCLFLengthReport reproduces the section 5.2 accumulator report for the
// CLF length field (E6): the same header lines, a top-10 table, and the
// SUMMING footer. The exact counts depend on the synthetic data; the 6.666%
// bad rate of the paper is reproduced by construction in the benchmark
// harness (internal/datagen seeds the same error population).
func TestCLFLengthReport(t *testing.T) {
	in := compileFile(t, "clf.pads")
	var sb strings.Builder
	// 60 records: 4 bad lengths ('-'), the rest drawn from a small set.
	for i := 0; i < 60; i++ {
		length := "3082"
		switch {
		case i%15 == 14:
			length = "-"
		case i%3 == 1:
			length = "170"
		case i%3 == 2:
			length = fmt.Sprintf("%d", 40+i)
		}
		fmt.Fprintf(&sb, "1.2.3.%d - - [15/Oct/1997:18:46:51 -0700] \"GET /x HTTP/1.0\" 200 %s\n", i%250, length)
	}
	s := padsrt.NewBytesSource([]byte(sb.String()))
	rr, err := in.NewRecordReader(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	acc := New(DefaultConfig())
	n := 0
	for rr.More() {
		acc.Add(rr.Read())
		n++
	}
	if n != 60 {
		t.Fatalf("records = %d", n)
	}

	lengthAcc := acc.Field("length")
	if lengthAcc == nil {
		t.Fatal("no length accumulator")
	}
	if lengthAcc.Bad != 4 || lengthAcc.Good != 56 {
		t.Fatalf("length good/bad = %d/%d", lengthAcc.Good, lengthAcc.Bad)
	}

	var report strings.Builder
	if err := acc.ReportField(&report, "<top>", "length"); err != nil {
		t.Fatal(err)
	}
	out := report.String()
	for _, want := range []string{
		"<top>.length : uint32",
		"+++++++++++++++++++++++++++++++++++++++++++",
		"good: 56 bad: 4 pcnt-bad: 6.667",
		"min: 42 max: 3082",
		"top 10 values out of",
		"tracked 100.000% of values",
		"val:       3082",
		". . . . . . . . . . . . . . . . . . . . . .",
		"SUMMING count:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestNestedReportPaths(t *testing.T) {
	in := compileFile(t, "sirius.pads")
	data, _ := os.ReadFile(filepath.Join("..", "..", "testdata", "sirius.sample"))
	s := padsrt.NewBytesSource(data)
	rr, err := in.NewRecordReader(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	acc := New(DefaultConfig())
	for rr.More() {
		acc.Add(rr.Read())
	}
	// Union branch distribution for the ramp field.
	ramp := acc.Field("header").Field("ramp")
	if ramp == nil {
		t.Fatal("no ramp accumulator")
	}
	if ramp.branches["ramp"] != 1 || ramp.branches["genRamp"] != 1 {
		t.Errorf("ramp branches = %v", ramp.branches)
	}
	// Array element stats for events.
	events := acc.Field("events")
	if events == nil || events.Elem() == nil {
		t.Fatal("no events accumulator")
	}
	st := events.Elem().Field("state")
	if st.Good != 3 {
		t.Errorf("event states good = %d, want 3", st.Good)
	}
	// Full report renders without panicking and mentions nested paths.
	var sb strings.Builder
	acc.Report(&sb, "<top>")
	for _, want := range []string{"<top>.header.order_num", "<top>.events.elt.state", "branch genRamp: 1", "present:"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// Property: good+bad always equals the number of Adds, and min<=avg<=max.
func TestAccumInvariants(t *testing.T) {
	f := func(vals []uint32, badEvery uint8) bool {
		if badEvery == 0 {
			badEvery = 3
		}
		a := New(Config{MaxTracked: 50, TopN: 5})
		adds := 0
		for i, v := range vals {
			if i%int(badEvery) == 0 {
				a.Add(badUint())
			} else {
				a.Add(uintVal(uint64(v)))
			}
			adds++
		}
		if a.Total() != uint64(adds) {
			return false
		}
		if a.Good > 0 && a.sawNum {
			if a.Min() > a.Avg() || a.Avg() > a.Max() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReportEmptyAccum(t *testing.T) {
	a := New(DefaultConfig())
	var sb strings.Builder
	a.Report(&sb, "<top>")
	if !strings.Contains(sb.String(), "good: 0 bad: 0") {
		t.Errorf("empty report = %q", sb.String())
	}
}

func intVal(v int64) value.Value {
	u := &value.Int{Val: v, Bits: 32}
	u.Type = "Pint32"
	return u
}

// TestAddAllocs pins the accumulator's allocation budget. Numeric keys and
// array lengths are formatted into a stack buffer and looked up without
// copying, so folding records whose values the tracker already holds, or
// values it has no room left for, allocates nothing: only a key new to a
// tracker with room is copied. The CLF records add IP, char, date and enum
// keys to Sirius's integers, strings, unions, options and arrays.
func TestAddAllocs(t *testing.T) {
	var sirius, clf bytes.Buffer
	cfg := datagen.DefaultSirius(20)
	cfg.SortViolations, cfg.SyntaxErrors = 0, 0
	if _, err := datagen.Sirius(&sirius, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := datagen.CLF(&clf, datagen.DefaultCLF(20)); err != nil {
		t.Fatal(err)
	}
	addAll := func(a *Accum, vals []value.Value) func() {
		return func() {
			for _, v := range vals {
				a.Add(v)
			}
		}
	}
	for _, c := range []struct {
		desc string
		data []byte
	}{{"sirius.pads", sirius.Bytes()}, {"clf.pads", clf.Bytes()}} {
		rr, err := compileFile(t, c.desc).NewRecordReader(padsrt.NewBytesSource(c.data), nil)
		if err != nil {
			t.Fatal(err)
		}
		var recs []value.Value
		for rr.More() {
			recs = append(recs, rr.Read())
		}
		seen := New(DefaultConfig())
		// Fill every quantile reservoir first: until a component's
		// sample holds reservoirSize values, appending to it may grow it.
		for i := 0; i < reservoirSize; i++ {
			addAll(seen, recs)()
		}
		if n := testing.AllocsPerRun(10, addAll(seen, recs)); n != 0 {
			t.Errorf("%s: adding %d already-seen records allocates %.1f times, want 0", c.desc, len(recs), n)
		}
	}

	full := New(Config{MaxTracked: 4})
	vals := make([]value.Value, 2*reservoirSize)
	for i := range vals {
		vals[i] = uintVal(uint64(i))
	}
	addAll(full, vals[:reservoirSize])()
	if n := testing.AllocsPerRun(10, addAll(full, vals[reservoirSize:])); n != 0 {
		t.Errorf("adding %d values to a full tracker allocates %.1f times, want 0", reservoirSize, n)
	}
}

// TestNumericKeysMatchFmt: the tracker keys Add formats without fmt are
// the strings fmt made of the same values, so reports are unchanged.
func TestNumericKeysMatchFmt(t *testing.T) {
	key := func(v value.Value) string {
		a := New(DefaultConfig())
		a.Add(v)
		if len(a.order) != 1 {
			t.Fatalf("%s tracked %d keys, want 1", value.String(v), len(a.order))
		}
		return a.order[0]
	}
	for _, u := range []uint64{0, 7, 1 << 32, math.MaxUint64} {
		if got, want := key(&value.Uint{Val: u}), fmt.Sprintf("%d", u); got != want {
			t.Errorf("uint key %q, want %q", got, want)
		}
	}
	for _, i := range []int64{0, -1, 42, math.MinInt64, math.MaxInt64} {
		if got, want := key(&value.Int{Val: i}), fmt.Sprintf("%d", i); got != want {
			t.Errorf("int key %q, want %q", got, want)
		}
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 0.1, -2.5, 1e21, 1e-7, 123456789, math.MaxFloat64,
		math.SmallestNonzeroFloat64, -2.2250738585072014e-308, math.Inf(1), math.Inf(-1), math.NaN()} {
		if got, want := key(&value.Float{Val: f}), fmt.Sprintf("%g", f); got != want {
			t.Errorf("float key %q, want %q", got, want)
		}
	}
	for _, c := range []byte{0, '-', 'a', 0x7f, 0x80, 0xe9, 0xff} {
		if got, want := key(&value.Char{Val: c}), string(rune(c)); got != want {
			t.Errorf("char key %q, want %q", got, want)
		}
	}
	for _, ip := range []uint32{0, 0x87cf1720, math.MaxUint32} {
		if got, want := key(&value.IP{Val: ip}), padsrt.FormatIP(ip); got != want {
			t.Errorf("ip key %q, want %q", got, want)
		}
	}
}
