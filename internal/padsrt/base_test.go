package padsrt

import (
	"strings"
	"testing"
	"testing/quick"
)

func src(data string, opts ...SourceOption) *Source {
	return NewBytesSource([]byte(data), opts...)
}

// recSrc opens a newline record around data so record-bounded readers work.
func recSrc(t *testing.T, data string, opts ...SourceOption) *Source {
	t.Helper()
	s := NewBytesSource([]byte(data+"\n"), opts...)
	ok, err := s.BeginRecord()
	if !ok || err != nil {
		t.Fatalf("BeginRecord: ok=%v err=%v", ok, err)
	}
	return s
}

func TestReadAUint(t *testing.T) {
	cases := []struct {
		in   string
		bits int
		want uint64
		code ErrCode
		rest string
	}{
		{"0|", 32, 0, ErrNone, "|"},
		{"12345|", 32, 12345, ErrNone, "|"},
		{"255", 8, 255, ErrNone, ""},
		{"256", 8, 256, ErrRange, ""},
		{"65535x", 16, 65535, ErrNone, "x"},
		{"65536x", 16, 65536, ErrRange, "x"},
		{"4294967295", 32, 4294967295, ErrNone, ""},
		{"4294967296", 32, 4294967296, ErrRange, ""},
		{"18446744073709551615", 64, 18446744073709551615, ErrNone, ""},
		{"18446744073709551616", 64, 0, ErrRange, ""}, // overflow detected
		{"abc", 32, 0, ErrInvalidInt, "abc"},
		{"-3", 32, 0, ErrInvalidInt, "-3"},
		{"", 32, 0, ErrAtEOR, ""},
	}
	for _, c := range cases {
		s := recSrc(t, c.in)
		v, code := ReadAUint(s, c.bits)
		if code != c.code {
			t.Errorf("ReadAUint(%q,%d) code = %v, want %v", c.in, c.bits, code, c.code)
			continue
		}
		if code == ErrNone && v != c.want {
			t.Errorf("ReadAUint(%q,%d) = %d, want %d", c.in, c.bits, v, c.want)
		}
		if got := string(s.Window(0)); got != c.rest {
			t.Errorf("ReadAUint(%q,%d) left %q, want %q", c.in, c.bits, got, c.rest)
		}
	}
}

func TestReadAInt(t *testing.T) {
	cases := []struct {
		in   string
		bits int
		want int64
		code ErrCode
	}{
		{"0", 32, 0, ErrNone},
		{"-1", 32, -1, ErrNone},
		{"+42", 32, 42, ErrNone},
		{"127", 8, 127, ErrNone},
		{"128", 8, 0, ErrRange},
		{"-128", 8, -128, ErrNone},
		{"-129", 8, 0, ErrRange},
		{"-9223372036854775808", 64, -9223372036854775808, ErrNone},
		{"9223372036854775807", 64, 9223372036854775807, ErrNone},
		{"-", 32, 0, ErrInvalidInt},
		{"x", 32, 0, ErrInvalidInt},
	}
	for _, c := range cases {
		s := recSrc(t, c.in)
		v, code := ReadAInt(s, c.bits)
		if code != c.code {
			t.Errorf("ReadAInt(%q,%d) code = %v, want %v", c.in, c.bits, code, c.code)
			continue
		}
		if code == ErrNone && v != c.want {
			t.Errorf("ReadAInt(%q,%d) = %d, want %d", c.in, c.bits, v, c.want)
		}
	}
}

func TestReadAUintFW(t *testing.T) {
	s := recSrc(t, "200 30")
	v, code := ReadAUintFW(s, 3, 16)
	if code != ErrNone || v != 200 {
		t.Fatalf("ReadAUintFW = %d,%v", v, code)
	}
	if got := string(s.Window(0)); got != " 30" {
		t.Fatalf("left %q", got)
	}
	// Leading spaces accepted; the full width is always consumed.
	s = recSrc(t, " 42x")
	v, code = ReadAUintFW(s, 3, 16)
	if code != ErrNone || v != 42 {
		t.Fatalf("ReadAUintFW(\" 42\") = %d,%v", v, code)
	}
	// Non-digit inside the field: width still consumed, error reported.
	s = recSrc(t, "2a0rest")
	_, code = ReadAUintFW(s, 3, 16)
	if code != ErrInvalidInt {
		t.Fatalf("code = %v", code)
	}
	if got := string(s.Window(0)); got != "rest" {
		t.Fatalf("left %q, want field consumed", got)
	}
	// Too short a record.
	s = recSrc(t, "12")
	if _, code = ReadAUintFW(s, 3, 16); code != ErrAtEOR {
		t.Fatalf("short field code = %v", code)
	}
}

func TestReadBIntRoundTrip(t *testing.T) {
	check := func(v int64, nbytes int, order ByteOrder) bool {
		// Mask v to the representable range.
		shift := uint(64 - nbytes*8)
		v = v << shift >> shift
		var buf []byte
		buf = AppendBUint(buf, uint64(v), nbytes, order)
		s := NewBytesSource(buf, WithDiscipline(NoRecords()), WithByteOrder(order))
		got, code := ReadBInt(s, nbytes)
		return code == ErrNone && got == v
	}
	for _, nbytes := range []int{1, 2, 4, 8} {
		for _, order := range []ByteOrder{BigEndian, LittleEndian} {
			nb, ord := nbytes, order
			if err := quick.Check(func(v int64) bool { return check(v, nb, ord) }, nil); err != nil {
				t.Errorf("nbytes=%d order=%v: %v", nbytes, order, err)
			}
		}
	}
}

func TestReadBUintOrders(t *testing.T) {
	s := NewBytesSource([]byte{0x12, 0x34}, WithDiscipline(NoRecords()))
	v, code := ReadBUint(s, 2)
	if code != ErrNone || v != 0x1234 {
		t.Fatalf("big-endian = %#x,%v", v, code)
	}
	s = NewBytesSource([]byte{0x12, 0x34}, WithDiscipline(NoRecords()), WithByteOrder(LittleEndian))
	v, code = ReadBUint(s, 2)
	if code != ErrNone || v != 0x3412 {
		t.Fatalf("little-endian = %#x,%v", v, code)
	}
}

func TestEBCDICRoundTripProperty(t *testing.T) {
	// ASCII printable bytes survive the EBCDIC round trip.
	f := func(b byte) bool {
		c := b%95 + 32 // printable ASCII
		return EBCDICToASCII(ASCIIToEBCDIC(c)) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReadEUint(t *testing.T) {
	data := StringToEBCDICBytes("12345|")
	s := NewBytesSource(data, WithDiscipline(NoRecords()), WithCoding(EBCDIC))
	v, code := ReadEUint(s, 32)
	if code != ErrNone || v != 12345 {
		t.Fatalf("ReadEUint = %d,%v", v, code)
	}
	if code := MatchChar(s, '|'); code != ErrNone {
		t.Fatalf("EBCDIC literal '|' = %v", code)
	}
}

func TestZonedRoundTrip(t *testing.T) {
	f := func(v int32) bool {
		val := int64(v) % 1000000000
		var buf []byte
		buf = WriteZoned(buf, val, 9)
		s := NewBytesSource(buf, WithDiscipline(NoRecords()))
		got, code := ReadZoned(s, 9)
		return code == ErrNone && got == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBCDRoundTrip(t *testing.T) {
	for _, digits := range []int{1, 2, 5, 7, 18} {
		d := digits
		var mod int64 = 1
		for i := 0; i < d && mod < 1e18; i++ {
			mod *= 10
		}
		f := func(v int64) bool {
			val := v % mod
			var buf []byte
			buf = WriteBCD(buf, val, d)
			if len(buf) != BCDWidth(d) {
				return false
			}
			s := NewBytesSource(buf, WithDiscipline(NoRecords()))
			got, code := ReadBCD(s, d)
			return code == ErrNone && got == val
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("digits=%d: %v", d, err)
		}
	}
}

func TestBCDInvalid(t *testing.T) {
	s := NewBytesSource([]byte{0xAB, 0x1C}, WithDiscipline(NoRecords()))
	if _, code := ReadBCD(s, 3); code != ErrInvalidBCD {
		t.Errorf("code = %v, want ErrInvalidBCD", code)
	}
}

func TestReadStringTerm(t *testing.T) {
	s := recSrc(t, "hello world")
	v, code := ReadStringTerm(s, ' ')
	if code != ErrNone || v != "hello" {
		t.Fatalf("= %q,%v", v, code)
	}
	// Terminator is not consumed.
	if b, _ := s.PeekByte(); b != ' ' {
		t.Fatalf("terminator consumed; at %c", b)
	}
	// Missing terminator: runs to end of record.
	s = recSrc(t, "noterm")
	v, code = ReadStringTerm(s, '|')
	if code != ErrNone || v != "noterm" {
		t.Fatalf("= %q,%v", v, code)
	}
	if !s.AtEOR() {
		t.Fatal("not at EOR")
	}
	// Empty string directly before terminator.
	s = recSrc(t, "|x")
	v, code = ReadStringTerm(s, '|')
	if code != ErrNone || v != "" {
		t.Fatalf("= %q,%v", v, code)
	}
}

func TestReadStringFW(t *testing.T) {
	s := recSrc(t, "abcdef")
	v, code := ReadStringFW(s, 4)
	if code != ErrNone || v != "abcd" {
		t.Fatalf("= %q,%v", v, code)
	}
	if _, code = ReadStringFW(s, 4); code != ErrAtEOR {
		t.Fatalf("short = %v", code)
	}
}

func TestRegexpBaseTypes(t *testing.T) {
	re := MustCompileRegexp(`[A-Z]+`)
	s := recSrc(t, "ABCdef")
	v, code := ReadStringME(s, re)
	if code != ErrNone || v != "ABC" {
		t.Fatalf("ME = %q,%v", v, code)
	}
	s = recSrc(t, "abc123def")
	v, code = ReadStringSE(s, MustCompileRegexp(`[0-9]+`))
	if code != ErrNone || v != "abc" {
		t.Fatalf("SE = %q,%v", v, code)
	}
	s = recSrc(t, "xyz")
	if _, code = ReadStringME(s, re); code != ErrInvalidRegexp {
		t.Fatalf("ME miss = %v", code)
	}
}

func TestLiterals(t *testing.T) {
	s := recSrc(t, `"GET /x HTTP/1.0"`)
	if code := MatchChar(s, '"'); code != ErrNone {
		t.Fatal(code)
	}
	if code := MatchString(s, "GET"); code != ErrNone {
		t.Fatal(code)
	}
	if code := MatchString(s, "GET"); code != ErrMissingLiteral {
		t.Fatalf("re-match = %v", code)
	}
	if code := MatchChar(s, ' '); code != ErrNone {
		t.Fatal(code)
	}
	if code := MatchRegexp(s, MustCompileRegexp(`/[a-z]+`)); code != ErrNone {
		t.Fatal(code)
	}
	if code := MatchString(s, ` HTTP/1.0"`); code != ErrNone {
		t.Fatal(code)
	}
	if code := MatchEOR(s); code != ErrNone {
		t.Fatal(code)
	}
}

func TestReadDate(t *testing.T) {
	s := recSrc(t, "15/Oct/1997:18:46:51 -0700]rest")
	sec, raw, code := ReadDate(s, ']')
	if code != ErrNone {
		t.Fatalf("code = %v", code)
	}
	if raw != "15/Oct/1997:18:46:51 -0700" {
		t.Fatalf("raw = %q", raw)
	}
	if sec != 876966411 {
		t.Fatalf("sec = %d", sec)
	}
	// Epoch seconds form (Sirius timestamps).
	s = recSrc(t, "1005022800|")
	sec, _, code = ReadDate(s, '|')
	if code != ErrNone || sec != 1005022800 {
		t.Fatalf("epoch = %d,%v", sec, code)
	}
	s = recSrc(t, "not-a-date|")
	if _, _, code = ReadDate(s, '|'); code != ErrInvalidDate {
		t.Fatalf("bad date = %v", code)
	}
}

func TestFormatDate(t *testing.T) {
	// 876966411 = 16/Oct/1997 01:46:51 UTC.
	if got := FormatDate(876966411, "%D:%T"); got != "10/16/97:01:46:51" {
		t.Errorf("FormatDate %%D:%%T = %q", got)
	}
	if got := FormatDate(876966411, "%Y-%m-%d"); got != "1997-10-16" {
		t.Errorf("FormatDate = %q", got)
	}
	if got := FormatDate(0, "%s%%"); got != "0%" {
		t.Errorf("FormatDate = %q", got)
	}
}

func TestReadIP(t *testing.T) {
	s := recSrc(t, "135.207.23.32 -")
	v, code := ReadIP(s)
	if code != ErrNone {
		t.Fatalf("code = %v", code)
	}
	if FormatIP(v) != "135.207.23.32" {
		t.Fatalf("ip = %s", FormatIP(v))
	}
	for _, bad := range []string{"256.1.1.1", "1.2.3", "1.2.3.4.5", "a.b.c.d", "1.2.3.999"} {
		s := recSrc(t, bad+" ")
		if _, code := ReadIP(s); code != ErrInvalidIP {
			t.Errorf("ReadIP(%q) = %v, want ErrInvalidIP", bad, code)
		}
	}
}

func TestFormatIPRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		s := recSrc(t, FormatIP(v)+" ")
		got, code := ReadIP(s)
		return code == ErrNone && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReadHostname(t *testing.T) {
	s := recSrc(t, "www.research.att.com -")
	v, code := ReadHostname(s)
	if code != ErrNone || v != "www.research.att.com" {
		t.Fatalf("= %q,%v", v, code)
	}
	s = recSrc(t, "tj62.aol.com rest")
	v, code = ReadHostname(s)
	if code != ErrNone || v != "tj62.aol.com" {
		t.Fatalf("= %q,%v", v, code)
	}
	// A bare dash (the CLF "not recorded" marker) is not a hostname.
	s = recSrc(t, "- -")
	if _, code = ReadHostname(s); code != ErrInvalidHostname {
		t.Fatalf("dash = %v", code)
	}
	// Pure digits are not a hostname (an IP must not match).
	s = recSrc(t, "12.34.56.78 x")
	if _, code = ReadHostname(s); code != ErrInvalidHostname {
		t.Fatalf("digits = %v", code)
	}
}

func TestReadZip(t *testing.T) {
	s := recSrc(t, "07988|")
	v, code := ReadZip(s)
	if code != ErrNone || v != "07988" {
		t.Fatalf("= %q,%v", v, code)
	}
	s = recSrc(t, "07733-1234|")
	v, code = ReadZip(s)
	if code != ErrNone || v != "07733-1234" {
		t.Fatalf("zip+4 = %q,%v", v, code)
	}
	for _, bad := range []string{"1234|", "123456|", "abcde|"} {
		s := recSrc(t, bad)
		if _, code := ReadZip(s); code != ErrInvalidZip {
			t.Errorf("ReadZip(%q) = %v, want ErrInvalidZip", bad, code)
		}
	}
}

func TestReadAFloat(t *testing.T) {
	cases := []struct {
		in   string
		want float64
		code ErrCode
	}{
		{"3.14|", 3.14, ErrNone},
		{"-2.5e3|", -2500, ErrNone},
		{"42|", 42, ErrNone},
		{".5|", 0.5, ErrNone},
		{"-.5|", -0.5, ErrNone},
		{"abc|", 0, ErrInvalidFloat},
		{".|", 0, ErrInvalidFloat},
	}
	for _, c := range cases {
		s := recSrc(t, c.in)
		v, code := ReadAFloat(s, 64)
		if code != c.code || (code == ErrNone && v != c.want) {
			t.Errorf("ReadAFloat(%q) = %v,%v want %v,%v", c.in, v, code, c.want, c.code)
		}
	}
	// "1e" consumes the mantissa only; the exponent must be complete.
	s := recSrc(t, "1ex")
	v, code := ReadAFloat(s, 64)
	if code != ErrNone || v != 1 {
		t.Fatalf("1e = %v,%v", v, code)
	}
	if got := string(s.Window(0)); got != "ex" {
		t.Fatalf("left %q", got)
	}
}

func TestPDErrorPropagation(t *testing.T) {
	var parent, child PD
	child.SetError(ErrInvalidInt, Loc{})
	child.SetError(ErrRange, Loc{})
	if child.Nerr != 2 || child.ErrCode != ErrInvalidInt {
		t.Fatalf("child = %v", &child)
	}
	parent.AddChildErrors(&child, ErrStructField)
	// The parent inherits the child's specific first-error code.
	if parent.Nerr != 2 || parent.ErrCode != ErrInvalidInt || parent.State != Partial {
		t.Fatalf("parent = %v", &parent)
	}
	var fallback, codeless PD
	codeless.Nerr = 1
	fallback.AddChildErrors(&codeless, ErrStructField)
	if fallback.ErrCode != ErrStructField {
		t.Fatalf("fallback code = %v", fallback.ErrCode)
	}
	var panicking PD
	panicking.State = Panicking
	panicking.SetError(ErrPanicSkipped, Loc{})
	parent.AddChildErrors(&panicking, ErrStructField)
	if parent.State != Panicking {
		t.Fatalf("state = %v", parent.State)
	}
}

func TestErrClass(t *testing.T) {
	cases := map[ErrCode]Class{
		ErrNone:           ClassNone,
		ErrIO:             ClassSystem,
		ErrMissingLiteral: ClassSyntax,
		ErrConstraint:     ClassSemantic,
		ErrWhere:          ClassSemantic,
		ErrPanicSkipped:   ClassSyntax,
	}
	for code, want := range cases {
		if got := code.Class(); got != want {
			t.Errorf("%v.Class() = %v, want %v", code, got, want)
		}
	}
}

func TestMaskTree(t *testing.T) {
	var nilNode *MaskNode
	if nilNode.BaseMask() != CheckAndSet || nilNode.CompoundMask() != CheckAndSet {
		t.Fatal("nil mask must mean CheckAndSet")
	}
	if nilNode.Field("x") != nil || nilNode.ElemMask() != nil {
		t.Fatal("nil mask subtrees must be nil")
	}
	m := NewMaskNode(CheckAndSet)
	m.SetField("events", NewMaskNode(Set))
	if m.Field("events").BaseMask() != Set {
		t.Fatal("explicit field mask lost")
	}
	if m.Field("other").BaseMask() != CheckAndSet {
		t.Fatal("missing field must inherit base")
	}
	ign := NewMaskNode(Ignore)
	if got := ign.Field("x").BaseMask(); got != Ignore {
		t.Fatalf("inherited = %v", got)
	}
	if Ignore.DoSet() || Ignore.DoCheck() || !CheckAndSet.DoSet() || !CheckAndSet.DoCheck() {
		t.Fatal("mask bits wrong")
	}
	if Set.DoCheck() || !Set.DoSet() || Check.DoSet() || !Check.DoCheck() {
		t.Fatal("mask bits wrong")
	}
}

func TestStringTermEBCDIC(t *testing.T) {
	data := StringToEBCDICBytes("hello|world")
	s := NewBytesSource(data, WithDiscipline(NoRecords()), WithCoding(EBCDIC))
	v, code := ReadStringTerm(s, '|')
	if code != ErrNone || v != "hello" {
		t.Fatalf("= %q,%v", v, code)
	}
}

func TestLongRecordStringScan(t *testing.T) {
	// Exercise the incremental window growth in ReadStringTerm with an
	// unbounded discipline and a terminator beyond the first fill chunk.
	long := strings.Repeat("a", 10000) + "|tail"
	s := NewSource(strings.NewReader(long), WithDiscipline(NoRecords()))
	if ok, _ := s.BeginRecord(); !ok {
		t.Fatal("BeginRecord")
	}
	v, code := ReadStringTerm(s, '|')
	if code != ErrNone || len(v) != 10000 {
		t.Fatalf("len = %d code = %v", len(v), code)
	}
}

// TestMaskLookupAllocs pins the mask lookups a parse under a uniform mask
// makes per field and element: a node with no per-field or element entries
// is its own inherited subtree, so the lookups allocate nothing.
func TestMaskLookupAllocs(t *testing.T) {
	for _, m := range []Mask{Set, Check, Ignore} {
		root := NewMaskNode(m)
		allocs := testing.AllocsPerRun(100, func() {
			rec := root.Field("header").Field("order_num")
			ev := root.Field("events").ElemMask().Field("tstamp")
			if rec.BaseMask() != m || ev.BaseMask() != m || root.ElemMask().CompoundMask() != m {
				t.Fatalf("%v: inherited masks changed", m)
			}
		})
		if allocs != 0 {
			t.Errorf("%v mask lookups allocate %.1f times, want 0", m, allocs)
		}
	}
	// A node with entries still hands a missing field a fresh node with its
	// own masks, never itself: the caller's entries do not leak into the
	// subtree.
	m := &MaskNode{Base: Set, Compound: Check}
	m.SetField("events", NewMaskNode(Ignore))
	sub := m.Field("other")
	if sub == m || sub.BaseMask() != Set || sub.CompoundMask() != Check || sub.Fields != nil {
		t.Fatalf("missing entry = %+v, want a fresh {Set, Check} node", sub)
	}
	m.Elem = NewMaskNode(Ignore)
	if got := m.Field("other"); got == m || got.Elem != nil || got.BaseMask() != Set {
		t.Fatalf("missing entry beside an Elem mask = %+v", got)
	}
	plain := &MaskNode{Base: Set, Compound: Check}
	if plain.Field("x") != plain || plain.ElemMask() != plain {
		t.Fatal("a node with no entries must be its own inherited subtree")
	}
}
