package clf

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"pads/internal/datagen"
	"pads/internal/dsl"
	"pads/internal/interp"
	"pads/internal/padsrt"
	"pads/internal/sema"
	"pads/internal/value"
)

func figure2(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "..", "testdata", "clf.sample"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestGeneratedParsesFigure2(t *testing.T) {
	s := padsrt.NewBytesSource(figure2(t))
	var recs []Entry_t
	for s.More() {
		var e Entry_t
		var epd Entry_tPD
		ReadEntry_t(s, nil, &epd, &e)
		if epd.PD.Nerr != 0 {
			t.Fatalf("errors: %v", epd.PD)
		}
		recs = append(recs, e)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	r0 := recs[0]
	if r0.Client.Tag != Client_tTagIp || padsrt.FormatIP(r0.Client.Ip) != "207.136.97.49" {
		t.Errorf("client = %+v", r0.Client)
	}
	if r0.RemoteID.Tag != Auth_id_tTagUnauthorized {
		t.Errorf("remoteID = %+v", r0.RemoteID)
	}
	if r0.Request.Meth != Method_t_GET || r0.Request.Meth.String() != "GET" {
		t.Errorf("method = %v", r0.Request.Meth)
	}
	if r0.Request.Req_uri != "/tk/p.txt" {
		t.Errorf("uri = %q", r0.Request.Req_uri)
	}
	if r0.Request.Version.Major != 1 || r0.Request.Version.Minor != 0 {
		t.Errorf("version = %+v", r0.Request.Version)
	}
	if r0.Response != 200 || r0.Length != 30 {
		t.Errorf("response/length = %d/%d", r0.Response, r0.Length)
	}
	if r0.Date.Raw != "15/Oct/1997:18:46:51 -0700" {
		t.Errorf("date = %+v", r0.Date)
	}
	r1 := recs[1]
	if r1.Client.Tag != Client_tTagHost || r1.Client.Host != "tj62.aol.com" {
		t.Errorf("client1 = %+v", r1.Client)
	}
	if r1.Request.Meth != Method_t_POST {
		t.Errorf("method1 = %v", r1.Request.Meth)
	}
}

func TestGeneratedWriteRoundTrip(t *testing.T) {
	data := figure2(t)
	s := padsrt.NewBytesSource(data)
	var out []byte
	for s.More() {
		var e Entry_t
		var epd Entry_tPD
		ReadEntry_t(s, nil, &epd, &e)
		out = WriteEntry_t(out, &e)
	}
	if !bytes.Equal(out, data) {
		t.Errorf("round trip mismatch:\n--- in\n%s\n--- out\n%s", data, out)
	}
}

func TestResponseConstraintAndChkVersion(t *testing.T) {
	cases := []struct {
		line string
		ok   bool
		code padsrt.ErrCode
	}{
		{`1.2.3.4 - - [15/Oct/1997:18:46:51 -0700] "GET /x HTTP/1.0" 200 5`, true, padsrt.ErrNone},
		{`1.2.3.4 - - [15/Oct/1997:18:46:51 -0700] "GET /x HTTP/1.0" 999 5`, false, padsrt.ErrConstraint},
		{`1.2.3.4 - - [15/Oct/1997:18:46:51 -0700] "LINK /x HTTP/1.0" 200 5`, false, padsrt.ErrConstraint},
		{`1.2.3.4 - - [15/Oct/1997:18:46:51 -0700] "LINK /x HTTP/1.1" 200 5`, true, padsrt.ErrNone},
		{`1.2.3.4 - - [15/Oct/1997:18:46:51 -0700] "GET /x HTTP/1.0" 200 -`, false, padsrt.ErrInvalidInt},
	}
	for _, c := range cases {
		s := padsrt.NewBytesSource([]byte(c.line + "\n"))
		var e Entry_t
		var epd Entry_tPD
		ReadEntry_t(s, nil, &epd, &e)
		if (epd.PD.Nerr == 0) != c.ok {
			t.Errorf("%q: nerr = %d, want ok=%v", c.line, epd.PD.Nerr, c.ok)
			continue
		}
		if !c.ok && epd.PD.ErrCode != c.code {
			t.Errorf("%q: code = %v, want %v", c.line, epd.PD.ErrCode, c.code)
		}
	}
}

func TestDifferentialAgainstInterp(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "..", "testdata", "clf.pads"))
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
	in, err := interp.New(desc)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}

	var buf bytes.Buffer
	if _, err := datagen.CLF(&buf, datagen.DefaultCLF(500)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// The generated-code leg of the three-way IR conformance: bytecode VM
	// vs generated code. interp's TestVMConformGenCorpora checks the VM
	// against the reference AST walk on this corpus.
	si := padsrt.NewBytesSource(data)
	rr, err := in.NewRecordReader(si, nil)
	if err != nil {
		t.Fatal(err)
	}
	sg := padsrt.NewBytesSource(data)
	rec := 0
	for rr.More() {
		iv := rr.Read()
		var e Entry_t
		var epd Entry_tPD
		ReadEntry_t(sg, nil, &epd, &e)
		gv := Entry_tToValue(&e, &epd)
		if (iv.PD().Nerr == 0) != (gv.PD().Nerr == 0) {
			t.Fatalf("record %d: interp nerr=%d generated nerr=%d", rec, iv.PD().Nerr, gv.PD().Nerr)
		}
		if iv.PD().Nerr == 0 && !value.Equal(iv, gv) {
			t.Fatalf("record %d differs:\ninterp:    %s\ngenerated: %s", rec, value.String(iv), value.String(gv))
		}
		rec++
	}
	if rec != 500 || sg.More() {
		t.Fatalf("records = %d, generated leftover=%v", rec, sg.More())
	}
}

func TestIgnoreMaskSkipsStores(t *testing.T) {
	mask := NewEntry_tMask(padsrt.Ignore)
	s := padsrt.NewBytesSource(figure2(t))
	var e Entry_t
	var epd Entry_tPD
	ReadEntry_t(s, mask, &epd, &e)
	if epd.PD.Nerr != 0 {
		t.Fatalf("ignore-mask read flagged: %v", epd.PD)
	}
	if e.Length != 0 || e.Request.Req_uri != "" {
		t.Errorf("ignore mask stored values: %+v", e)
	}
}
