package interp

import (
	"testing"

	"pads/internal/dsl"
	"pads/internal/padsrt"
	"pads/internal/sema"
)

// FuzzParseCLF feeds arbitrary bytes to the CLF parser: it must never
// panic, must always terminate, and must account for every record (clean or
// flagged). The seeds run as regression cases in normal test runs.
func FuzzParseCLF(f *testing.F) {
	seeds := [][]byte{
		[]byte(""),
		[]byte("\n"),
		[]byte("207.136.97.49 - - [15/Oct/1997:18:46:51 -0700] \"GET /tk/p.txt HTTP/1.0\" 200 30\n"),
		[]byte("garbage\n"),
		[]byte("1.2.3.4 - - [bad date] \"GET / HTTP/1.0\" 200 -\n"),
		[]byte("1.2.3.4 - - [15/Oct/1997:18:46:51 -0700] \"ZZZ / HTTP/9.9\" 999 1e9\n"),
		{0xFF, 0xFE, 0x00, '\n', '|', '|'},
		[]byte("\n\n\n\n"),
	}
	for _, s := range seeds {
		f.Add(s)
	}

	src, err := testdataBytes("clf.pads")
	if err != nil {
		f.Fatal(err)
	}
	prog, errs := dsl.Parse(string(src))
	if len(errs) > 0 {
		f.Fatal(errs[0])
	}
	desc, serrs := sema.Check(prog)
	if len(serrs) > 0 {
		f.Fatal(serrs[0])
	}
	in, err := New(desc)
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s := padsrt.NewBytesSource(data)
		rr, err := in.NewRecordReader(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		records := 0
		for rr.More() {
			rec := rr.Read()
			if rec == nil {
				t.Fatal("nil record")
			}
			records++
			if records > len(data)+2 {
				t.Fatalf("runaway: %d records from %d bytes", records, len(data))
			}
		}
	})
}

// FuzzParseSirius does the same for the Sirius description, whose nested
// arrays and unions exercise more recovery paths.
func FuzzParseSirius(f *testing.F) {
	seeds := [][]byte{
		[]byte("0|1005022800\n1|1|1|0|0|0|0||1|T|0|u|s|A|1000\n"),
		[]byte("0|x\n"),
		[]byte("||||||||||||||\n"),
		[]byte("1|1|1|0|0|0|0||1|T|0|u|s|A|2000|B|1000\n"),
		[]byte("no_ii|no_ii|no_ii\n"),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	src, err := testdataBytes("sirius.pads")
	if err != nil {
		f.Fatal(err)
	}
	prog, errs := dsl.Parse(string(src))
	if len(errs) > 0 {
		f.Fatal(errs[0])
	}
	desc, serrs := sema.Check(prog)
	if len(serrs) > 0 {
		f.Fatal(serrs[0])
	}
	in, err := New(desc)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := padsrt.NewBytesSource(data)
		v, err := in.ParseSource(s)
		if err != nil {
			return // I/O-style failure is fine; panics are not
		}
		_ = v.PD()
	})
}

// FuzzInterpParse co-fuzzes both axes at once: an arbitrary description AND
// arbitrary data. Any description that compiles cleanly must parse any byte
// string without panicking, without unbounded memory (the resource guards
// are armed), and must terminate — the never-die contract with no fixed
// description to lean on. Real description/data pairs from testdata/ seed
// the corpus.
func FuzzInterpParse(f *testing.F) {
	for _, pair := range [][2]string{{"clf.pads", "clf.sample"}, {"sirius.pads", "sirius.sample"}} {
		descSrc, err := testdataBytes(pair[0])
		if err != nil {
			f.Fatal(err)
		}
		data, err := testdataBytes(pair[1])
		if err != nil {
			f.Fatal(err)
		}
		if len(data) > 512 {
			data = data[:512]
		}
		f.Add(string(descSrc), data)
	}
	f.Add(`Psource Precord Pstruct r { Puint8 x; Peor; };`, []byte("1\nx\n300\n"))
	f.Add(`Parray inner { Pstring(:'|':) : Psep('|'); }; Psource Precord Pstruct r { inner v; Peor; };`,
		[]byte("a|b||c\n"))
	f.Add(`Punion u { Pip a; Puint32 b; Pstring(:' ':) s; }; Psource Precord Pstruct r { u v; Peor; };`,
		[]byte("1.2.3.4\nhello\n99\n"))

	f.Fuzz(func(t *testing.T, descSrc string, data []byte) {
		if len(descSrc) > 4096 || len(data) > 4096 {
			return // keep per-input work small; coverage, not throughput
		}
		prog, errs := dsl.Parse(descSrc)
		if len(errs) > 0 {
			return
		}
		desc, serrs := sema.Check(prog)
		if len(serrs) > 0 {
			return
		}
		s := padsrt.NewBytesSource(data, padsrt.WithLimits(padsrt.Limits{
			MaxRecordLen: 1 << 16,
			MaxSpecBytes: 1 << 16,
			MaxSpecDepth: 64,
		}))
		in, err := New(desc)
		if err != nil {
			t.Fatalf("checked description does not lower: %v", err)
		}
		v, err := in.ParseSource(s)
		if err != nil {
			return // structured failure is fine; panics and hangs are not
		}
		_ = v.PD()
	})
}
