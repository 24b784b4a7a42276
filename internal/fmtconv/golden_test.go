package fmtconv

import (
	"bufio"
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"pads/internal/datagen"
	"pads/internal/fault"
	"pads/internal/padsrt"
	"pads/internal/value"
)

var update = flag.Bool("update", false, "rewrite the golden delimited files in testdata")

// TestFormatGolden pins WriteRecord's output byte for byte over the CLF and
// Sirius datagen corpora, as padsfmt writes it: every record, one line each.
// CLF formats its dates with %D:%T; Sirius nests three delimiters so struct,
// array and leaf levels each take their own. The byte-corrupted copies add
// errored records, absent optionals and arbitrary bytes in leaves.
// Regenerate with go test -run TestFormatGolden -update, and only for a
// change meant to alter the delimited output.
func TestFormatGolden(t *testing.T) {
	var clf, sirius bytes.Buffer
	if _, err := datagen.CLF(&clf, datagen.DefaultCLF(60)); err != nil {
		t.Fatal(err)
	}
	if _, err := datagen.Sirius(&sirius, datagen.DefaultSirius(40)); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		golden, desc string
		data         []byte
		delims       []string
		dateFmt      string
	}{
		{"clf.txt", "clf.pads", clf.Bytes(), []string{"|"}, "%D:%T"},
		{"clf-corrupt.txt", "clf.pads", fault.CorruptKeeping(clf.Bytes(), 7, 0.02, '\n'), []string{"|"}, "%D:%T"},
		{"sirius.txt", "sirius.pads", sirius.Bytes(), []string{"|", ";", ","}, ""},
		{"sirius-corrupt.txt", "sirius.pads", fault.CorruptKeeping(sirius.Bytes()[:sirius.Len()/2], 7, 0.01, '\n'), []string{"|", ";", ","}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			in := compileFile(t, tc.desc)
			rr, err := in.NewRecordReader(padsrt.NewBytesSource(tc.data), nil)
			if err != nil {
				t.Fatal(err)
			}
			f := New(tc.delims...)
			f.DateFormat = tc.dateFmt
			var out bytes.Buffer
			bad := 0
			for rr.More() {
				v := rr.Read()
				if v.PD().Nerr > 0 {
					bad++
				}
				if _, err := f.WriteRecord(&out, v); err != nil {
					t.Fatal(err)
				}
			}
			if bad == 0 {
				t.Fatal("corpus has no bad records")
			}
			path := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				got := out.Bytes()
				i := 0
				for i < len(got) && i < len(want) && got[i] == want[i] {
					i++
				}
				lo := max(0, i-80)
				t.Fatalf("output differs from %s at byte %d of %d (want %d bytes):\n got …%q\nwant …%q",
					path, i, len(got), len(want), got[lo:min(len(got), i+80)], want[lo:min(len(want), i+80)])
			}
		})
	}
}

// TestAppendAllocs pins the delimited formatter to no allocations per
// record: Append renders into the caller's buffer, and WriteRecord into a
// *bytes.Buffer or *bufio.Writer renders into the writer's own free space.
// The Sirius corpus (clean and corrupted) covers structs, arrays, unions,
// options, integers, strings and enums. Dates formatted with DateFormat
// and IP addresses still build a string each, so CLF is not pinned.
func TestAppendAllocs(t *testing.T) {
	var sirius bytes.Buffer
	if _, err := datagen.Sirius(&sirius, datagen.DefaultSirius(200)); err != nil {
		t.Fatal(err)
	}
	in := compileFile(t, "sirius.pads")
	var recs []value.Value
	for _, data := range [][]byte{sirius.Bytes(), fault.CorruptKeeping(sirius.Bytes(), 7, 0.01, '\n')} {
		rr, err := in.NewRecordReader(padsrt.NewBytesSource(data), nil)
		if err != nil {
			t.Fatal(err)
		}
		for rr.More() {
			recs = append(recs, rr.Read())
		}
	}
	f := New("|", ";", ",")
	buf := make([]byte, 0, 64<<10)
	var out bytes.Buffer
	out.Grow(64 << 10)
	bw := bufio.NewWriterSize(io.Discard, 64<<10)
	for name, pass := range map[string]func(){
		"Append": func() {
			for _, r := range recs {
				buf = f.Append(buf[:0], r)
			}
		},
		"WriteRecord/bytes.Buffer": func() {
			for _, r := range recs {
				out.Reset()
				f.WriteRecord(&out, r)
			}
		},
		"WriteRecord/bufio.Writer": func() {
			for _, r := range recs {
				f.WriteRecord(bw, r)
				bw.Flush()
			}
		},
	} {
		if got := testing.AllocsPerRun(20, pass) / float64(len(recs)); got != 0 {
			t.Errorf("%s: %.2f allocations per record, want 0", name, got)
		}
	}
}
