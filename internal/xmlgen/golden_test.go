package xmlgen

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"pads/internal/datagen"
	"pads/internal/fault"
	"pads/internal/padsrt"
)

var update = flag.Bool("update", false, "rewrite the golden XML files in testdata")

// TestWriteXMLGolden pins WriteXML's output byte for byte over the CLF and
// Sirius datagen corpora, as padsxml writes it: the header and then every
// record, each one level deep. The corpora carry the generators' bad
// records (CLF '-' lengths, a Sirius sort violation and syntax error), and
// byte-corrupted copies add descriptors of every depth and characters that
// need escaping. Regenerate with go test -run
// TestWriteXMLGolden -update, and only for a change meant to alter the XML.
func TestWriteXMLGolden(t *testing.T) {
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
	}{
		{"clf.xml", "clf.pads", clf.Bytes()},
		{"clf-corrupt.xml", "clf.pads", fault.CorruptKeeping(clf.Bytes(), 7, 0.02, '\n')},
		{"sirius.xml", "sirius.pads", sirius.Bytes()},
		{"sirius-corrupt.xml", "sirius.pads", fault.CorruptKeeping(sirius.Bytes()[:sirius.Len()/2], 7, 0.01, '\n')},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			_, in := load(t, tc.desc)
			rr, err := in.NewRecordReader(padsrt.NewBytesSource(tc.data), nil)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if h := rr.Header(); h != nil {
				if err := WriteXML(&out, h, "header", 1); err != nil {
					t.Fatal(err)
				}
			}
			bad := 0
			for rr.More() {
				v := rr.Read()
				if v.PD().Nerr > 0 {
					bad++
				}
				if err := WriteXML(&out, v, rr.RecordTypeName(), 1); err != nil {
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
				t.Fatalf("XML differs from %s at byte %d of %d (want %d bytes):\n got …%q\nwant …%q",
					path, i, len(got), len(want), got[lo:min(len(got), i+80)], want[lo:min(len(want), i+80)])
			}
		})
	}
}
