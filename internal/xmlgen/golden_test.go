package xmlgen

import (
	"bytes"
	"encoding/xml"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
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

// TestGoldenXMLWellFormed parses every golden with encoding/xml, wrapped in
// one root element as padsxml wraps its records: the corrupted corpora's
// control bytes and broken UTF-8 must still give well-formed XML.
func TestGoldenXMLWellFormed(t *testing.T) {
	for _, name := range []string{"clf.xml", "clf-corrupt.xml", "sirius.xml", "sirius-corrupt.xml"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		d := xml.NewDecoder(io.MultiReader(strings.NewReader("<records>"), bytes.NewReader(data), strings.NewReader("</records>")))
		for {
			_, err := d.Token()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Errorf("%s: %v", name, err)
				break
			}
		}
	}
}

func TestEscapeRepairsText(t *testing.T) {
	for in, want := range map[string]string{
		"a<b & \"c\">":      "a&lt;b &amp; &quot;c&quot;&gt;",
		"tab\tnl\ncr\r":     "tab\tnl\ncr\r",
		"st\x10ff\x00":      "st\uFFFDff\uFFFD",
		"\xb74 caf\u00e9":   "\uFFFD4 caf\u00e9",
		"\xef\xbf\xbe<\x7f": "\uFFFD&lt;\x7f",
	} {
		if got := escape(in); got != want {
			t.Errorf("escape(%q) = %q, want %q", in, got, want)
		}
	}
}
