package segment_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"pads/internal/core"
	"pads/internal/padsrt"
	"pads/internal/segment"
)

// FuzzManifestPeek feeds arbitrary bytes to Peek as a manifest file. A
// manifest is read back after crashes, and from whatever file a -resume flag
// or a padsd resume request names, so every input must come back as an Info
// or an error, never a panic, and Peek must leave the file as it found it.
// The seeds are a real job's manifest and torn prefixes of it; before
// fuzzing, every prefix of that manifest is checked to read as an error or
// as a job with no more commits than the whole file, complete only when
// nothing was torn off.
func FuzzManifestPeek(f *testing.F) {
	desc, err := core.CompileFile("../../testdata/clf.pads")
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	dataPath := filepath.Join(dir, "data.log")
	data := clfCorpus(900)
	if err := os.WriteFile(dataPath, data, 0o644); err != nil {
		f.Fatal(err)
	}
	df, err := os.Open(dataPath)
	if err != nil {
		f.Fatal(err)
	}
	defer df.Close()
	manifest := filepath.Join(dir, "job.manifest")
	if _, err := segment.Run(segment.Config{
		Interp:   desc.Interp,
		DescHash: segment.HashBytes([]byte(desc.Source)),
		Data:     df,
		DataPath: dataPath,
		DataSize: int64(len(data)),
		Source:   []padsrt.SourceOption{padsrt.WithDiscipline(padsrt.Newline())},
		SegSize:  64 << 10,
		Workers:  2,
		Manifest: manifest,
		QuarPath: filepath.Join(dir, "job.quar"),
	}); err != nil {
		f.Fatal(err)
	}
	real, err := os.ReadFile(manifest)
	if err != nil {
		f.Fatal(err)
	}
	whole, err := segment.Peek(manifest)
	if err != nil || !whole.Complete || whole.Committed < 2 {
		f.Fatalf("real manifest: %+v, %v; want a complete job of several segments", whole, err)
	}

	path := filepath.Join(dir, "fuzz.manifest")
	peek := func(tb testing.TB, data []byte) (segment.Info, error) {
		tb.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			tb.Fatal(err)
		}
		info, err := segment.Peek(path)
		if after, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(after, data) {
			tb.Fatalf("Peek changed the file: %d bytes written, %d read back (%v)", len(data), len(after), rerr)
		}
		return info, err
	}
	for cut := 0; cut <= len(real); cut++ {
		info, err := peek(f, real[:cut])
		if err != nil {
			continue
		}
		if info.Committed > whole.Committed || (info.Complete && cut < len(real)) {
			f.Fatalf("prefix of %d/%d bytes reads as %+v", cut, len(real), info)
		}
	}

	f.Add(real)
	for _, cut := range []int{len(real) / 3, len(real) / 2, len(real) - 1} {
		f.Add(real[:cut])
	}
	f.Add([]byte("{\"kind\":\"job\"}\n"))
	f.Add([]byte("{\"kind\":\"seg\",\"index\":0}\n{\"kind\":\"seg\",\"index\":0}\n"))
	f.Add([]byte("not json\n{}\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		info, err := peek(t, data)
		if err == nil && info.Committed < 0 {
			t.Fatalf("negative commit count: %+v", info)
		}
	})
}
