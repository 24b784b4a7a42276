package pads_test

// Cross-path agreement for the three derived outputs — the accumulator
// report (section 5.2), delimited text (5.3.1) and XML (5.3.2): each is
// written byte for byte the same by the sequential CLI, the out-of-core
// CLI, the padsd stream endpoint and a padsd /v1/jobs result.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pads/internal/datagen"
	"pads/internal/fault"
	"pads/internal/padsd"
)

// outputCase names one output on each path: the CLI tool, the padsd
// stream endpoint and the padsd job mode.
type outputCase struct {
	name, tool, stream, jobMode string
}

// TestCrossPathOutputAgreement: on the datagen CLF corpus and a corrupted
// copy, each output is byte-identical across the four paths. The corpus
// stays under the accumulator's 1024-value quantile sample and 1000 tracked
// values, so merged segment accumulators report exactly what one sequential
// accumulator does; the report is compared without -field, which jobs lack.
func TestCrossPathOutputAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped with -short")
	}
	bin := buildTools(t)
	var clf bytes.Buffer
	if _, err := datagen.CLF(&clf, datagen.DefaultCLF(900)); err != nil {
		t.Fatal(err)
	}
	corpora := []struct {
		name string
		data []byte
	}{
		{"clean", clf.Bytes()},
		{"corrupt", fault.Corrupt(clf.Bytes(), 41, 0.002)},
	}

	jobDir := t.TempDir()
	srv := padsd.New(padsd.Config{JobDir: jobDir, JobSegmentSize: 64 << 10, JobWorkers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	descSrc, err := os.ReadFile("testdata/clf.pads")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/descriptions?name=clf", "text/plain", bytes.NewReader(descSrc))
	if err != nil {
		t.Fatal(err)
	}
	var info padsd.DescInfo
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	cases := []outputCase{
		{name: "accum", tool: "padsacc", stream: "accum", jobMode: "accum"},
		{name: "fmt", tool: "padsfmt", stream: "csv", jobMode: "csv"},
		{name: "xml", tool: "padsxml", stream: "xml", jobMode: "xml"},
	}
	for _, corpus := range corpora {
		work := t.TempDir()
		dataPath := filepath.Join(work, "clf.data")
		if err := os.WriteFile(dataPath, corpus.data, 0o644); err != nil {
			t.Fatal(err)
		}
		jobFile := corpus.name + ".data"
		if err := os.WriteFile(filepath.Join(jobDir, jobFile), corpus.data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, oc := range cases {
			t.Run(corpus.name+"/"+oc.name, func(t *testing.T) {
				got := map[string][]byte{}
				got["sequential"] = cliOutput(t, bin, oc, work, dataPath, false)
				got["out-of-core"] = cliOutput(t, bin, oc, work, dataPath, true)
				got["padsd stream"] = streamOutput(t, ts.URL, info.ID, oc.stream, corpus.data)
				got["padsd job"] = jobOutput(t, ts.URL, info.ID, oc.jobMode, jobFile)
				want := got["sequential"]
				if len(want) == 0 {
					t.Fatal("sequential output is empty")
				}
				if corpus.name == "clean" && oc.name == "accum" && !bytes.Contains(want, []byte("900 records\n\n")) {
					t.Fatalf("accumulator report does not count 900 records:\n%.200s", want)
				}
				for _, path := range []string{"out-of-core", "padsd stream", "padsd job"} {
					if g := got[path]; !bytes.Equal(g, want) {
						i := 0
						for i < len(g) && i < len(want) && g[i] == want[i] {
							i++
						}
						lo := max(0, i-80)
						t.Errorf("%s differs from sequential at byte %d (%d vs %d bytes):\n got …%q\nwant …%q",
							path, i, len(g), len(want), g[lo:min(len(g), i+80)], want[lo:min(len(want), i+80)])
					}
				}
			})
		}
	}
}

// cliOutput runs the case's CLI over dataPath, sequentially or out of core
// with two workers and 64k segments, and returns what it wrote.
func cliOutput(t *testing.T, bin string, oc outputCase, work, dataPath string, ooc bool) []byte {
	t.Helper()
	args := []string{"-desc", "testdata/clf.pads"}
	outPath := ""
	if ooc {
		manifest := filepath.Join(work, oc.name+".manifest")
		os.Remove(manifest)
		args = append(args, "-out-of-core", "-workers", "2", "-segment-size", "64k", "-manifest", manifest)
		if oc.tool != "padsacc" {
			outPath = filepath.Join(work, oc.name+".out")
			args = append(args, "-out", outPath)
		}
	}
	cmd := exec.Command(filepath.Join(bin, oc.tool), append(args, dataPath)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstderr: %s", oc.tool, args, err, stderr.String())
	}
	if outPath == "" {
		return stdout.Bytes()
	}
	b, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func streamOutput(t *testing.T, base, desc, mode string, data []byte) []byte {
	t.Helper()
	resp, err := http.Post(base+"/v1/parse/"+mode+"?desc="+desc, "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Trailer.Get("X-Pads-Error") != "" {
		t.Fatalf("/v1/parse/%s: status %d, error trailer %q: %.200s", mode, resp.StatusCode, resp.Trailer.Get("X-Pads-Error"), body)
	}
	return body
}

func jobOutput(t *testing.T, base, desc, mode, file string) []byte {
	t.Helper()
	req := fmt.Sprintf(`{"desc":%q,"file":%q,"mode":%q}`, desc, file, mode)
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	var info padsd.JobInfo
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %s: status %d, %v", req, resp.StatusCode, err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for info.State == "running" {
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running: %+v", info.ID, info)
		}
		time.Sleep(10 * time.Millisecond)
		resp, err := http.Get(base + "/v1/jobs/" + info.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if info.State != "done" || info.Segments < 2 || len(info.Poisoned) != 0 {
		t.Fatalf("job %s: %+v; want done over several segments, none poisoned", info.ID, info)
	}
	resp, err = http.Get(base + "/v1/jobs/" + info.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("job %s result: status %d, %v", info.ID, resp.StatusCode, err)
	}
	return body
}

// TestResumeStreamWithoutOut: `-resume MANIFEST` alone resumes a padsfmt or
// padsxml job, taking the output path from the manifest as it takes the
// input path; a resume of a finished job re-reports it and leaves the
// output as it was.
func TestResumeStreamWithoutOut(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped with -short")
	}
	bin := buildTools(t)
	work := t.TempDir()
	var clf bytes.Buffer
	if _, err := datagen.CLF(&clf, datagen.DefaultCLF(900)); err != nil {
		t.Fatal(err)
	}
	dataPath := filepath.Join(work, "clf.data")
	if err := os.WriteFile(dataPath, clf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tool := range []string{"padsfmt", "padsxml"} {
		manifest := filepath.Join(work, tool+".manifest")
		outPath := filepath.Join(work, tool+".out")
		run(t, bin, tool, nil, "-desc", "testdata/clf.pads", "-out-of-core", "-segment-size", "64k",
			"-manifest", manifest, "-out", outPath, dataPath)
		want, err := os.ReadFile(outPath)
		if err != nil {
			t.Fatal(err)
		}
		_, stderr := run2(t, bin, tool, "-desc", "testdata/clf.pads", "-resume", manifest)
		if !strings.Contains(stderr, "900 records") {
			t.Fatalf("%s -resume: stderr %q, want the job's 900 records", tool, stderr)
		}
		if got, err := os.ReadFile(outPath); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s -resume changed the finished output (%d bytes, was %d): %v", tool, len(got), len(want), err)
		}
	}
}

// TestPadsxmlRootValidated: padsxml refuses a -root that is not an XML
// Name before it reads any data, writing no output.
func TestPadsxmlRootValidated(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped with -short")
	}
	bin := buildTools(t)
	cmd := exec.Command(filepath.Join(bin, "padsxml"), "-desc", "testdata/clf.pads", "-root", "a><b")
	cmd.Stdin = strings.NewReader("")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 || stdout.Len() != 0 || !strings.Contains(stderr.String(), "root element name") {
		t.Fatalf("padsxml -root 'a><b': %v, stdout %q, stderr %q; want exit status 1 and no output", err, stdout.String(), stderr.String())
	}
}
