package padsd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// FuzzFaultHeader feeds arbitrary X-Pads-Fault values to parseFaultHeader:
// a client controls the header, so every value must come back as a
// fault.Config or an error, never a panic.
func FuzzFaultHeader(f *testing.F) {
	for _, h := range []string{
		"",
		"seed=7,short=0.5,transient=0.25,corrupt=0.01,truncate=4096,fail=8192",
		" seed = 7 ,,",
		"seed=-1",
		"short=NaN,corrupt=1e400",
		"truncate=9223372036854775808",
		"bogus",
		"warp=9",
		"=",
		"seed=1=2",
	} {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h string) {
		if _, err := parseFaultHeader(h); err != nil && err.Error() == "" {
			t.Fatal("error without a message")
		}
	})
}

// FuzzJobRequest POSTs arbitrary bodies to /v1/jobs on a daemon with a job
// directory, a registered description, a small data file and an earlier
// job's manifest to resume. A client controls the body, so every answer
// must be a 4xx or an accepted job, never a 5xx or a panic (the recovery
// middleware turns a handler panic into a 500). Each accepted job is
// cancelled and waited for, so the job slots never run out.
func FuzzJobRequest(f *testing.F) {
	dir := f.TempDir()
	s := New(Config{JobDir: dir, MaxJobs: 1, JobWorkers: 1})
	h := s.Handler()
	serve := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	src, err := os.ReadFile("../../testdata/clf.pads")
	if err != nil {
		f.Fatal(err)
	}
	rec := serve("POST", "/v1/descriptions?name=clf", string(src))
	var desc DescInfo
	if err := json.NewDecoder(rec.Body).Decode(&desc); err != nil {
		f.Fatalf("upload: status %d: %v", rec.Code, err)
	}
	data := strings.Repeat(goodCLF, 40) + badCLF + goodCLF
	if err := os.WriteFile(filepath.Join(dir, "data.log"), []byte(data), 0o644); err != nil {
		f.Fatal(err)
	}

	// finish cancels an accepted job and waits until it has stopped and
	// given its job slot back (runJob frees the slot after the state is
	// final).
	finish := func(tb testing.TB, body []byte) JobInfo {
		tb.Helper()
		var info JobInfo
		if err := json.Unmarshal(body, &info); err != nil {
			tb.Fatalf("202 without job JSON: %v: %q", err, body)
		}
		j, ok := s.jobByID(info.ID)
		if !ok {
			tb.Fatalf("accepted job %q is not registered", info.ID)
		}
		j.cancel()
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
			if info = j.snapshot(); info.State != "running" && len(s.jobSem) == 0 {
				return info
			}
			if time.Now().After(deadline) {
				tb.Fatalf("job %s still running after cancel", info.ID)
			}
		}
	}

	// One job, so resume requests have a real manifest to read (cancelled
	// part way or finished: either resumes).
	rec = serve("POST", "/v1/jobs", fmt.Sprintf(`{"desc":%q,"file":"data.log"}`, desc.ID))
	if rec.Code != http.StatusAccepted {
		f.Fatalf("seed job: status %d: %s", rec.Code, rec.Body)
	}
	first := finish(f, rec.Body.Bytes())

	for _, body := range []string{
		fmt.Sprintf(`{"desc":%q,"file":"data.log"}`, desc.ID),
		fmt.Sprintf(`{"desc":%q,"file":"data.log","mode":"xml","root":"logs"}`, desc.ID),
		fmt.Sprintf(`{"desc":%q,"file":"data.log","mode":"csv","delims":"|","segment_size":"64k","workers":2}`, desc.ID),
		fmt.Sprintf(`{"desc":%q,"file":"data.log","disc":"fixed:12"}`, desc.ID),
		fmt.Sprintf(`{"desc":%q,"file":"data.log","workers":4611686018427387904,"track":-1,"top":4611686018427387904}`, desc.ID),
		fmt.Sprintf(`{"desc":%q,"resume":%q}`, desc.ID, first.Manifest),
		fmt.Sprintf(`{"desc":%q,"resume":"data.log"}`, desc.ID),
		fmt.Sprintf(`{"desc":%q,"file":"../etc/passwd"}`, desc.ID),
		fmt.Sprintf(`{"desc":%q,"file":"data.log","segment_size":"-5q"}`, desc.ID),
		fmt.Sprintf(`{"desc":%q,"file":"data.log","mode":"yaml"}`, desc.ID),
		`{"desc":"nope","file":"data.log"}`,
		`{"file":"missing.log"}`,
		`{"desc":1}`,
		`not json`,
		``,
	} {
		f.Add([]byte(body))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := serve("POST", "/v1/jobs", string(body))
		switch {
		case rec.Code == http.StatusAccepted:
			finish(t, rec.Body.Bytes())
		case rec.Code < 400 || rec.Code >= 500:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, bytes.TrimSpace(rec.Body.Bytes()))
		}
	})
}
