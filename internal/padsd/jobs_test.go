package padsd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pads/internal/segment"
)

// jobCorpus writes a deterministic CLF corpus of n lines (every 13th
// damaged) into dir and returns its bytes.
func jobCorpus(t *testing.T, dir, name string, n int) []byte {
	t.Helper()
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		if i%13 == 7 {
			b.WriteString(badCLF)
			continue
		}
		fmt.Fprintf(&b, "207.136.%d.%d - - [15/Oct/1997:18:%02d:%02d -0700] \"GET /a/%d HTTP/1.0\" %d %d\n",
			i%200+1, i%250+1, i/60%60, i%60, i, 200+i%2*204, i*31%9973)
	}
	if err := os.WriteFile(filepath.Join(dir, name), b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func submitJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, JobInfo) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var info JobInfo
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
	}
	resp.Body.Close()
	return resp, info
}

// waitJob polls the status endpoint until the job reaches a terminal state.
func waitJob(t *testing.T, ts *httptest.Server, id string) JobInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var info JobInfo
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if info.State != "running" {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running after 30s: %+v", id, info)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestJobAPIDisabledWithoutJobDir(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := submitJob(t, ts, `{"desc":"x","file":"y"}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404 when -job-dir is unset", resp.StatusCode)
	}
}

func TestJobPathConfinement(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{JobDir: dir})
	id := upload(t, ts, clfSource(t))
	for _, file := range []string{"../outside.log", "/etc/passwd", ""} {
		body := fmt.Sprintf(`{"desc":%q,"file":%q}`, id, file)
		resp, _ := submitJob(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("file %q: status %d, want 400", file, resp.StatusCode)
		}
	}
}

// TestJobLifecycleAccum: submit → 202 with Location → poll to done → result
// identical to the synchronous parse endpoint over the same bytes.
func TestJobLifecycleAccum(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{JobDir: dir})
	id := upload(t, ts, clfSource(t))
	data := jobCorpus(t, dir, "data.log", 500)

	resp, info := submitJob(t, ts, fmt.Sprintf(`{"desc":%q,"file":"data.log"}`, id))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+info.ID {
		t.Fatalf("Location %q for job %q", loc, info.ID)
	}

	done := waitJob(t, ts, info.ID)
	if done.State != "done" {
		t.Fatalf("job finished %q (%s), want done", done.State, done.Error)
	}
	if done.Records == 0 || done.Errored == 0 {
		t.Fatalf("job counted %d records, %d errored; corpus has both", done.Records, done.Errored)
	}

	jr, err := http.Get(ts.URL + "/v1/jobs/" + info.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	jobBody, _ := io.ReadAll(jr.Body)
	jr.Body.Close()
	if jr.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d: %s", jr.StatusCode, jobBody)
	}

	pr := parseReq(t, ts, "/v1/parse/accum?desc="+id, bytes.NewReader(data), nil)
	syncBody, _ := io.ReadAll(pr.Body)
	pr.Body.Close()
	if pr.StatusCode != http.StatusOK {
		t.Fatalf("sync parse: status %d", pr.StatusCode)
	}
	if !bytes.Equal(jobBody, syncBody) {
		t.Errorf("job result differs from the synchronous accumulator report (%d vs %d bytes)", len(jobBody), len(syncBody))
	}

	// The job appears in the listing.
	lr, _ := http.Get(ts.URL + "/v1/jobs")
	var list []JobInfo
	json.NewDecoder(lr.Body).Decode(&list)
	lr.Body.Close()
	if len(list) != 1 || list[0].ID != info.ID {
		t.Errorf("listing %+v, want the one job", list)
	}
}

// TestJobDrainCancelsAndResumeCompletes: a drain hard stop cancels a running
// job into a resumable manifest; a fresh daemon over the same job directory
// resumes it to completion.
func TestJobDrainCancelsAndResumeCompletes(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{JobDir: dir})
	id := upload(t, ts, clfSource(t))
	jobCorpus(t, dir, "data.log", 120000) // ~9 MB: cannot finish before the drain below

	body := fmt.Sprintf(`{"desc":%q,"file":"data.log","segment_size":"64k","workers":1}`, id)
	resp, info := submitJob(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}

	// Expired budget: Drain hard-stops immediately and waits for the job
	// goroutine to unwind, so the state below is terminal.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Drain(ctx)

	final := waitJob(t, ts, info.ID)
	if final.State != "cancelled" {
		t.Fatalf("job state %q after drain, want cancelled", final.State)
	}
	manifest := filepath.Join(dir, final.Manifest)
	if _, err := segment.Peek(manifest); err != nil {
		t.Fatalf("cancelled job left no loadable manifest: %v", err)
	}

	// A new daemon over the same directory resumes the manifest.
	_, ts2 := newTestServer(t, Config{JobDir: dir})
	id2 := upload(t, ts2, clfSource(t))
	resp, info2 := submitJob(t, ts2, fmt.Sprintf(`{"desc":%q,"resume":%q}`, id2, final.Manifest))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resume submit: status %d", resp.StatusCode)
	}
	done := waitJob(t, ts2, info2.ID)
	if done.State != "done" {
		t.Fatalf("resumed job finished %q (%s), want done", done.State, done.Error)
	}
	pk, err := segment.Peek(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if !pk.Complete {
		t.Error("resumed job did not finalize the manifest")
	}
	rr, _ := http.Get(ts2.URL + "/v1/jobs/" + info2.ID + "/result")
	b, _ := io.ReadAll(rr.Body)
	rr.Body.Close()
	if rr.StatusCode != http.StatusOK || !bytes.Contains(b, []byte("records")) {
		t.Fatalf("resumed result: status %d: %.80s", rr.StatusCode, b)
	}
}

// TestJobResultHeaders: every mode's job result carries its stream
// endpoint's content type and the job's counts; a stream whose output file
// has gone answers 500 rather than an empty 200.
func TestJobResultHeaders(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{JobDir: dir})
	id := upload(t, ts, clfSource(t))
	jobCorpus(t, dir, "data.log", 300)
	for _, mode := range []string{"accum", "xml", "csv"} {
		_, info := submitJob(t, ts, fmt.Sprintf(`{"desc":%q,"file":"data.log","mode":%q}`, id, mode))
		done := waitJob(t, ts, info.ID)
		if done.State != "done" {
			t.Fatalf("%s job finished %q (%s), want done", mode, done.State, done.Error)
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + info.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(body) == 0 {
			t.Fatalf("%s result: status %d, %d bytes", mode, resp.StatusCode, len(body))
		}
		if got, want := resp.Header.Get("Content-Type"), contentTypes[mode]; got != want {
			t.Errorf("%s result: Content-Type %q, want %q", mode, got, want)
		}
		if got := resp.Header.Get("X-Pads-Records"); got != fmt.Sprint(done.Records) {
			t.Errorf("%s result: X-Pads-Records %q, want %d", mode, got, done.Records)
		}
		if got := resp.Header.Get("X-Pads-Errored"); got != fmt.Sprint(done.Errored) {
			t.Errorf("%s result: X-Pads-Errored %q, want %d", mode, got, done.Errored)
		}
		if mode != "xml" {
			continue
		}
		if err := os.Remove(filepath.Join(dir, info.ID+".out")); err != nil {
			t.Fatal(err)
		}
		resp, err = http.Get(ts.URL + "/v1/jobs/" + info.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Errorf("xml result without its output file: status %d, want 500", resp.StatusCode)
		}
	}
}

func TestJobSubmitRefusedWhileDraining(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{JobDir: dir})
	id := upload(t, ts, clfSource(t))
	jobCorpus(t, dir, "data.log", 100)
	s.StartDrain()
	resp, _ := submitJob(t, ts, fmt.Sprintf(`{"desc":%q,"file":"data.log"}`, id))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 while draining", resp.StatusCode)
	}
}

// TestJobManifestExclusivity: a manifest owned by a running job cannot be
// resumed into a second concurrent job — two writers would interleave seg
// lines in the journal and truncate each other's quarantine/output files.
// Ownership releases when the job goroutine actually stops, not at the
// state flip, so the post-cancel resume polls for admission.
func TestJobManifestExclusivity(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{JobDir: dir})
	id := upload(t, ts, clfSource(t))
	jobCorpus(t, dir, "data.log", 20000) // ~1.5 MB: still running when the second submit lands

	body := fmt.Sprintf(`{"desc":%q,"file":"data.log","segment_size":"64k","workers":1}`, id)
	resp, info := submitJob(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	resume := fmt.Sprintf(`{"desc":%q,"resume":%q}`, id, info.Manifest)
	resp2, _ := submitJob(t, ts, resume)
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("resume of a running job's manifest: status %d, want 409", resp2.StatusCode)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+info.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dr.Body.Close()
	waitJob(t, ts, info.ID)

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp3, info3 := submitJob(t, ts, resume)
		if resp3.StatusCode == http.StatusAccepted {
			if done := waitJob(t, ts, info3.ID); done.State != "done" {
				t.Fatalf("resumed job finished %q (%s), want done", done.State, done.Error)
			}
			return
		}
		if resp3.StatusCode != http.StatusConflict {
			t.Fatalf("resume retry: status %d", resp3.StatusCode)
		}
		if time.Now().After(deadline) {
			t.Fatal("manifest still owned 30s after cancel")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobIDsSurviveRestart: a restarted daemon continues the job id sequence
// past the manifests already in its job directory — recycling j1 would aim
// a fresh job at the previous life's j1.manifest and output siblings.
func TestJobIDsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{JobDir: dir})
	id := upload(t, ts, clfSource(t))
	jobCorpus(t, dir, "data.log", 500)
	resp, info := submitJob(t, ts, fmt.Sprintf(`{"desc":%q,"file":"data.log"}`, id))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if done := waitJob(t, ts, info.ID); done.State != "done" {
		t.Fatalf("first job finished %q, want done", done.State)
	}
	quarPath := filepath.Join(dir, strings.TrimSuffix(info.Manifest, ".manifest")+".quar")
	quar1, err := os.ReadFile(quarPath)
	if err != nil {
		t.Fatal(err)
	}

	_, ts2 := newTestServer(t, Config{JobDir: dir})
	id2 := upload(t, ts2, clfSource(t))
	resp2, info2 := submitJob(t, ts2, fmt.Sprintf(`{"desc":%q,"file":"data.log"}`, id2))
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("restart submit: status %d", resp2.StatusCode)
	}
	if info2.ID == info.ID {
		t.Fatalf("restarted daemon recycled job id %s", info.ID)
	}
	if done := waitJob(t, ts2, info2.ID); done.State != "done" {
		t.Fatalf("second job finished %q, want done", done.State)
	}
	if got, err := os.ReadFile(quarPath); err != nil || !bytes.Equal(got, quar1) {
		t.Errorf("restart's fresh job disturbed the old job's quarantine file (%v, %d vs %d bytes)", err, len(got), len(quar1))
	}
	pk, err := segment.Peek(filepath.Join(dir, info.Manifest))
	if err != nil {
		t.Fatal(err)
	}
	if !pk.Complete {
		t.Error("old job's manifest no longer reads as complete")
	}
}

// TestJobResumeConfinesManifestRecordedPath: when a resume omits "file", the
// manifest-recorded input path gets the same job-directory confinement as a
// client-supplied one — a crafted manifest must not read arbitrary
// daemon-readable files.
func TestJobResumeConfinesManifestRecordedPath(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{JobDir: dir})
	line := `{"kind":"job","v":1,"file":"/etc/passwd","size":1,"head":"x","tail":"x","disc":"newline","mode":"accum","seg_size":65536,"segments":1}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "evil.manifest"), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, _ := submitJob(t, ts, `{"desc":"x","resume":"evil.manifest"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 for a manifest recording a path outside the job directory", resp.StatusCode)
	}
}

func TestJobUnknownID(t *testing.T) {
	_, ts := newTestServer(t, Config{JobDir: t.TempDir()})
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/result"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestRetryJitterDeterministic: the Retry-After jitter sequence is a pure
// function of the seed (docs/OBSERVABILITY.md) — replayable in tests, varied
// across daemons with different seeds.
func TestRetryJitterDeterministic(t *testing.T) {
	draw := func(seed uint64, n int) []int {
		s := New(Config{RetryAfterSeed: seed})
		out := make([]int, n)
		for i := range out {
			out[i] = s.retryJitter()
			if out[i] < 0 || out[i] > 3 {
				t.Fatalf("jitter %d outside [0,3]", out[i])
			}
		}
		return out
	}
	a, b := draw(7, 64), draw(7, 64)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := draw(8, 64)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced an identical 64-draw jitter sequence")
	}
}
