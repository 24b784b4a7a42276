package padsd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

const (
	goodCLF = `207.136.97.49 - - [15/Oct/1997:18:46:51 -0700] "GET /tk/p.txt HTTP/1.0" 200 30` + "\n"
	badCLF  = "!!! this is not a log line at all\n"
)

func clfSource(t *testing.T) []byte {
	t.Helper()
	src, err := os.ReadFile("../../testdata/clf.pads")
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func upload(t *testing.T, ts *httptest.Server, src []byte) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/descriptions?name=clf", "text/plain", bytes.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("upload: status %d: %s", resp.StatusCode, b)
	}
	var info DescInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info.ID
}

func parseReq(t *testing.T, ts *httptest.Server, path string, body io.Reader, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+path, body)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestRegistryContentAddressed(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	src := clfSource(t)

	resp, err := http.Post(ts.URL+"/v1/descriptions", "text/plain", bytes.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first upload: status %d, want 201", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/descriptions", "text/plain", bytes.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	var info DescInfo
	json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-upload: status %d, want 200 (cache hit)", resp.StatusCode)
	}
	if s.reg.size() != 1 {
		t.Fatalf("registry size %d after duplicate upload, want 1", s.reg.size())
	}
	if info.ID != descID(src) {
		t.Fatalf("ID %q not content-addressed (want %q)", info.ID, descID(src))
	}
}

func TestUploadRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxDescBytes: 256, MaxDescriptions: 1})

	// Compile error → 422.
	resp, _ := http.Post(ts.URL+"/v1/descriptions", "text/plain", strings.NewReader("Pstruct nope {"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad description: status %d, want 422", resp.StatusCode)
	}
	// Oversized → 413, before compiling.
	resp, _ = http.Post(ts.URL+"/v1/descriptions", "text/plain", strings.NewReader(strings.Repeat("x", 300)))
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("huge description: status %d, want 413", resp.StatusCode)
	}
	// Fill the one slot, then a distinct description → 503.
	resp, _ = http.Post(ts.URL+"/v1/descriptions", "text/plain", strings.NewReader("Psource Precord Pstruct a { Puint32 x; };"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first description: status %d, want 201", resp.StatusCode)
	}
	resp, _ = http.Post(ts.URL+"/v1/descriptions", "text/plain", strings.NewReader("Psource Precord Pstruct b { Puint32 y; };"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-cap description: status %d, want 503", resp.StatusCode)
	}
}

func TestAccumEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := upload(t, ts, clfSource(t))

	data := strings.Repeat(goodCLF, 40) + badCLF + strings.Repeat(goodCLF, 9)
	resp := parseReq(t, ts, "/v1/parse/accum?desc="+id, strings.NewReader(data), nil)
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("accum: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Pads-Records"); got != "50" {
		t.Fatalf("X-Pads-Records = %q, want 50", got)
	}
	if got := resp.Header.Get("X-Pads-Errored"); got != "1" {
		t.Fatalf("X-Pads-Errored = %q, want 1", got)
	}
	if !strings.Contains(string(body), "50 records") {
		t.Fatalf("report missing record count:\n%s", body)
	}
}

func TestXMLAndCSVTrailers(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := upload(t, ts, clfSource(t))
	data := strings.Repeat(goodCLF, 3) + badCLF

	resp := parseReq(t, ts, "/v1/parse/xml?desc="+id+"&root=log", strings.NewReader(data), nil)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("xml: status %d", resp.StatusCode)
	}
	if !strings.HasPrefix(string(body), "<log>") || !strings.Contains(string(body), "</log>") {
		t.Fatalf("xml not wrapped in root element:\n%.200s", body)
	}
	if got := resp.Trailer.Get("X-Pads-Records"); got != "4" {
		t.Fatalf("xml trailer records = %q, want 4", got)
	}
	if got := resp.Trailer.Get("X-Pads-Errored"); got != "1" {
		t.Fatalf("xml trailer errored = %q, want 1", got)
	}

	resp = parseReq(t, ts, "/v1/parse/csv?desc="+id+"&skip_errors=1", strings.NewReader(data), nil)
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if n := strings.Count(string(body), "\n"); n != 3 {
		t.Fatalf("csv with skip_errors emitted %d lines, want 3:\n%s", n, body)
	}
	if got := resp.Trailer.Get("X-Pads-Errored"); got != "1" {
		t.Fatalf("csv trailer errored = %q, want 1", got)
	}
}

func TestUnknownDescription(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := parseReq(t, ts, "/v1/parse/accum?desc=deadbeef", strings.NewReader(goodCLF), nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown desc: status %d, want 404", resp.StatusCode)
	}
}

func TestTenantRateLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{Tenant: TenantConfig{RatePerSec: 0.001, Burst: 1}})
	id := upload(t, ts, clfSource(t))
	hdr := map[string]string{"X-Pads-Tenant": "acme"}

	resp := parseReq(t, ts, "/v1/parse/accum?desc="+id, strings.NewReader(goodCLF), hdr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d, want 200", resp.StatusCode)
	}
	resp = parseReq(t, ts, "/v1/parse/accum?desc="+id, strings.NewReader(goodCLF), hdr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("bucket-empty request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// A different tenant has its own bucket.
	resp = parseReq(t, ts, "/v1/parse/accum?desc="+id, strings.NewReader(goodCLF),
		map[string]string{"X-Pads-Tenant": "globex"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("other tenant: status %d, want 200", resp.StatusCode)
	}
}

// gatedReader delivers data, then blocks until released — a parse that is
// deliberately in flight.
type gatedReader struct {
	data    io.Reader
	release chan struct{}
	once    sync.Once
}

func (g *gatedReader) Read(p []byte) (int, error) {
	n, err := g.data.Read(p)
	if err == io.EOF {
		<-g.release
	}
	return n, err
}

func (g *gatedReader) done() { g.once.Do(func() { close(g.release) }) }

func waitActive(t *testing.T, s *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for s.met.active.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d active parses (have %d)", n, s.met.active.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestGlobalAdmissionControl(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1})
	id := upload(t, ts, clfSource(t))

	g := &gatedReader{data: strings.NewReader(goodCLF), release: make(chan struct{})}
	defer g.done()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp := parseReq(t, ts, "/v1/parse/accum?desc="+id, g, nil)
		resp.Body.Close()
	}()
	waitActive(t, s, 1)

	resp := parseReq(t, ts, "/v1/parse/accum?desc="+id, strings.NewReader(goodCLF), nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity parse: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	g.done()
	wg.Wait()
	if s.met.overload.Load() == 0 {
		t.Fatal("overload metric not incremented")
	}
}

func TestReadyzFlipsOnDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	id := upload(t, ts, clfSource(t))

	for _, probe := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + probe)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s before drain: status %d", probe, resp.StatusCode)
		}
	}

	s.StartDrain()
	resp, _ := http.Get(ts.URL + "/readyz")
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: status %d, want 503", resp.StatusCode)
	}
	// Liveness stays green; only readiness flips.
	resp, _ = http.Get(ts.URL + "/healthz")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining: status %d, want 200", resp.StatusCode)
	}
	resp = parseReq(t, ts, "/v1/parse/accum?desc="+id, strings.NewReader(goodCLF), nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("parse while draining: status %d, want 503", resp.StatusCode)
	}
}

// drip delivers one line at a time with a delay, n lines in total — a slow
// stream that outlives a short parse deadline. It is finite because the
// server drains an unconsumed request body (up to 256 KiB) before flushing
// the response; an endless drip would stall the 504 behind that drain.
type drip struct {
	line  []byte
	delay time.Duration
	n     int
}

func (d *drip) Read(p []byte) (int, error) {
	if d.n <= 0 {
		return 0, io.EOF
	}
	d.n--
	time.Sleep(d.delay)
	return copy(p, d.line), nil
}

func TestDeadlineAbortsParse(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	id := upload(t, ts, clfSource(t))

	start := time.Now()
	resp := parseReq(t, ts, "/v1/parse/accum?desc="+id,
		&drip{line: []byte(goodCLF), delay: 2 * time.Millisecond, n: 300},
		map[string]string{"X-Pads-Timeout-Ms": "80"})
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline parse: status %d, want 504: %s", resp.StatusCode, body)
	}
	// Generous bound: the real check is the 504 (a dead hook would let the
	// parse finish with 200); the bound only catches a wedge, and CI machines
	// under full -race load are slow.
	if el := time.Since(start); el > 15*time.Second {
		t.Fatalf("deadline abort took %v; hook did not reach the parse loop", el)
	}
	if s.met.deadline.Load() != 1 {
		t.Fatalf("deadline metric = %d, want 1", s.met.deadline.Load())
	}
}

func TestErrorBudgetAborts(t *testing.T) {
	_, ts := newTestServer(t, Config{Tenant: TenantConfig{MaxErrors: 3}})
	id := upload(t, ts, clfSource(t))

	data := strings.Repeat(goodCLF+badCLF, 10)
	resp := parseReq(t, ts, "/v1/parse/accum?desc="+id, strings.NewReader(data), nil)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("over-budget parse: status %d, want 422: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "error budget exceeded") {
		t.Fatalf("422 body does not name the budget:\n%s", body)
	}
}

func TestQuarantineTailPerTenant(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := upload(t, ts, clfSource(t))
	hdr := map[string]string{"X-Pads-Tenant": "acme"}

	data := goodCLF + badCLF + goodCLF + badCLF
	resp := parseReq(t, ts, "/v1/parse/accum?desc="+id, strings.NewReader(data), hdr)
	resp.Body.Close()

	req, _ := http.NewRequest("GET", ts.URL+"/v1/quarantine", nil)
	req.Header.Set("X-Pads-Tenant", "acme")
	qresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	qbody, _ := io.ReadAll(qresp.Body)
	qresp.Body.Close()
	lines := strings.Split(strings.TrimSpace(string(qbody)), "\n")
	if len(lines) != 2 {
		t.Fatalf("quarantine has %d entries, want 2:\n%s", len(lines), qbody)
	}
	var e struct {
		Record int    `json:"record"`
		Raw    string `json:"raw"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatalf("quarantine line is not JSON: %v", err)
	}
	if !strings.Contains(e.Raw, "not a log line") {
		t.Fatalf("quarantine entry lacks raw bytes: %+v", e)
	}

	// Another tenant's tail is empty.
	req, _ = http.NewRequest("GET", ts.URL+"/v1/quarantine", nil)
	req.Header.Set("X-Pads-Tenant", "globex")
	qresp, _ = http.DefaultClient.Do(req)
	qbody, _ = io.ReadAll(qresp.Body)
	qresp.Body.Close()
	if strings.TrimSpace(string(qbody)) != "" {
		t.Fatalf("other tenant's quarantine not empty:\n%s", qbody)
	}
}

func TestPanicContainment(t *testing.T) {
	s := New(Config{})
	h := s.wrap(func(http.ResponseWriter, *http.Request) { panic("poisoned request") })
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500", rec.Code)
	}
	if s.met.panics.Load() != 1 {
		t.Fatalf("panic metric = %d, want 1", s.met.panics.Load())
	}
	// The daemon is still alive for the next request.
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz after panic: status %d", rec.Code)
	}
}

func TestBodyCap413(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 256})
	id := upload(t, ts, clfSource(t))
	resp := parseReq(t, ts, "/v1/parse/accum?desc="+id,
		strings.NewReader(strings.Repeat(goodCLF, 100)), nil)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413: %s", resp.StatusCode, body)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := upload(t, ts, clfSource(t))
	resp := parseReq(t, ts, "/v1/parse/accum?desc="+id, strings.NewReader(goodCLF+badCLF), nil)
	resp.Body.Close()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"padsd_requests_total", "padsd_records_parsed_total 2",
		"padsd_records_errored_total 1", "padsd_quarantined_total 1",
		"padsd_parses_active 0", "pads_source_bytes_read_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestFaultHeaderParsing(t *testing.T) {
	cfg, err := parseFaultHeader("seed=7,short=0.5,transient=0.25,corrupt=0.01,truncate=4096,fail=8192")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 7 || cfg.ShortReadProb != 0.5 || cfg.TransientProb != 0.25 ||
		cfg.CorruptProb != 0.01 || cfg.TruncateAt != 4096 || cfg.FailAt != 8192 {
		t.Fatalf("parsed %+v", cfg)
	}
	if _, err := parseFaultHeader("bogus"); err == nil {
		t.Fatal("want error for spec without '='")
	}
	if _, err := parseFaultHeader("warp=9"); err == nil {
		t.Fatal("want error for unknown key")
	}
	// Chaos header is ignored (not an error) when chaos mode is off.
	_, ts := newTestServer(t, Config{})
	id := upload(t, ts, clfSource(t))
	resp := parseReq(t, ts, "/v1/parse/accum?desc="+id, strings.NewReader(goodCLF),
		map[string]string{"X-Pads-Fault": "fail=1"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chaos header with chaos off: status %d, want 200 (ignored)", resp.StatusCode)
	}
}

func TestTenantsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := upload(t, ts, clfSource(t))
	resp := parseReq(t, ts, "/v1/parse/accum?desc="+id, strings.NewReader(goodCLF+badCLF),
		map[string]string{"X-Pads-Tenant": "acme"})
	resp.Body.Close()

	tresp, _ := http.Get(ts.URL + "/v1/tenants")
	var infos []TenantInfo
	json.NewDecoder(tresp.Body).Decode(&infos)
	tresp.Body.Close()
	if len(infos) != 1 {
		t.Fatalf("tenants = %+v, want 1 entry", infos)
	}
	in := infos[0]
	if in.Name != "acme" || in.Records != 2 || in.Errored != 1 || in.Quarantined != 1 {
		t.Fatalf("tenant snapshot %+v", in)
	}
	_ = fmt.Sprint() // keep fmt linked for debug edits
}

// TestStreamLargeBody: a streamed conversion whose output starts flowing
// before the request body has all been read still parses the whole body.
// Over HTTP/1.1 the server otherwise discards and closes an unread
// remainder under 256 KB at the first flush, so a 168 KB body failed with
// "invalid Read on closed Body" after the first few hundred records.
func TestStreamLargeBody(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := upload(t, ts, clfSource(t))
	const n = 2000
	data := strings.Repeat(goodCLF, n)
	for _, mode := range []string{"xml", "csv"} {
		resp := parseReq(t, ts, "/v1/parse/"+mode+"?desc="+id, strings.NewReader(data), nil)
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v", mode, resp.StatusCode, err)
		}
		if e := resp.Trailer.Get("X-Pads-Error"); e != "" {
			t.Fatalf("%s: error trailer %q after %d bytes of output", mode, e, len(body))
		}
		if got := resp.Trailer.Get("X-Pads-Records"); got != strconv.Itoa(n) {
			t.Fatalf("%s: %s records parsed, want %d", mode, got, n)
		}
	}
}

// TestXMLRootValidated: a root element name that is not an XML Name is
// refused with 400 before any output is written or any job is created.
func TestXMLRootValidated(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{JobDir: dir})
	id := upload(t, ts, clfSource(t))
	jobCorpus(t, dir, "data.log", 10)

	resp := parseReq(t, ts, "/v1/parse/xml?desc="+id+"&root="+url.QueryEscape("a><b"), strings.NewReader(goodCLF), nil)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || strings.HasPrefix(string(body), "<") {
		t.Fatalf("stream: status %d, body %q; want 400 and no markup", resp.StatusCode, body)
	}

	resp, _ = submitJob(t, ts, `{"desc":"`+id+`","file":"data.log","mode":"xml","root":"a><b"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("job: status %d, want 400", resp.StatusCode)
	}
	list, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var jobs []JobInfo
	err = json.NewDecoder(list.Body).Decode(&jobs)
	list.Body.Close()
	if err != nil || len(jobs) != 0 {
		t.Fatalf("job list after a refused submit: %+v, %v; want none", jobs, err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("job directory holds %d entries after a refused submit, want only the data file", len(ents))
	}
}
