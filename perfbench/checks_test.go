package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pads/internal/datagen"
	"pads/internal/padsd"
	"pads/internal/telemetry"
)

// The tests run from the repository root, where the workloads find the
// descriptions under testdata/.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// dropLine removes line i (0-based) of data.
func dropLine(data []byte, i int) []byte {
	lines := bytes.SplitAfter(data, []byte{'\n'})
	return bytes.Join(append(lines[:i:i], lines[i+1:]...), nil)
}

func flipByte(data []byte, i int) []byte {
	out := append([]byte(nil), data...)
	out[i] ^= 0x01
	return out
}

func mustFail(t *testing.T, what string, err error) {
	t.Helper()
	if err == nil {
		t.Errorf("%s: check accepted a broken output", what)
	} else {
		t.Logf("%s: %v", what, err)
	}
}

func TestSiriusAccumCheck(t *testing.T) {
	raw, st, err := genSirius(7, 3000)
	if err != nil {
		t.Fatal(err)
	}
	desc, _, err := compile(siriusDescPath)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := newSiriusTruth(raw, st)
	if err != nil {
		t.Fatal(err)
	}
	var report bytes.Buffer
	if _, err := accumPass(desc, raw, &report, nil, nil); err != nil {
		t.Fatal(err)
	}
	good := report.String()
	if err := checkSiriusAccum(good, truth); err != nil {
		t.Fatalf("correct report rejected: %v", err)
	}

	// A dropped record: the program ran over a corpus missing one line.
	var short bytes.Buffer
	if _, err := accumPass(desc, dropLine(raw, 10), &short, nil, nil); err != nil {
		t.Fatal(err)
	}
	mustFail(t, "dropped record", checkSiriusAccum(short.String(), truth))

	// A wrong bad count in the entry_t block.
	top := "good: " + itoa(st.Records-truth.bad) + " bad: " + itoa(truth.bad)
	if !strings.Contains(good, top) {
		t.Fatalf("report has no %q line", top)
	}
	wrongBad := strings.Replace(good, top, "good: "+itoa(st.Records-truth.bad+1)+" bad: "+itoa(truth.bad-1), 1)
	mustFail(t, "wrong bad count", checkSiriusAccum(wrongBad, truth))

	// A wrong order_num maximum.
	maxS := "max: " + itoa(int(truth.ordMax))
	mustFail(t, "wrong order_num max", checkSiriusAccum(strings.Replace(good, maxS, "max: "+itoa(int(truth.ordMax)+1), 1), truth))
}

func TestSiriusVetCheck(t *testing.T) {
	raw, st, err := genSirius(8, 3000)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := newVetTruth(raw, st)
	if err != nil {
		t.Fatal(err)
	}
	var clean, sel bytes.Buffer
	good, _, _, _, err := vetRound(raw, &clean, &sel, nil, [3]*telemetry.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	good.cleanFile, good.selected = clean.Bytes(), sel.Bytes()
	if err := checkSiriusVet(good, truth); err != nil {
		t.Fatalf("correct round rejected: %v", err)
	}

	bad := good
	bad.cleanFile = flipByte(good.cleanFile, len(good.cleanFile)/2)
	mustFail(t, "flipped byte in clean file", checkSiriusVet(bad, truth))

	bad = good
	bad.selected = dropLine(good.selected, 0)
	mustFail(t, "dropped selected record", checkSiriusVet(bad, truth))

	bad = good
	bad.errors, bad.clean = good.errors+1, good.clean-1
	mustFail(t, "wrong error count", checkSiriusVet(bad, truth))

	bad = good
	bad.count--
	mustFail(t, "dropped record in count", checkSiriusVet(bad, truth))
}

func TestDaemonChecks(t *testing.T) {
	var buf bytes.Buffer
	cfg := datagen.DefaultCLF(300)
	cfg.Seed = 9
	st, err := datagen.CLF(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := clfBody{data: buf.Bytes(), lines: st.Records, badLengths: st.BadLengths}
	if b.badLengths == 0 {
		t.Fatal("body has no bad lengths; pick another seed")
	}
	ts := httptest.NewServer(padsd.New(padsd.Config{}).Handler())
	defer ts.Close()
	src, err := os.ReadFile(clfDescPath)
	if err != nil {
		t.Fatal(err)
	}
	id, err := upload(ts.URL, src)
	if err != nil {
		t.Fatal(err)
	}
	c := &client{hc: ts.Client(), url: ts.URL + "/v1/parse/", id: id}
	before, err := scrape(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resps := make([][]byte, len(clfModes))
	for m := range clfModes {
		resp, _, err := c.do(b.data, m, 0)
		if err != nil {
			t.Fatal(err)
		}
		resps[m] = append([]byte(nil), resp...)
		if err := checkResponse(resps[m], m, b); err != nil {
			t.Fatalf("correct %s response rejected: %v", clfModes[m], err)
		}
	}
	after, err := scrape(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	const counter = "padsd_records_parsed_total"
	if err := checkMetricsDelta(uint64(len(clfModes)*b.lines), before[counter], after[counter]); err != nil {
		t.Fatalf("correct /metrics delta rejected: %v", err)
	}
	mustFail(t, "records missing from /metrics", checkMetricsDelta(uint64(len(clfModes)*b.lines)+1, before[counter], after[counter]))

	accumText := string(resps[0])
	lengthGood := "good: " + itoa(b.lines-b.badLengths) + " bad: " + itoa(b.badLengths)
	if !strings.Contains(accumText, lengthGood) {
		t.Fatalf("accum response has no %q line", lengthGood)
	}
	at := strings.Index(accumText, "<top>.length :")
	if at < 0 {
		t.Fatal("accum response has no length block")
	}
	mustFail(t, "wrong bad length count", checkAccumResponse(accumText[:at]+strings.Replace(accumText[at:], lengthGood,
		"good: "+itoa(b.lines-b.badLengths+1)+" bad: "+itoa(b.badLengths-1), 1), b))
	mustFail(t, "dropped record in accum", checkAccumResponse(strings.Replace(accumText, itoa(b.lines)+" records", itoa(b.lines-1)+" records", 1), b))

	mustFail(t, "dropped csv line", checkCSVResponse(dropLine(resps[1], 5), b))

	x := resps[2]
	open := bytes.Index(x, []byte("<"+clfRecordTag+">"))
	end := bytes.Index(x, []byte("</"+clfRecordTag+">"))
	if open < 0 || end < open {
		t.Fatal("xml response has no record element")
	}
	missing := append(append([]byte(nil), x[:open]...), x[end+len("</"+clfRecordTag+">"):]...)
	mustFail(t, "missing xml element", checkXMLResponse(missing, b, clfRecordTag))
	mustFail(t, "truncated xml", checkXMLResponse(x[:len(x)/2], b, clfRecordTag))
}

func TestOOCCheck(t *testing.T) {
	dir := t.TempDir()
	corpus := filepath.Join(dir, "sirius.raw")
	cfg := datagen.DefaultSirius(15000)
	cfg.Seed = 11
	f, err := os.Create(corpus)
	if err != nil {
		t.Fatal(err)
	}
	st, err := datagen.Sirius(f, cfg)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	desc, _, err := compile(siriusDescPath)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.Open(corpus)
	if err != nil {
		t.Fatal(err)
	}
	defer data.Close()
	jobDir := filepath.Join(dir, "job")
	if err := os.Mkdir(jobDir, 0o755); err != nil {
		t.Fatal(err)
	}
	tr := newOOCTrace()
	o, err := oocJob(desc, data, corpus, st.Bytes, jobDir, tr)
	if err != nil {
		t.Fatal(err)
	}
	if o.out, err = os.ReadFile(o.outPath); err != nil {
		t.Fatal(err)
	}
	seq, err := sequentialFmt(desc, corpus)
	if err != nil {
		t.Fatal(err)
	}
	if o.segments < 2 || len(tr.commits) == 0 {
		t.Fatalf("job ran %d segments in %d commit batches; want a segmented job", o.segments, len(tr.commits))
	}
	if err := checkOOC(o, st.Records, seq); err != nil {
		t.Fatalf("correct job rejected: %v", err)
	}

	bad := o
	bad.out = flipByte(o.out, len(o.out)/3)
	mustFail(t, "flipped byte in fmt file", checkOOC(bad, st.Records, seq))

	bad = o
	bad.out = dropLine(o.out, 100)
	bad.records--
	mustFail(t, "dropped record", checkOOC(bad, st.Records, seq))

	bad = o
	bad.poisoned, bad.committed = 1, o.segments-1
	mustFail(t, "poisoned segment", checkOOC(bad, st.Records, seq))
}

// TestTracedCounters checks the traced run's padsrt counters: one pass reads
// exactly the generator's bytes.
func TestTracedCounters(t *testing.T) {
	raw, _, err := genSirius(12, 2000)
	if err != nil {
		t.Fatal(err)
	}
	desc, _, err := compile(siriusDescPath)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	st := telemetry.NewStats()
	var report bytes.Buffer
	if _, err := accumPass(desc, raw, &report, tr, st); err != nil {
		t.Fatal(err)
	}
	if st.Source.BytesRead != uint64(len(raw)) {
		t.Errorf("bytes_read = %d, corpus is %d bytes", st.Source.BytesRead, len(raw))
	}
	if tr.count("interp.read") != 2000 || tr.count("accum.add") != 2000 {
		t.Errorf("spans: %d interp.read, %d accum.add; want one per record", tr.count("interp.read"), tr.count("accum.add"))
	}
	if self, total := tr.self("interp.read"), tr.total("interp.read"); self <= 0 || self > total {
		t.Errorf("interp.read self time %v outside (0, %v]", self, total)
	}
	if err := tr.write(filepath.Join(t.TempDir(), "spans.jsonl")); err != nil {
		t.Fatal(err)
	}
}

var itoa = strconv.Itoa
