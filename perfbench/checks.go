package main

// The correctness checks. Each compares what the program produced with a
// value reached by another path: the generator's own counts, the go-port
// Perl programs of internal/baseline, the benchmark's own strconv reading of
// the raw lines, the daemon's /metrics counter, or a sequential parse. None
// compares against a stored copy of earlier output. checks_test.go feeds
// each one a broken output and shows that it is rejected.

import (
	"bufio"
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"pads/internal/baseline"
	"pads/internal/datagen"
)

// siriusTruth is what the benchmark knows about a Sirius corpus without the
// program's parser.
type siriusTruth struct {
	records int // generator: order records
	bad     int // generator: sort violations + syntax errors
	goVet   baseline.VetStats
	ordGood int    // order_num fields that read as a uint32 with strconv
	ordMin  uint64 // their least and greatest values
	ordMax  uint64
}

func newSiriusTruth(raw []byte, st datagen.SiriusStats) (siriusTruth, error) {
	t := siriusTruth{records: st.Records, bad: st.SortViolations + st.SyntaxErrors}
	var err error
	if t.goVet, err = baseline.SiriusVet(bytes.NewReader(raw), nil, nil); err != nil {
		return t, fmt.Errorf("go-port vetter: %w", err)
	}
	lines := bytes.Split(bytes.TrimSuffix(raw, []byte{'\n'}), []byte{'\n'})
	for _, line := range lines[1:] { // lines[0] is the summary header
		field, _, _ := bytes.Cut(line, []byte{'|'})
		v, err := strconv.ParseUint(string(field), 10, 32)
		if err != nil {
			continue
		}
		if t.ordGood == 0 || v < t.ordMin {
			t.ordMin = v
		}
		if t.ordGood == 0 || v > t.ordMax {
			t.ordMax = v
		}
		t.ordGood++
	}
	return t, nil
}

// accSection is one component's block of an accumulator report.
type accSection struct {
	good, bad uint64
	min, max  string
}

// parseAccumReport reads the text padsacc and the daemon print: an
// optional "N records" line, then one block per component headed by
// "<path> : <kind>" over a rule of '+'. records is -1 without the line.
func parseAccumReport(text string) (records int, sections map[string]accSection, err error) {
	records = -1
	sections = make(map[string]accSection)
	lines := strings.Split(text, "\n")
	if len(lines) > 0 && strings.HasSuffix(lines[0], " records") {
		if records, err = strconv.Atoi(strings.TrimSuffix(lines[0], " records")); err != nil {
			return 0, nil, fmt.Errorf("accum report: bad record line %q", lines[0])
		}
	}
	path := ""
	for i, line := range lines {
		if i+1 < len(lines) && strings.HasPrefix(lines[i+1], "+++") {
			p, _, ok := strings.Cut(line, " : ")
			if !ok {
				return 0, nil, fmt.Errorf("accum report: bad heading %q", line)
			}
			path = p
			sections[path] = accSection{}
			continue
		}
		if path == "" {
			continue
		}
		sec := sections[path]
		switch {
		case strings.HasPrefix(line, "good: "):
			if _, err := fmt.Sscanf(line, "good: %d bad: %d", &sec.good, &sec.bad); err != nil {
				return 0, nil, fmt.Errorf("accum report: %s: bad counts %q", path, line)
			}
		case strings.HasPrefix(line, "min: "):
			f := strings.Fields(line)
			if len(f) < 4 {
				return 0, nil, fmt.Errorf("accum report: %s: bad range %q", path, line)
			}
			sec.min, sec.max = f[1], f[3]
		}
		sections[path] = sec
	}
	return records, sections, nil
}

func section(secs map[string]accSection, path string) (accSection, error) {
	s, ok := secs[path]
	if !ok {
		return s, fmt.Errorf("accum report has no %s block", path)
	}
	return s, nil
}

// checkSiriusAccum checks a padsacc-style report of a Sirius corpus.
func checkSiriusAccum(report string, t siriusTruth) error {
	n, secs, err := parseAccumReport(report)
	if err != nil {
		return err
	}
	if n != t.records {
		return fmt.Errorf("sirius-accum: %d records reported, generator wrote %d", n, t.records)
	}
	top, err := section(secs, "<top>")
	if err != nil {
		return err
	}
	if int(top.good+top.bad) != t.records {
		return fmt.Errorf("sirius-accum: entry_t good+bad = %d, generator wrote %d records", top.good+top.bad, t.records)
	}
	if int(top.bad) != t.bad {
		return fmt.Errorf("sirius-accum: %d bad entry_t, generator injected %d", top.bad, t.bad)
	}
	if int(top.bad) != t.goVet.Errors {
		return fmt.Errorf("sirius-accum: %d bad entry_t, go-port vetter found %d", top.bad, t.goVet.Errors)
	}
	ord, err := section(secs, "<top>.header.order_num")
	if err != nil {
		return err
	}
	if int(ord.good) != t.ordGood {
		return fmt.Errorf("sirius-accum: order_num good = %d, strconv reads %d", ord.good, t.ordGood)
	}
	if want := strconv.FormatUint(t.ordMin, 10); ord.min != want {
		return fmt.Errorf("sirius-accum: order_num min = %s, strconv reads %s", ord.min, want)
	}
	if want := strconv.FormatUint(t.ordMax, 10); ord.max != want {
		return fmt.Errorf("sirius-accum: order_num max = %s, strconv reads %s", ord.max, want)
	}
	return nil
}

// vetTruth is the go-port's view of a Figure 10 round.
type vetTruth struct {
	siriusTruth
	clean  []byte // go-port vetter's clean file
	sel    []byte // go-port Figure 9 regex selection over that clean file
	selRec int
}

func newVetTruth(raw []byte, st datagen.SiriusStats) (vetTruth, error) {
	var t vetTruth
	var err error
	if t.siriusTruth, err = newSiriusTruth(raw, st); err != nil {
		return t, err
	}
	var clean, sel bytes.Buffer
	if _, err := baseline.SiriusVet(bytes.NewReader(raw), &clean, nil); err != nil {
		return t, err
	}
	ss, err := baseline.SiriusSelect(bytes.NewReader(clean.Bytes()), &sel, selectState)
	if err != nil {
		return t, err
	}
	t.clean, t.sel, t.selRec = clean.Bytes(), sel.Bytes(), ss.Records
	return t, nil
}

// vetOutput is one Figure 10 round of the generated parser.
type vetOutput struct {
	records, clean, errors int // PadsVet's counts
	cleanFile              []byte
	selected               []byte
	count                  int // PadsCount over the raw corpus
}

func checkSiriusVet(o vetOutput, t vetTruth) error {
	if o.records != t.records {
		return fmt.Errorf("sirius-vet: vetted %d records, generator wrote %d", o.records, t.records)
	}
	if o.errors != t.bad || o.clean != t.records-t.bad {
		return fmt.Errorf("sirius-vet: clean/errors = %d/%d, generator says %d/%d", o.clean, o.errors, t.records-t.bad, t.bad)
	}
	if o.errors != t.goVet.Errors || o.clean != t.goVet.Clean {
		return fmt.Errorf("sirius-vet: clean/errors = %d/%d, go-port says %d/%d", o.clean, o.errors, t.goVet.Clean, t.goVet.Errors)
	}
	if err := sameBytes("sirius-vet clean file", o.cleanFile, t.clean); err != nil {
		return err
	}
	if err := sameBytes("sirius-vet selection", o.selected, t.sel); err != nil {
		return err
	}
	if o.count != t.records+1 {
		return fmt.Errorf("sirius-vet: counted %d records, generator wrote %d plus the header", o.count, t.records)
	}
	return nil
}

// sameBytes reports the first difference between two outputs.
func sameBytes(what string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	return fmt.Errorf("%s: differs from the reference at byte %d (lengths %d and %d)", what, i, len(got), len(want))
}

// clfBody is one request body of the daemon workload, with what the
// generator knows about it.
type clfBody struct {
	data       []byte
	lines      int
	badLengths int
}

// checkAccumResponse checks a /v1/parse/accum report of one CLF body.
func checkAccumResponse(report string, b clfBody) error {
	n, secs, err := parseAccumReport(report)
	if err != nil {
		return err
	}
	if n != b.lines {
		return fmt.Errorf("accum response: %d records, body had %d lines", n, b.lines)
	}
	top, err := section(secs, "<top>")
	if err != nil {
		return err
	}
	if int(top.good+top.bad) != b.lines {
		return fmt.Errorf("accum response: entry_t good+bad = %d, body had %d lines", top.good+top.bad, b.lines)
	}
	length, err := section(secs, "<top>.length")
	if err != nil {
		return err
	}
	if int(length.bad) != b.badLengths || int(length.good+length.bad) != b.lines {
		return fmt.Errorf("accum response: length good/bad = %d/%d, generator says %d/%d", length.good, length.bad, b.lines-b.badLengths, b.badLengths)
	}
	return nil
}

// checkCSVResponse checks that a /v1/parse/csv response has one line per
// record.
func checkCSVResponse(body []byte, b clfBody) error {
	if n := bytes.Count(body, []byte{'\n'}); n != b.lines || (len(body) > 0 && body[len(body)-1] != '\n') {
		return fmt.Errorf("csv response: %d lines, body had %d", n, b.lines)
	}
	return nil
}

// checkXMLResponse parses a /v1/parse/xml response with encoding/xml and
// counts the record elements directly under the root.
func checkXMLResponse(body []byte, b clfBody, recTag string) error {
	dec := xml.NewDecoder(bytes.NewReader(body))
	depth, recs := 0, 0
	for {
		tok, err := dec.Token()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return fmt.Errorf("xml response: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if depth == 1 && t.Name.Local == recTag {
				recs++
			}
			depth++
		case xml.EndElement:
			depth--
		}
	}
	if depth != 0 {
		return fmt.Errorf("xml response: unbalanced elements")
	}
	if recs != b.lines {
		return fmt.Errorf("xml response: %d %s elements, body had %d lines", recs, recTag, b.lines)
	}
	return nil
}

// checkMetricsDelta compares the records the responses reported with the
// rise of the daemon's own padsd_records_parsed_total counter.
func checkMetricsDelta(responses, before, after uint64) error {
	if after-before != responses {
		return fmt.Errorf("clf-daemon: responses carried %d records, /metrics counted %d", responses, after-before)
	}
	return nil
}

// parseCounters reads the unlabelled samples of a Prometheus text
// exposition.
func parseCounters(body []byte) (map[string]uint64, error) {
	m := make(map[string]uint64)
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") || strings.ContainsRune(f[0], '{') {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: bad sample %q", sc.Text())
		}
		m[f[0]] = uint64(v)
	}
	return m, sc.Err()
}

// oocOutput is what an out-of-core job reported and wrote.
type oocOutput struct {
	dir       string // the job directory
	outPath   string
	records   int
	segments  int
	committed int
	poisoned  int
	out       []byte
}

// checkOOC checks a job against the generator and against fmtconv over a
// sequential RecordReader parse of the same corpus (seq).
func checkOOC(o oocOutput, records int, seq []byte) error {
	if o.poisoned != 0 {
		return fmt.Errorf("sirius-ooc-fmt: %d poisoned segments", o.poisoned)
	}
	if o.committed != o.segments || o.segments == 0 {
		return fmt.Errorf("sirius-ooc-fmt: %d of %d segments committed", o.committed, o.segments)
	}
	if o.records != records {
		return fmt.Errorf("sirius-ooc-fmt: job parsed %d records, generator wrote %d", o.records, records)
	}
	return sameBytes("sirius-ooc-fmt output", o.out, seq)
}
