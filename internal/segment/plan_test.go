package segment_test

import (
	"bytes"
	"fmt"
	"testing"

	"pads/internal/padsrt"
	"pads/internal/segment"
)

// checkPlan verifies the segmentation invariants: exact, contiguous coverage
// of the region; every segment non-empty; RecBase equal to the number of
// records strictly before the segment; and every interior boundary on a
// record boundary (per boundaryOK).
func checkPlan(t *testing.T, data []byte, p *segment.Plan, recsBefore func(off int64) int, boundaryOK func(off int64) bool) {
	t.Helper()
	if len(data) == 0 {
		if len(p.Segs) != 0 {
			t.Fatalf("empty region planned %d segments", len(p.Segs))
		}
		return
	}
	off := int64(0)
	for i, s := range p.Segs {
		if s.Index != i {
			t.Fatalf("segment %d has Index %d", i, s.Index)
		}
		if s.Off != off {
			t.Fatalf("segment %d at Off %d, want %d (gap or overlap)", i, s.Off, off)
		}
		if s.Len <= 0 {
			t.Fatalf("segment %d has Len %d", i, s.Len)
		}
		if want := recsBefore(s.Off); s.RecBase != want {
			t.Fatalf("segment %d RecBase = %d, want %d", i, s.RecBase, want)
		}
		if i > 0 && !boundaryOK(s.Off) {
			t.Fatalf("segment %d starts at %d, not a record boundary", i, s.Off)
		}
		off += s.Len
	}
	if off != int64(len(data)) {
		t.Fatalf("plan covers %d bytes of %d", off, len(data))
	}
}

func TestPlanNewline(t *testing.T) {
	var data []byte
	for i := 0; i < 500; i++ {
		data = append(data, fmt.Sprintf("record-%03d with a bit of padding %d\n", i, i*i)...)
	}
	data = append(data, "final unterminated record"...)
	recsBefore := func(off int64) int { return bytes.Count(data[:off], []byte{'\n'}) }
	boundaryOK := func(off int64) bool { return data[off-1] == '\n' }
	for _, segSize := range []int64{1 << 9, 1 << 10, 1 << 12, 1 << 20} {
		p, err := segment.PlanSegments(bytes.NewReader(data), 0, int64(len(data)), padsrt.Newline(), segSize)
		if err != nil {
			t.Fatalf("segSize %d: %v", segSize, err)
		}
		checkPlan(t, data, p, recsBefore, boundaryOK)
		if segSize < int64(len(data)) && len(p.Segs) < 2 {
			t.Fatalf("segSize %d over %d bytes planned %d segments", segSize, len(data), len(p.Segs))
		}
	}
}

func TestPlanFixed(t *testing.T) {
	const width = 17
	data := bytes.Repeat([]byte{0xAB}, width*531+5) // short final record
	recsBefore := func(off int64) int { return int(off / width) }
	boundaryOK := func(off int64) bool { return off%width == 0 }
	for _, segSize := range []int64{width - 1, 64, 1 << 10, 1 << 20} {
		p, err := segment.PlanSegments(bytes.NewReader(data), 0, int64(len(data)), padsrt.FixedWidth(width), segSize)
		if err != nil {
			t.Fatalf("segSize %d: %v", segSize, err)
		}
		checkPlan(t, data, p, recsBefore, boundaryOK)
	}
}

func TestPlanLenPrefix(t *testing.T) {
	disc := padsrt.LenPrefix() // 4-byte big-endian header
	var data []byte
	starts := map[int64]int{} // record start offset -> records before it
	for i := 0; i < 300; i++ {
		starts[int64(len(data))] = i
		body := bytes.Repeat([]byte{byte(i)}, 5+i%37)
		var rec []byte
		padsrt.FrameRecord(disc, &rec, body)
		data = append(data, rec...)
	}
	recsBefore := func(off int64) int { return starts[off] }
	boundaryOK := func(off int64) bool { _, ok := starts[off]; return ok }
	for _, segSize := range []int64{32, 256, 1 << 12, 1 << 20} {
		p, err := segment.PlanSegments(bytes.NewReader(data), 0, int64(len(data)), disc, segSize)
		if err != nil {
			t.Fatalf("segSize %d: %v", segSize, err)
		}
		checkPlan(t, data, p, recsBefore, boundaryOK)
	}
}

// TestPlanSegmentSmallerThanRecord: a record larger than the segment size
// must still land whole in one segment — the plan stretches, never splits a
// record.
func TestPlanSegmentSmallerThanRecord(t *testing.T) {
	var data []byte
	for i := 0; i < 20; i++ {
		data = append(data, bytes.Repeat([]byte{'a' + byte(i)}, 8<<10)...)
		data = append(data, '\n')
	}
	recsBefore := func(off int64) int { return bytes.Count(data[:off], []byte{'\n'}) }
	boundaryOK := func(off int64) bool { return data[off-1] == '\n' }
	p, err := segment.PlanSegments(bytes.NewReader(data), 0, int64(len(data)), padsrt.Newline(), 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	checkPlan(t, data, p, recsBefore, boundaryOK)
	for _, s := range p.Segs {
		if s.Len < 8<<10 {
			t.Fatalf("segment %d has Len %d, smaller than one record", s.Index, s.Len)
		}
	}
}

func TestPlanOffsetRegion(t *testing.T) {
	// Planning a region that starts mid-file (the post-header region of a
	// real job): offsets are absolute, RecBase counts from the region start.
	head := []byte("HEADER LINE\n")
	var body []byte
	for i := 0; i < 200; i++ {
		body = append(body, fmt.Sprintf("rec %d\n", i)...)
	}
	data := append(append([]byte{}, head...), body...)
	off := int64(len(head))
	p, err := segment.PlanSegments(bytes.NewReader(data), off, int64(len(body)), padsrt.Newline(), 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Segs) < 2 {
		t.Fatalf("expected multiple segments, got %d", len(p.Segs))
	}
	covered := int64(0)
	for i, s := range p.Segs {
		if s.Off != off+covered {
			t.Fatalf("segment %d at %d, want %d", i, s.Off, off+covered)
		}
		if want := bytes.Count(body[:s.Off-off], []byte{'\n'}); s.RecBase != want {
			t.Fatalf("segment %d RecBase %d, want %d", i, s.RecBase, want)
		}
		covered += s.Len
	}
	if covered != int64(len(body)) {
		t.Fatalf("covered %d of %d body bytes", covered, len(body))
	}
}

func TestPlanUnshardableDisciplines(t *testing.T) {
	data := []byte("whatever bytes these are")
	for _, disc := range []padsrt.Discipline{padsrt.NoRecords(), &padsrt.CustomDisc{}} {
		if _, err := segment.PlanSegments(bytes.NewReader(data), 0, int64(len(data)), disc, 8); err == nil {
			t.Fatalf("%s: expected an error, got a plan", disc.Name())
		}
	}
}
