package query

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"pads/internal/datagen"
	"pads/internal/dsl"
	"pads/internal/interp"
	"pads/internal/padsrt"
	"pads/internal/sema"
	"pads/internal/value"
)

func siriusRoot(t *testing.T, data []byte) *Node {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "sirius.pads"))
	if err != nil {
		t.Fatal(err)
	}
	prog, errs := dsl.Parse(string(src))
	if len(errs) > 0 {
		t.Fatalf("parse: %v", errs[0])
	}
	desc, serrs := sema.Check(prog)
	if len(serrs) > 0 {
		t.Fatalf("check: %v", serrs[0])
	}
	in, err := interp.New(desc)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	v, err := in.ParseSource(padsrt.NewBytesSource(data))
	if err != nil {
		t.Fatal(err)
	}
	return NewNode("sirius", v)
}

func sampleRoot(t *testing.T) *Node {
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "sirius.sample"))
	if err != nil {
		t.Fatal(err)
	}
	return siriusRoot(t, data)
}

func TestNodeAPI(t *testing.T) {
	root := sampleRoot(t)
	// Root is the out_sum struct: children h, es.
	if root.NumChildren() != 2 {
		t.Fatalf("root children = %d", root.NumChildren())
	}
	h := root.KthChild(0)
	if h.Name != "h" {
		t.Errorf("child 0 = %s", h.Name)
	}
	es := root.KthChild(1)
	// es is an array: 2 elts + length.
	if es.NumChildren() != 3 {
		t.Fatalf("es children = %d", es.NumChildren())
	}
	if es.KthChild(2).Name != "length" || es.KthChild(2).Text() != "2" {
		t.Errorf("length child = %s %s", es.KthChild(2).Name, es.KthChild(2).Text())
	}
	if es.KthChild(5) != nil {
		t.Error("out-of-range child should be nil")
	}
	entry := es.KthChild(0)
	if entry.Parent != es || es.Parent != root {
		t.Error("parent links broken")
	}
	hdr := entry.ChildrenNamed("header")
	if len(hdr) != 1 {
		t.Fatalf("header children = %d", len(hdr))
	}
	on := hdr[0].ChildrenNamed("order_num")
	if len(on) != 1 || on[0].Text() != "9152" {
		t.Errorf("order_num = %v", on)
	}
	if f, ok := on[0].Num(); !ok || f != 9152 {
		t.Errorf("order_num num = %v %v", f, ok)
	}
}

func TestPDNodesForBuggyData(t *testing.T) {
	// An out-of-order event sequence gets a pd child.
	data := []byte("0|1005022800\n1|1|1|0|0|0|0||1|T|0|u|s|A|2000|B|1000\n")
	root := siriusRoot(t, data)
	q, err := Compile("/es/elt/events/pd/errCode")
	if err != nil {
		t.Fatal(err)
	}
	got := q.Run(root)
	if len(got) != 1 || got[0].Text() != "Pwhere clause violated" {
		t.Errorf("pd errCode nodes = %v", got)
	}
}

// TestSiriusQueries is experiment E9: the section 5.4 queries.
func TestSiriusQueries(t *testing.T) {
	// Build a bigger synthetic file for meaningful answers.
	var buf bytes.Buffer
	cfg := datagen.DefaultSirius(300)
	cfg.SyntaxErrors = 0
	cfg.SortViolations = 0
	if _, err := datagen.Sirius(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	root := siriusRoot(t, buf.Bytes())

	// Query 1 (the paper's): all orders starting within a time window.
	// Timestamps in the synthetic feed are epoch seconds near 1e9.
	q1, err := Compile(`$sirius/es/elt[events/elt[1][tstamp >= 1000000000 and tstamp <= 1001500000]]`)
	if err != nil {
		t.Fatal(err)
	}
	inWindow := q1.Run(root)

	// Cross-check against a hand count via the node API.
	want := 0
	for _, entry := range root.ChildrenNamed("es")[0].ChildrenNamed("elt") {
		evs := entry.ChildrenNamed("events")[0].ChildrenNamed("elt")
		if len(evs) == 0 {
			continue
		}
		ts, _ := evs[0].ChildrenNamed("tstamp")[0].Num()
		if ts >= 1000000000 && ts <= 1001500000 {
			want++
		}
	}
	if want == 0 {
		t.Fatal("test window matched nothing; fixture drifted")
	}
	if len(inWindow) != want {
		t.Errorf("query 1: %d orders, hand count %d", len(inWindow), want)
	}

	// Query 2 (the paper's): count orders passing through a given state.
	state := datagen.StateName(0)
	q2, err := Compile(`count($sirius/es/elt[events/elt/state = "` + state + `"])`)
	if err != nil {
		t.Fatal(err)
	}
	_, n, isAgg := q2.Eval(root)
	if !isAgg {
		t.Fatal("count() did not aggregate")
	}
	want = 0
	for _, entry := range root.ChildrenNamed("es")[0].ChildrenNamed("elt") {
		for _, ev := range entry.ChildrenNamed("events")[0].ChildrenNamed("elt") {
			if ev.ChildrenNamed("state")[0].Text() == state {
				want++
				break
			}
		}
	}
	if int(n) != want {
		t.Errorf("query 2: count = %v, hand count %d", n, want)
	}
	if want == 0 {
		t.Error("state never occurred; fixture drifted")
	}

	// Query 3 (the paper's): average time from one state to another,
	// via the programmatic data API (the paper codes this in XQuery).
	avg, samples := AvgStateToState(root, datagen.StateName(0), datagen.StateName(1))
	if samples > 0 && avg <= 0 {
		t.Errorf("avg transition time = %v over %d samples", avg, samples)
	}
}

// AvgStateToState computes the mean seconds between the first occurrence of
// state a and a later occurrence of state b within each order: the third
// section 5.4 query, expressed against the data API.
func AvgStateToState(root *Node, a, b string) (float64, int) {
	var sum float64
	n := 0
	for _, entry := range root.ChildrenNamed("es")[0].ChildrenNamed("elt") {
		events := entry.ChildrenNamed("events")[0].ChildrenNamed("elt")
		var tA float64
		haveA := false
		for _, ev := range events {
			st := ev.ChildrenNamed("state")[0].Text()
			ts, _ := ev.ChildrenNamed("tstamp")[0].Num()
			if !haveA && st == a {
				tA, haveA = ts, true
			} else if haveA && st == b {
				sum += ts - tA
				n++
				break
			}
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

func TestXPathFeatures(t *testing.T) {
	root := sampleRoot(t)

	cases := []struct {
		q    string
		want int
	}{
		{"/es/elt", 2},
		{"/es/elt[1]", 1},
		{"/es/elt[2]", 1},
		{"/es/elt[3]", 0},
		{"/es/*", 3}, // two elts + length
		{"//state", 3},
		{"//tstamp", 4}, // header tstamp + 3 event tstamps
		{`/es/elt[header/order_num = 9152]`, 1},
		{`/es/elt[header/order_num != 9152]`, 1},
		{`/es/elt[header/order_num > 9000 and header/ord_version = 1]`, 2},
		{`/es/elt[header/order_num = 1 or header/order_num = 9153]`, 1},
		{`/es/elt[header/stream = "DUO"]`, 2},
		{`/es/elt[events/elt/state = "LOC_CRTE"]`, 1},
		{`/es/elt[header/zip_code]`, 1}, // existence: only entry 0 has a zip
		{`/h`, 1},
	}
	for _, c := range cases {
		q, err := Compile(c.q)
		if err != nil {
			t.Errorf("%s: %v", c.q, err)
			continue
		}
		got := q.Run(root)
		if len(got) != c.want {
			t.Errorf("%s: %d nodes, want %d", c.q, len(got), c.want)
		}
	}
}

func TestAggregates(t *testing.T) {
	root := sampleRoot(t)
	cases := []struct {
		q    string
		want float64
	}{
		{"count(//state)", 3},
		{"sum(/es/elt/header/order_num)", 9152 + 9153},
		{"min(/es/elt/header/order_num)", 9152},
		{"max(/es/elt/header/order_num)", 9153},
		{"avg(/es/elt/header/order_num)", 9152.5},
	}
	for _, c := range cases {
		q, err := Compile(c.q)
		if err != nil {
			t.Errorf("%s: %v", c.q, err)
			continue
		}
		_, got, isAgg := q.Eval(root)
		if !isAgg || got != c.want {
			t.Errorf("%s = %v (agg=%v), want %v", c.q, got, isAgg, c.want)
		}
	}
}

func TestXSDateLiteral(t *testing.T) {
	root := sampleRoot(t)
	// Header tstamp 1005022800 = 2001-11-06 05:00 UTC.
	q, err := Compile(`/h[tstamp >= xs:date("2001-11-01") and tstamp <= xs:date("2001-12-01")]`)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Run(root); len(got) != 1 {
		t.Errorf("date window matched %d", len(got))
	}
	q, _ = Compile(`/h[tstamp < xs:date("2001-01-01")]`)
	if got := q.Run(root); len(got) != 0 {
		t.Errorf("early window matched %d", len(got))
	}
}

func TestCompileErrors(t *testing.T) {
	for _, bad := range []string{
		"", "/es/elt[", "/es/elt[foo", `/es/elt[x = "unterminated]`,
		"count(/es/elt", `/h[tstamp >= xs:date("nonsense")]`, "/es ]]",
	} {
		if _, err := Compile(bad); err == nil {
			t.Errorf("Compile(%q) succeeded", bad)
		}
	}
}

func TestUnionAndOptNodes(t *testing.T) {
	root := sampleRoot(t)
	// ramp union: entry 0 took genRamp, entry 1 took ramp.
	q, _ := Compile("/es/elt/header/ramp/genRamp/id")
	got := q.Run(root)
	if len(got) != 1 || got[0].Text() != "152272" {
		t.Errorf("genRamp id = %v", got)
	}
	// Popt present values collapse onto the field name.
	q, _ = Compile("/es/elt/header/zip_code")
	got = q.Run(root)
	if len(got) != 1 || got[0].Text() != "07988" {
		t.Errorf("zip = %v", got)
	}
}

func TestNodeOverValue(t *testing.T) {
	u := &value.Uint{Val: 7}
	n := NewNode("x", u)
	if n.NumChildren() != 0 || n.Text() != "7" {
		t.Errorf("leaf node: children=%d text=%q", n.NumChildren(), n.Text())
	}
	if n.Path() != "/x" {
		t.Errorf("path = %s", n.Path())
	}
}
