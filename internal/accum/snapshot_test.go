package accum

import (
	"bytes"
	"encoding/json"
	"testing"

	"pads/internal/padsrt"
	"pads/internal/value"
)

// unionValue builds the i-th test value: a union over a struct exercising
// every component kind the profile tracks — numerics (histogram + reservoir),
// strings, arrays, options, and error tallies.
func unionValue(i int) value.Value {
	var pd padsrt.PD
	if i%7 == 3 {
		pd = padsrt.PD{Nerr: 1, ErrCode: padsrt.ErrInvalidInt}
	}
	rec := &value.Struct{
		Names: []string{"id", "name", "tags", "extra"},
		Fields: []value.Value{
			&value.Uint{Common: value.Common{Pd: pd}, Val: uint64(i * i % 977), Bits: 32},
			&value.Str{Val: []string{"alpha", "beta", "gamma", "delta", "x"}[i%5]},
			&value.Array{Elems: []value.Value{
				&value.Int{Val: int64(i%13 - 6)},
				&value.Int{Val: int64(i % 3)},
			}},
			&value.Opt{Present: i%4 != 0, Val: &value.Float{Val: float64(i) / 3}},
		},
	}
	if i%2 == 0 {
		return &value.Union{Tag: "even", Val: rec}
	}
	return &value.Union{Tag: "odd", Val: rec}
}

func buildAccum(lo, hi int) *Accum {
	a := New(Config{MaxTracked: 8, TopN: 4})
	for i := lo; i < hi; i++ {
		a.Add(unionValue(i))
	}
	return a
}

func reportOf(a *Accum) string {
	var b bytes.Buffer
	a.Report(&b, "<top>")
	return b.String()
}

func TestSnapshotRoundTrip(t *testing.T) {
	a := buildAccum(0, 5000) // overflows MaxTracked and the reservoir
	enc, err := json.Marshal(a)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	back := New(DefaultConfig())
	if err := json.Unmarshal(enc, back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got, want := reportOf(back), reportOf(a); got != want {
		t.Fatalf("report changed across round-trip:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	// The encoding must be deterministic (the manifest hashes it).
	enc2, err := json.Marshal(a)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatalf("encoding is not deterministic")
	}
}

// A restored accumulator must keep accumulating exactly like the original —
// resume depends on snapshot-then-continue being equivalent to never
// stopping.
func TestSnapshotContinuation(t *testing.T) {
	full := buildAccum(0, 3000)

	enc, err := json.Marshal(buildAccum(0, 1500))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	restored := new(Accum)
	if err := json.Unmarshal(enc, restored); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	for i := 1500; i < 3000; i++ {
		restored.Add(unionValue(i))
	}
	if got, want := reportOf(restored), reportOf(full); got != want {
		t.Fatalf("snapshot+continue diverged from uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}

	// Merging into a restored accumulator must behave like merging into the
	// original (the segment runner folds per-segment profiles this way).
	mergedA := buildAccum(0, 1500)
	mergedA.Merge(buildAccum(1500, 3000))
	restored2 := new(Accum)
	if err := json.Unmarshal(enc, restored2); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	restored2.Merge(buildAccum(1500, 3000))
	if got, want := reportOf(restored2), reportOf(mergedA); got != want {
		t.Fatalf("snapshot+merge diverged from merge:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

// TestSnapshotRejectsInconsistentTracker: a snapshot read back from disk
// must list each tracked value once in its order and give it a count, or
// the restored tracker's positions would not match its counts.
func TestSnapshotRejectsInconsistentTracker(t *testing.T) {
	enc, err := json.Marshal(New(DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	var base map[string]any
	if err := json.Unmarshal(enc, &base); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		order  []string
		counts map[string]uint64
	}{
		"uncounted value": {[]string{"a", "b"}, map[string]uint64{"a": 1, "c": 2}},
		"listed twice":    {[]string{"a", "a"}, map[string]uint64{"a": 1, "b": 2}},
		"unlisted count":  {[]string{"a"}, map[string]uint64{"a": 1, "b": 2}},
	} {
		base["order"], base["counts"] = tc.order, tc.counts
		bad, err := json.Marshal(base)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(bad, New(DefaultConfig())); err == nil {
			t.Errorf("%s: snapshot with order %v and counts %v restored without error", name, tc.order, tc.counts)
		}
	}
}
