package segment_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"pads/internal/padsrt"
	"pads/internal/segment"
	"pads/internal/telemetry"
)

// planTiny plans data at a small segment size, below MinSegSize, so a
// short input still spreads over several segments.
func planTiny(t *testing.T, data []byte, segSize int64) []segment.Seg {
	t.Helper()
	p, err := segment.PlanSegments(bytes.NewReader(data), 0, int64(len(data)), padsrt.Newline(), segSize)
	if err != nil {
		t.Fatal(err)
	}
	return p.Segs
}

// scanned is one record as a segment scan saw it: absolute record number,
// absolute start offset, body — the witnesses the executor must preserve.
type scanned struct {
	rec  int
	off  int64
	body string
}

func scanSource(src *padsrt.Source) ([]scanned, error) {
	var out []scanned
	for {
		ok, err := src.BeginRecord()
		if err != nil {
			return out, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, scanned{rec: src.RecordNum(), off: src.Pos().Byte, body: string(src.RecordBytes())})
		src.SkipToEOR()
		src.EndRecord(&padsrt.PD{})
	}
}

func lines(n int) []byte {
	var data []byte
	for i := 0; i < n; i++ {
		data = append(data, fmt.Sprintf("%d|payload-%d\n", i, i*7)...)
	}
	return data
}

// TestExecMatchesSequential: for every worker count, the committed stream
// of (record number, offset, body) equals the sequential scan exactly, and
// commit sees the segments in order.
func TestExecMatchesSequential(t *testing.T) {
	data := lines(997)
	seq, err := scanSource(padsrt.NewBorrowedSource(data))
	if err != nil {
		t.Fatal(err)
	}
	segs := planTiny(t, data, 64)
	for _, workers := range []int{1, 2, 3, 4, 8} {
		var got []scanned
		next := 0
		type res struct {
			idx  int
			recs []scanned
		}
		err := segment.Exec(segs, workers, nil, nil,
			func(t *segment.Task) (res, error) {
				recs, err := scanSource(t.Source(data[t.Seg.Off:t.Seg.End()], 0, nil))
				return res{t.Seg.Index, recs}, err
			}, nil,
			func(rs []res) error {
				for _, r := range rs {
					if r.idx != next {
						return fmt.Errorf("commit out of order: segment %d, want %d", r.idx, next)
					}
					next++
					got = append(got, r.recs...)
				}
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(seq) {
			t.Fatalf("workers=%d: %d records, want %d", workers, len(got), len(seq))
		}
		for i := range got {
			if got[i] != seq[i] {
				t.Fatalf("workers=%d: record %d = %+v, want %+v", workers, i, got[i], seq[i])
			}
		}
	}
}

// TestExecBaseOffsets: a region that starts past a header reports
// positions and record numbers as if the header had been parsed before it.
func TestExecBaseOffsets(t *testing.T) {
	data := []byte("HEADER-LINE\naa\nbb\ncc\ndd\n")
	const base = 12 // len("HEADER-LINE\n")
	p, err := segment.PlanSegments(bytes.NewReader(data), base, int64(len(data)-base), padsrt.Newline(), 4)
	if err != nil {
		t.Fatal(err)
	}
	var got []scanned
	err = segment.Exec(p.Segs, 2, nil, nil,
		func(t *segment.Task) ([]scanned, error) {
			return scanSource(t.Source(data[t.Seg.Off:t.Seg.End()], 1, nil))
		}, nil,
		func(rs [][]scanned) error {
			for _, r := range rs {
				got = append(got, r...)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	want := []scanned{{2, 12, "aa"}, {3, 15, "bb"}, {4, 18, "cc"}, {5, 21, "dd"}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

// TestExecWorkError: the first error in segment order wins, the segments
// before it commit, and nothing after it does.
func TestExecWorkError(t *testing.T) {
	segs := planTiny(t, lines(64), 32)
	boom := errors.New("boom")
	var committed []int
	err := segment.Exec(segs, 4, nil, nil,
		func(t *segment.Task) (int, error) {
			if t.Seg.Index == 2 || t.Seg.Index == 5 {
				return 0, fmt.Errorf("segment %d: %w", t.Seg.Index, boom)
			}
			return t.Seg.Index, nil
		}, nil,
		func(rs []int) error {
			committed = append(committed, rs...)
			return nil
		})
	if !errors.Is(err, boom) || err.Error() != "segment 2: boom" {
		t.Fatalf("err = %v, want segment 2's boom", err)
	}
	if fmt.Sprint(committed) != "[0 1]" {
		t.Fatalf("committed %v, want only segments 0 and 1", committed)
	}
}

// TestExecCommitError: a commit failure stops the run; no later segment
// commits.
func TestExecCommitError(t *testing.T) {
	segs := planTiny(t, lines(64), 32)
	boom := errors.New("sink failed")
	commits := 0
	err := segment.Exec(segs, 2, nil, nil,
		func(t *segment.Task) (int, error) { return t.Seg.Index, nil }, nil,
		func(rs []int) error {
			commits++
			return boom
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want sink failure", err)
	}
	if commits != 1 {
		t.Fatalf("commit called %d times after failing, want 1", commits)
	}
}

// TestExecEmptyRegion: an empty region plans no segments, and the executor
// runs nothing and succeeds.
func TestExecEmptyRegion(t *testing.T) {
	segs := segment.PlanBytes(nil, 0, nil, 4)
	calls := 0
	err := segment.Exec(segs, 4, nil, nil,
		func(t *segment.Task) (int, error) { calls++; return 0, nil }, nil,
		func(rs []int) error { calls++; return nil })
	if err != nil || calls != 0 {
		t.Fatalf("empty region: err=%v, %d calls, want nil and 0", err, calls)
	}
}

// TestExecCancelThroughSourceOptions: a cancel hook in the source options
// reaches every segment's source, so an expired context aborts every
// worker through the runtime's sticky LimitError — no per-executor
// cancellation plumbing (docs/ROBUSTNESS.md, deadline propagation).
func TestExecCancelThroughSourceOptions(t *testing.T) {
	data := lines(4096)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: every segment must abort at its first record
	opts := []padsrt.SourceOption{padsrt.WithCancel(ctx.Err)}
	scannedRecs := 0
	err := segment.Exec(planTiny(t, data, 1024), 4, nil, nil,
		func(t *segment.Task) (int, error) {
			recs, err := scanSource(t.Source(data[t.Seg.Off:t.Seg.End()], 0, opts))
			return len(recs), err
		}, nil,
		func(ns []int) error {
			for _, n := range ns {
				scannedRecs += n
			}
			return nil
		})
	var le *padsrt.LimitError
	if !errors.As(err, &le) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want LimitError wrapping context.Canceled", err)
	}
	if scannedRecs != 0 {
		t.Fatalf("%d records scanned under a cancelled context, want 0", scannedRecs)
	}
}

// TestExecPanicRetriedThenFailed: a segment whose work panics once is
// retried and commits; one that panics twice goes to failed, whose result
// commits in its place, and the fault counters say so.
func TestExecPanicRetriedThenFailed(t *testing.T) {
	segs := planTiny(t, lines(64), 32)
	attempts := make([]int, len(segs))
	var got []int
	st := telemetry.NewStats()
	err := segment.Exec(segs, 1, st, nil,
		func(t *segment.Task) (int, error) {
			attempts[t.Seg.Index]++
			if t.Seg.Index == 1 && attempts[1] == 1 || t.Seg.Index == 3 {
				panic("injected")
			}
			return t.Seg.Index, nil
		},
		func(seg segment.Seg, err error) (int, error) { return -seg.Index, nil },
		func(rs []int) error {
			got = append(got, rs...)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int, len(segs))
	for i := range want {
		want[i] = i
	}
	want[3] = -3
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("committed %v, want %v", got, want)
	}
	if f := st.Faults; f.ChunkFailures != 3 || f.ChunkRetries != 2 || f.ChunkRescues != 1 {
		t.Fatalf("fault counters = %+v, want 3 failures, 2 retries, 1 rescue", f)
	}
	if len(st.Workers) != 1 {
		t.Fatalf("%d worker rows for one worker goroutine", len(st.Workers))
	}
}

// checkSegs verifies in-memory plan invariants: exact coverage of the
// input in order, and RecBase counting the records before each segment.
func checkSegs(t *testing.T, data []byte, segs []segment.Seg, recsBefore func(off int) int) {
	t.Helper()
	off := int64(0)
	for i, s := range segs {
		if s.Index != i || s.Off != off {
			t.Fatalf("segment %d: Index %d at Off %d, want at %d", i, s.Index, s.Off, off)
		}
		if want := recsBefore(int(s.Off)); s.RecBase != want {
			t.Fatalf("segment %d RecBase = %d, want %d", i, s.RecBase, want)
		}
		off += s.Len
	}
	if off != int64(len(data)) {
		t.Fatalf("segments cover %d of %d bytes", off, len(data))
	}
}

// TestPlanBytesNewline: an in-memory plan splits at most one segment per
// worker, never below MinSegSize, on record boundaries.
func TestPlanBytesNewline(t *testing.T) {
	var data []byte
	for i := 0; len(data) < 1<<20; i++ {
		data = append(data, fmt.Sprintf("record-%06d with some padding %d\n", i, i*i)...)
	}
	data = append(data, "final unterminated"...)
	recsBefore := func(off int) int { return bytes.Count(data[:off], []byte{'\n'}) }
	for _, n := range []int{1, 2, 3, 4, 8, 64, 1000} {
		segs := segment.PlanBytes(data, 0, padsrt.Newline(), n)
		if most := len(data)/segment.MinSegSize + 1; len(segs) > n || len(segs) > most {
			t.Fatalf("n=%d: %d segments", n, len(segs))
		}
		checkSegs(t, data, segs, recsBefore)
		for i, s := range segs[:len(segs)-1] {
			if data[s.End()-1] != '\n' {
				t.Fatalf("n=%d: segment %d does not end on a record boundary", n, i)
			}
		}
	}
}

func TestPlanBytesFixed(t *testing.T) {
	const width = 17
	data := bytes.Repeat([]byte{0xAB}, width*53000+5) // short final record
	for _, n := range []int{1, 2, 4, 7, 100} {
		segs := segment.PlanBytes(data, 0, padsrt.FixedWidth(width), n)
		checkSegs(t, data, segs, func(off int) int { return off / width })
		for i, s := range segs[:len(segs)-1] {
			if s.Len%width != 0 {
				t.Fatalf("n=%d: segment %d length %d not a multiple of %d", n, i, s.Len, width)
			}
		}
	}
}

func TestPlanBytesLenPrefix(t *testing.T) {
	disc := padsrt.LenPrefix() // 4-byte big-endian header
	var data []byte
	starts := map[int]bool{}
	var startList []int
	for i := 0; len(data) < 1<<19; i++ {
		starts[len(data)] = true
		startList = append(startList, len(data))
		var rec []byte
		padsrt.FrameRecord(disc, &rec, bytes.Repeat([]byte{byte(i)}, 5+i%230))
		data = append(data, rec...)
	}
	recsBefore := func(off int) int {
		n := 0
		for _, s := range startList {
			if s < off {
				n++
			}
		}
		return n
	}
	for _, n := range []int{1, 2, 4, 9} {
		segs := segment.PlanBytes(data, 0, disc, n)
		checkSegs(t, data, segs, recsBefore)
		for i, s := range segs {
			if !starts[int(s.Off)] {
				t.Fatalf("n=%d: segment %d starts at %d, not a record start", n, i, s.Off)
			}
		}
	}
}

// TestPlanBytesUnshardableDisciplines: none and custom framing keep the
// region whole — one segment, where the out-of-core planner refuses.
func TestPlanBytesUnshardableDisciplines(t *testing.T) {
	data := bytes.Repeat([]byte("whatever bytes these are "), 1<<14)
	for _, disc := range []padsrt.Discipline{padsrt.NoRecords(), &padsrt.CustomDisc{}} {
		segs := segment.PlanBytes(data, 5, disc, 8)
		if len(segs) != 1 || segs[0].Off != 5 || segs[0].End() != int64(len(data)) {
			t.Fatalf("%s: expected one segment covering the region, got %+v", disc.Name(), segs)
		}
	}
}
