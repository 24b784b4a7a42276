// Package fig10 implements the four programs of the paper's performance
// evaluation (section 7, Figure 10) on the PADS side, using the generated
// Sirius parser:
//
//   - PadsVet: check all specified properties, including the event-timestamp
//     sort order, echoing clean and erroneous records to separate outputs
//     (the counterpart of the 323-line Perl vetter).
//   - PadsSelect: with all error checking off, print the order numbers of
//     records that ever pass through a given state (the counterpart of the
//     66-line Perl selector built on the Figure 9 regular expression).
//   - PadsCount: count records (the 81-second PADS baseline vs Perl's 124).
//
// The Perl counterparts live in pads/internal/baseline.
package fig10

import (
	"bufio"
	"bytes"
	"io"

	"pads/internal/baseline"
	"pads/internal/gen/sirius"
	"pads/internal/padsrt"
	"pads/internal/segment"
)

// VetStats aliases the baseline stats type so the two sides report alike.
type VetStats = baseline.VetStats

// SelectStats aliases the baseline stats type.
type SelectStats = baseline.SelectStats

func newSource(r io.Reader) *padsrt.Source {
	return padsrt.NewSource(bufio.NewReaderSize(r, 1<<20))
}

// PadsVet parses every record with full checking (the complete description,
// timestamp sort included), writing clean records to clean and erroneous
// ones to errOut; either writer may be nil to discard.
func PadsVet(r io.Reader, clean, errOut io.Writer) (VetStats, error) {
	return PadsVetSource(newSource(r), clean, errOut)
}

// PadsVetSource is PadsVet over a caller-configured Source, so callers can
// attach telemetry (padsrt.WithStats) — padsbench uses it to report the
// runtime counters of an instrumented vetting pass.
func PadsVetSource(s *padsrt.Source, clean, errOut io.Writer) (VetStats, error) {
	vetHeader(s, clean)
	st := vetRecords(s, clean, errOut)
	return st, s.Err()
}

// vetHeader parses the source header with full checking and echoes it to
// clean (when non-nil) if it is clean.
func vetHeader(s *padsrt.Source, clean io.Writer) error {
	var hdr sirius.Summary_header_t
	var hdrPD sirius.Summary_header_tPD
	sirius.ReadSummary_header_t(s, nil, &hdrPD, &hdr)
	if clean == nil || hdrPD.PD.Nerr != 0 {
		return nil
	}
	_, err := clean.Write(sirius.WriteSummary_header_t(nil, &hdr))
	return err
}

// vetRecords vets every record left in s: the record loop of PadsVetSource
// and of each PadsVetParallel segment.
func vetRecords(s *padsrt.Source, clean, errOut io.Writer) VetStats {
	var st VetStats
	// Clean records are copied through byte-for-byte (what the task asks
	// for, and what the go-port and Perl vetters do) rather than
	// re-serialized field by field; only erroneous records re-serialize,
	// surfacing the parser's view of what it could salvage.
	s.SetKeepRecords(true)
	var buf []byte
	var e sirius.Entry_t
	var epd sirius.Entry_tPD
	for s.More() {
		sirius.ReadEntry_t(s, nil, &epd, &e)
		st.Records++
		if epd.PD.Nerr == 0 {
			st.Clean++
			if clean != nil {
				buf = append(buf[:0], s.LastRecord()...)
				buf = append(buf, '\n')
				clean.Write(buf)
			}
		} else {
			st.Errors++
			if errOut != nil {
				buf = sirius.WriteEntry_t(buf[:0], &e)
				errOut.Write(buf)
			}
		}
	}
	return st
}

// selectMask turns off all checking (section 7: "we turn off all error
// checking") and stores only what the query needs — the order number and
// the event states — so the unused fields take the skip paths.
var selectMask = func() *sirius.Entry_tMask {
	m := sirius.NewEntry_tMask(padsrt.Ignore)
	m.Header.Order_num = padsrt.Set
	m.Events.Elem.State = padsrt.Set
	return m
}()

// PadsSelect prints the order numbers of records that pass through state,
// parsing with checking disabled.
func PadsSelect(r io.Reader, w io.Writer, state string) (SelectStats, error) {
	return PadsSelectSource(newSource(r), w, state)
}

// PadsSelectSource is PadsSelect over a caller-configured Source (see
// PadsVetSource).
func PadsSelectSource(s *padsrt.Source, w io.Writer, state string) (SelectStats, error) {
	selectHeader(s)
	st := selectRecords(s, w, state)
	return st, s.Err()
}

var selectHdrMask = sirius.NewSummary_header_tMask(padsrt.Set)

func selectHeader(s *padsrt.Source) {
	var hdr sirius.Summary_header_t
	var hdrPD sirius.Summary_header_tPD
	sirius.ReadSummary_header_t(s, selectHdrMask, &hdrPD, &hdr)
}

// selectRecords runs the selection over every record left in s: the record
// loop of PadsSelectSource and of each PadsSelectParallel segment.
func selectRecords(s *padsrt.Source, w io.Writer, state string) SelectStats {
	var st SelectStats
	var e sirius.Entry_t
	var epd sirius.Entry_tPD
	var buf []byte
	for s.More() {
		sirius.ReadEntry_t(s, selectMask, &epd, &e)
		st.Records++
		for i := range e.Events.Elems {
			if e.Events.Elems[i].State == state {
				st.Matched++
				if w != nil {
					buf = padsrt.AppendUint(buf[:0], uint64(e.Header.Order_num))
					buf = append(buf, '\n')
					w.Write(buf)
				}
				break
			}
		}
	}
	return st
}

// bufferIf returns b as the writer a segment buffers into for w, or nil
// when w is nil (the output is discarded).
func bufferIf(w io.Writer, b *bytes.Buffer) io.Writer {
	if w == nil {
		return nil
	}
	return b
}

// PadsVetParallel is PadsVet over an in-memory input, record-sharded
// across workers on the segment executor (segment.Exec). The header parses
// sequentially; each worker vets its segments with a private parser and
// buffers their clean and erroneous output, which commits in segment order
// — so the clean and error streams are byte-identical to PadsVet's for any
// worker count.
func PadsVetParallel(data []byte, clean, errOut io.Writer, workers int) (VetStats, error) {
	s := padsrt.NewBorrowedSource(data)
	var st VetStats
	if err := vetHeader(s, clean); err != nil {
		return st, err
	}
	base, recs := s.Pos().Byte, s.RecordNum()
	type shard struct {
		st         VetStats
		clean, bad bytes.Buffer
	}
	err := segment.Exec(segment.PlanBytes(data, base, nil, workers), workers, nil, nil,
		func(t *segment.Task) (*shard, error) {
			src := t.Source(data[t.Seg.Off:t.Seg.End()], recs, nil)
			sh := &shard{}
			sh.st = vetRecords(src, bufferIf(clean, &sh.clean), bufferIf(errOut, &sh.bad))
			return sh, src.Err()
		}, nil,
		func(shs []*shard) error {
			for _, sh := range shs {
				st.Records += sh.st.Records
				st.Clean += sh.st.Clean
				st.Errors += sh.st.Errors
				if _, err := sh.clean.WriteTo(clean); err != nil {
					return err
				}
				if _, err := sh.bad.WriteTo(errOut); err != nil {
					return err
				}
			}
			return nil
		})
	return st, err
}

// PadsSelectParallel is PadsSelect over an in-memory input, record-sharded
// across workers; matched order numbers print in record order, identical to
// the sequential output.
func PadsSelectParallel(data []byte, w io.Writer, state string, workers int) (SelectStats, error) {
	s := padsrt.NewBorrowedSource(data)
	selectHeader(s)
	base, recs := s.Pos().Byte, s.RecordNum()
	type shard struct {
		st  SelectStats
		out bytes.Buffer
	}
	var st SelectStats
	err := segment.Exec(segment.PlanBytes(data, base, nil, workers), workers, nil, nil,
		func(t *segment.Task) (*shard, error) {
			src := t.Source(data[t.Seg.Off:t.Seg.End()], recs, nil)
			sh := &shard{}
			sh.st = selectRecords(src, bufferIf(w, &sh.out), state)
			return sh, src.Err()
		}, nil,
		func(shs []*shard) error {
			for _, sh := range shs {
				st.Records += sh.st.Records
				st.Matched += sh.st.Matched
				if _, err := sh.out.WriteTo(w); err != nil {
					return err
				}
			}
			return nil
		})
	return st, err
}

// PadsCountParallel counts records over an in-memory input, sharded across
// workers.
func PadsCountParallel(data []byte, workers int) (int, error) {
	n := 0
	err := segment.Exec(segment.PlanBytes(data, 0, nil, workers), workers, nil, nil,
		func(t *segment.Task) (int, error) {
			return PadsCountSource(t.Source(data[t.Seg.Off:t.Seg.End()], 0, nil))
		}, nil,
		func(ms []int) error {
			for _, m := range ms {
				n += m
			}
			return nil
		})
	return n, err
}

// PadsCount counts records through the PADS record discipline (the trivial
// 81-second program of section 7).
func PadsCount(r io.Reader) (int, error) {
	return PadsCountSource(newSource(r))
}

// PadsCountSource is PadsCount over a caller-configured Source (see
// PadsVetSource).
func PadsCountSource(s *padsrt.Source) (int, error) {
	n := 0
	for {
		ok, err := s.BeginRecord()
		if err != nil {
			return n, err
		}
		if !ok {
			return n, nil
		}
		s.SkipToEOR()
		s.EndRecord(nil)
		n++
	}
}
