// Package segment is the scan execution layer. It splits an input region
// into record-aligned segments under the active padsrt.Discipline and runs
// them on Exec, the ordered executor every multi-segment scan shares: the
// in-memory -workers scans over borrowed slices, and out-of-core jobs that
// stream an arbitrarily large file in O(workers × segment) memory and
// commit through a durable manifest, so a killed job resumes where it
// stopped (docs/ROBUSTNESS.md, "Out-of-core jobs"; docs/PARALLEL.md).
//
// This file holds the boundary resynchronization over an io.ReaderAt plus
// length (docs/PARALLEL.md):
//
//   - newline: a cut goes just past the next terminator at or beyond each
//     target offset; the record base is the terminator count before the cut.
//   - fixed(W): cuts fall on multiples of W, no I/O needed.
//   - lenprefix: the length headers are walked from the start; cuts fall on
//     header boundaries at or beyond each target.
//   - none/custom: no cheap resynchronization exists. The planner refuses:
//     PlanBytes degrades to one in-memory segment, while an out-of-core job
//     cannot run (a single unbounded segment would reintroduce O(input)
//     memory).
package segment

import (
	"bytes"
	"fmt"
	"io"

	"pads/internal/padsrt"
)

// cut marks a record-aligned split point within a scanned region: a byte
// offset (region-relative) that starts a record, plus the number of records
// before it.
type cut struct {
	Off int64
	Rec int
}

// scanBlock is the unit of sequential I/O during a resync scan. Scanning is
// strictly forward, so one cached block of this size is the whole memory
// cost of planning, regardless of input size.
const scanBlock = 256 * 1024

// scanner streams a region [base, base+size) of an io.ReaderAt forward,
// one cached block at a time.
type scanner struct {
	r    io.ReaderAt
	base int64 // region start within r
	size int64 // region length
	pos  int64 // region-relative cursor
	blk  []byte
	bOff int64 // region-relative offset of blk[0]
	err  error
}

func newScanner(r io.ReaderAt, base, size int64) *scanner {
	return &scanner{r: r, base: base, size: size, bOff: -1}
}

// window returns the buffered bytes at the cursor, loading a fresh block if
// needed. It returns nil at end of region or on error.
func (sc *scanner) window() []byte {
	if sc.err != nil || sc.pos >= sc.size {
		return nil
	}
	if sc.bOff >= 0 && sc.pos >= sc.bOff && sc.pos < sc.bOff+int64(len(sc.blk)) {
		return sc.blk[sc.pos-sc.bOff:]
	}
	n := sc.size - sc.pos
	if n > scanBlock {
		n = scanBlock
	}
	if cap(sc.blk) < int(n) {
		sc.blk = make([]byte, n)
	}
	sc.blk = sc.blk[:n]
	m, err := io.ReadFull(io.NewSectionReader(sc.r, sc.base+sc.pos, n), sc.blk)
	if err != nil {
		// The region length came from a stat (or a manifest); a short read
		// means the input changed underneath the scan.
		sc.err = fmt.Errorf("segment: read %d bytes at %d: %w", n, sc.base+sc.pos, err)
		return nil
	}
	sc.blk = sc.blk[:m]
	sc.bOff = sc.pos
	return sc.blk
}

// advance moves the cursor forward n bytes.
func (sc *scanner) advance(n int64) { sc.pos += n }

// newlineCuts resynchronizes each ascending target offset to the next
// terminator boundary, in one forward pass that also counts terminators so
// every cut carries its record base: a target at or before the previous cut
// is skipped, and a cut that would land at or past the region end stops the
// scan.
func newlineCuts(sc *scanner, term byte, targets []int64) ([]cut, error) {
	var cuts []cut
	var prevOff int64
	rec := 0
	for _, want := range targets {
		if want <= prevOff {
			continue
		}
		found := int64(-1)
		for sc.pos < sc.size {
			w := sc.window()
			if w == nil {
				break
			}
			if sc.pos+int64(len(w)) <= want {
				// Entirely before the target: count and move on.
				rec += bytes.Count(w, []byte{term})
				sc.advance(int64(len(w)))
				continue
			}
			split := want - sc.pos
			if split > 0 {
				rec += bytes.Count(w[:split], []byte{term})
			} else {
				split = 0
			}
			j := bytes.IndexByte(w[split:], term)
			if j < 0 {
				sc.advance(int64(len(w)))
				want = sc.pos // keep searching from the next block
				continue
			}
			rec++ // the found terminator itself
			found = sc.pos + split + int64(j)
			sc.advance(split + int64(j) + 1)
			break
		}
		if sc.err != nil {
			return nil, sc.err
		}
		if found < 0 {
			break // no terminator at or beyond the target
		}
		pos := found + 1
		if pos >= sc.size {
			break
		}
		cuts = append(cuts, cut{Off: pos, Rec: rec})
		prevOff = pos
	}
	return cuts, nil
}

// fixedPlanCuts divides a fixed-width region into segments of at least one
// record and roughly segSize bytes.
func fixedPlanCuts(size, width, segSize int64) []cut {
	if width <= 0 {
		return nil
	}
	per := segSize / width // records per segment
	if per < 1 {
		per = 1
	}
	records := (size + width - 1) / width
	var cuts []cut
	for rec := per; rec < records; rec += per {
		cuts = append(cuts, cut{Off: rec * width, Rec: int(rec)})
	}
	return cuts
}

// lenPrefixCuts walks the length headers from the start of the region — an
// O(records) scan that reads only the headers plus block-cache slack — and
// places cuts on header boundaries: after each record ending at or beyond
// target bytes since the previous cut.
func lenPrefixCuts(sc *scanner, d *padsrt.LenPrefixDisc, target int64) ([]cut, error) {
	if d.HeaderBytes <= 0 {
		return nil, nil
	}
	if target <= 0 {
		target = 1
	}
	hb := int64(d.HeaderBytes)
	var cuts []cut
	rec := 0
	nextCut := target
	hdr := make([]byte, d.HeaderBytes)
	for sc.pos < sc.size {
		if sc.size-sc.pos < hb {
			break // truncated final header parses as one short record
		}
		// Headers nearly always sit inside the cached block; the copy path
		// covers headers spanning a block boundary.
		w := sc.window()
		if w == nil {
			break
		}
		if int64(len(w)) < hb {
			if _, err := io.ReadFull(io.NewSectionReader(sc.r, sc.base+sc.pos, hb), hdr); err != nil {
				return nil, fmt.Errorf("segment: read header at %d: %w", sc.base+sc.pos, err)
			}
			w = hdr
		}
		body := int64(0)
		if d.Order == padsrt.BigEndian {
			for i := 0; i < d.HeaderBytes; i++ {
				body = body<<8 | int64(w[i])
			}
		} else {
			for i := d.HeaderBytes - 1; i >= 0; i-- {
				body = body<<8 | int64(w[i])
			}
		}
		if d.IncludesHeader {
			body -= hb
		}
		if body < 0 {
			body = 0
		}
		next := sc.pos + hb + body
		if next > sc.size {
			next = sc.size
		}
		rec++
		sc.advance(next - sc.pos)
		if sc.pos >= nextCut && sc.pos < sc.size {
			cuts = append(cuts, cut{Off: sc.pos, Rec: rec})
			nextCut = sc.pos + target
		}
	}
	return cuts, sc.err
}

// planCuts divides the region into record-aligned segments of roughly
// segSize bytes (at least one record each; a record longer than segSize
// makes its segment longer, never splits). Disciplines without cheap
// resynchronization return an error: a single unbounded segment would
// reintroduce the O(input) memory this package exists to avoid.
func planCuts(r io.ReaderAt, off, size int64, disc padsrt.Discipline, segSize int64) ([]cut, error) {
	if disc == nil {
		disc = padsrt.Newline()
	}
	if size == 0 {
		return nil, nil
	}
	switch d := disc.(type) {
	case *padsrt.NewlineDisc:
		var targets []int64
		for t := segSize; t < size; t += segSize {
			targets = append(targets, t)
		}
		return newlineCuts(newScanner(r, off, size), d.Term, targets)
	case *padsrt.FixedDisc:
		return fixedPlanCuts(size, int64(d.Width), segSize), nil
	case *padsrt.LenPrefixDisc:
		return lenPrefixCuts(newScanner(r, off, size), d, segSize)
	default:
		return nil, fmt.Errorf("segment: discipline %s admits no record resynchronization; out-of-core parsing needs newline, fixed, or lenprefix framing", disc.Name())
	}
}
