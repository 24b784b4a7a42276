package segment

import (
	"fmt"
	"io"

	"pads/internal/padsrt"
)

// Seg is one planned segment: a record-aligned byte range of the input and
// the number of records that precede it within the segmented region. Workers
// parse segments independently; RecBase seeds each segment source's
// SetBase, so positions and record numbers match a sequential run exactly.
type Seg struct {
	Index   int
	Off     int64 // absolute byte offset of the segment within the input
	Len     int64
	RecBase int // records before this segment, counting from the region start
}

// End returns the absolute offset one past the segment.
func (s Seg) End() int64 { return s.Off + s.Len }

// Plan is the deterministic segmentation of one input region: given the
// same bytes, discipline, and segment size, the plan is identical on every
// run — the property resume relies on (the manifest re-plans the region and
// cross-checks committed segments instead of persisting every boundary).
type Plan struct {
	Off     int64 // region start (first byte after the source header)
	Size    int64 // region length
	SegSize int64
	Segs    []Seg
}

// DefaultSegSize is the default segment buffer size (8 MiB): large enough
// that per-segment overheads (a pread, a manifest line, an fsync batch)
// amortize, small enough that workers × buffer stays modest.
const DefaultSegSize = 8 << 20

// MinSegSize bounds how small a segment buffer may be configured. The floor
// exists for production sanity, not correctness — tests call PlanSegments
// directly with tiny sizes.
const MinSegSize = 64 << 10

// PlanSegments splits the region [off, off+size) of r into record-aligned
// segments of roughly segSize bytes each (DefaultSegSize when segSize <= 0).
// The plan covers the region exactly: segments are contiguous, non-empty,
// and concatenate to the region. Disciplines without cheap
// resynchronization (none, custom) return an error; see planCuts.
func PlanSegments(r io.ReaderAt, off, size int64, disc padsrt.Discipline, segSize int64) (*Plan, error) {
	if segSize <= 0 {
		segSize = DefaultSegSize
	}
	if size < 0 {
		return nil, fmt.Errorf("segment: negative region size %d", size)
	}
	cuts, err := planCuts(r, off, size, disc, segSize)
	if err != nil {
		return nil, err
	}
	p := &Plan{Off: off, Size: size, SegSize: segSize}
	if size == 0 {
		return p, nil
	}
	prev := cut{}
	for _, c := range cuts {
		p.Segs = append(p.Segs, Seg{
			Index: len(p.Segs), Off: off + prev.Off, Len: c.Off - prev.Off, RecBase: prev.Rec,
		})
		prev = c
	}
	p.Segs = append(p.Segs, Seg{
		Index: len(p.Segs), Off: off + prev.Off, Len: size - prev.Off, RecBase: prev.Rec,
	})
	return p, nil
}
