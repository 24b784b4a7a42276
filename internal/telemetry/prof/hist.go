package prof

import (
	"fmt"
	"io"
	"math/bits"
)

// Hist is a log-bucketed histogram of non-negative integer observations
// (record parse latencies in nanoseconds, record sizes in bytes). Bucket i
// holds the values whose binary magnitude is i — bucket 0 holds exactly the
// value 0, and bucket i (i >= 1) covers the closed range [2^(i-1), 2^i - 1] —
// so every bucket has exact, data-independent bounds and a quantile query can
// return a hard interval rather than an estimate.
//
// A Hist is a plain value: observing and merging are pure counter arithmetic,
// so merging per-worker histograms is commutative and associative — folding
// them in segment order (segment.Exec) yields a histogram identical to the
// sequential run's, at any worker count. The zero value is empty and ready.
type Hist struct {
	N       uint64     `json:"n"`
	Sum     uint64     `json:"sum"`
	Min     uint64     `json:"min"` // valid only when N > 0
	Max     uint64     `json:"max"`
	Buckets [65]uint64 `json:"buckets"` // Buckets[bits.Len64(v)] counts v
}

// Observe adds one value.
func (h *Hist) Observe(v uint64) {
	if h.N == 0 {
		h.Min, h.Max = v, v
	} else if v < h.Min {
		h.Min = v
	} else if v > h.Max {
		h.Max = v
	}
	h.N++
	h.Sum += v
	h.Buckets[bits.Len64(v)]++
}

// Merge folds o into h. Merging is commutative, so any fold order over a set
// of per-worker histograms produces the same result.
func (h *Hist) Merge(o *Hist) {
	if o == nil || o.N == 0 {
		return
	}
	if h.N == 0 {
		h.Min, h.Max = o.Min, o.Max
	} else {
		if o.Min < h.Min {
			h.Min = o.Min
		}
		if o.Max > h.Max {
			h.Max = o.Max
		}
	}
	h.N += o.N
	h.Sum += o.Sum
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
}

// Mean returns the exact arithmetic mean (0 when empty).
func (h *Hist) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.N)
}

// bucketBounds returns the exact closed range bucket i covers.
func bucketBounds(i int) (lo, hi uint64) {
	if i == 0 {
		return 0, 0
	}
	lo = uint64(1) << (i - 1)
	if i == 64 {
		return lo, ^uint64(0)
	}
	return lo, (uint64(1) << i) - 1
}

// Quantile returns exact bounds on the q-quantile (0 < q <= 1): the true
// q-quantile of the observed values lies in the closed interval [lo, hi].
// The interval is the covering bucket's range tightened by the observed
// Min/Max. Returns (0, 0) on an empty histogram.
func (h *Hist) Quantile(q float64) (lo, hi uint64) {
	if h.N == 0 {
		return 0, 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the q-quantile in the sorted sample.
	rank := uint64(q * float64(h.N))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i := range h.Buckets {
		cum += h.Buckets[i]
		if cum >= rank {
			lo, hi = bucketBounds(i)
			if lo < h.Min {
				lo = h.Min
			}
			if hi > h.Max {
				hi = h.Max
			}
			return lo, hi
		}
	}
	return h.Max, h.Max // unreachable: cum reaches N
}

// writePromHistogram renders the histogram in Prometheus text exposition
// format (cumulative le buckets), scaling each bound by 1/scaleDiv — pass
// 1e9 to expose nanosecond observations in seconds, 1 for plain units.
func (h *Hist) writePromHistogram(w io.Writer, name string, scaleDiv float64) {
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	var cum uint64
	for i := range h.Buckets {
		if h.Buckets[i] == 0 {
			continue
		}
		cum += h.Buckets[i]
		_, hi := bucketBounds(i)
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, float64(hi)/scaleDiv, cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.N)
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.Sum)/scaleDiv)
	fmt.Fprintf(w, "%s_count %d\n", name, h.N)
}
