package accum

import "pads/internal/sema"

// Merge folds the profile b into a, so that accumulating a data source in
// shards and merging the per-shard accumulators produces the same report as
// one sequential accumulation. The parallel scans call it once per
// segment, in segment order (segment.Exec), which makes the merged report deterministic for a fixed
// worker count.
//
// Counts, error tallies, min/max/sum (and therefore the mean), branch and
// option tallies, and the histogram sketch merge exactly: for those the
// merged report is byte-identical to the sequential one. Two components are
// merge-approximate, within their already-documented bounds:
//
//   - The distinct-value tracker keeps the first MaxTracked distinct values
//     in first-seen order. Merging preserves that order across shards, so
//     the result is exact unless an individual shard overflowed its own
//     tracker (overflowed values are counted as untracked, exactly as the
//     sequential tracker does after it fills).
//   - The quantile reservoir merges by a deterministic weighted draw from
//     the two samples; merging into an empty accumulator adopts the other
//     side verbatim, so a single-shard run stays byte-identical.
//
// Merge is commutative on the exact components and deterministic (though
// order-sensitive, like sequential insertion order) on the approximate ones.
func (a *Accum) Merge(b *Accum) {
	if b == nil {
		return
	}
	if b.kind != sema.KInvalid || b.typ != "" {
		// Add overwrites kind/typ per value; chunk-order merge keeps the
		// same last-writer-wins behavior.
		a.kind, a.typ = b.kind, b.typ
	}
	a.Good += b.Good
	a.Bad += b.Bad
	for c, n := range b.ErrCounts {
		a.ErrCounts[c] += n
	}

	if b.sawNum {
		if !a.sawNum || b.min < a.min {
			a.min = b.min
		}
		if !a.sawNum || b.max > a.max {
			a.max = b.max
		}
		a.sawNum = true
		a.sum += b.sum
	}
	if b.hist != nil {
		if a.hist == nil {
			a.hist = &histogram{}
		}
		a.hist.merge(b.hist)
	}
	if b.res != nil {
		if a.res == nil {
			a.res = &reservoir{}
		}
		a.res.merge(b.res)
	}

	// Tracked values, in b's insertion order so first-seen order is global
	// chunk order — the same order a sequential accumulation would record.
	for j, k := range b.order {
		n := b.counts[j]
		if i, ok := a.slot[k]; ok {
			a.counts[i] += n
		} else if len(a.order) < a.cfg.MaxTracked {
			a.insert(k, n)
		} else {
			a.untracked += n
		}
	}
	a.untracked += b.untracked

	for t, n := range b.branches {
		a.branches[t] += n
	}
	a.present += b.present
	a.absent += b.absent

	// Structure, recursively, preserving b's first-seen field order.
	for _, name := range b.fieldNames {
		a.child(name).Merge(b.fields[name])
	}
	if b.length != nil {
		if a.length == nil {
			a.length = newAccum(a.cfg)
		}
		a.length.Merge(b.length)
	}
	if b.elem != nil {
		if a.elem == nil {
			a.elem = newAccum(a.cfg)
		}
		a.elem.Merge(b.elem)
	}
}
