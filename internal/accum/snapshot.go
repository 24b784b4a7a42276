package accum

import (
	"encoding/json"
	"fmt"

	"pads/internal/padsrt"
	"pads/internal/sema"
)

// Snapshot serialization: an Accum round-trips through JSON with its entire
// state — configuration, counts, numeric extrema, the distinct-value tracker
// (including insertion order), the histogram and reservoir sketches (including
// the PRNG state), and the recursive structure. internal/segment persists
// accumulators to a manifest sidecar on every segment commit, so a job killed
// mid-run resumes with an accumulator byte-identical to the uninterrupted
// one. encoding/json writes map keys in sorted order, so the encoding of a
// given accumulator state is deterministic and therefore hashable.

type accSnap struct {
	Cfg  Config    `json:"cfg"`
	Kind sema.Kind `json:"kind,omitempty"`
	Typ  string    `json:"typ,omitempty"`

	Good      uint64                    `json:"good,omitempty"`
	Bad       uint64                    `json:"bad,omitempty"`
	ErrCounts map[padsrt.ErrCode]uint64 `json:"errs,omitempty"`

	SawNum bool    `json:"saw_num,omitempty"`
	Min    float64 `json:"min,omitempty"`
	Max    float64 `json:"max,omitempty"`
	Sum    float64 `json:"sum,omitempty"`

	Counts    map[string]uint64 `json:"counts,omitempty"`
	Order     []string          `json:"order,omitempty"`
	Untracked uint64            `json:"untracked,omitempty"`

	Hist *histSnap `json:"hist,omitempty"`
	Res  *resSnap  `json:"res,omitempty"`

	FieldNames []string          `json:"field_names,omitempty"`
	Fields     map[string]*Accum `json:"fields,omitempty"`
	Elem       *Accum            `json:"elem,omitempty"`
	Length     *Accum            `json:"length,omitempty"`
	Branches   map[string]uint64 `json:"branches,omitempty"`
	Present    uint64            `json:"present,omitempty"`
	Absent     uint64            `json:"absent,omitempty"`
}

type histSnap struct {
	Neg     uint64   `json:"neg,omitempty"`
	Zero    uint64   `json:"zero,omitempty"`
	Buckets []uint64 `json:"buckets"` // sparse pairs: index, count, index, count, ...
	N       uint64   `json:"n"`
}

type resSnap struct {
	Sample []float64 `json:"sample"`
	Seen   uint64    `json:"seen"`
	RNG    uint64    `json:"rng"`
}

// MarshalJSON encodes the accumulator's full internal state.
func (a *Accum) MarshalJSON() ([]byte, error) {
	s := accSnap{
		Cfg: a.cfg, Kind: a.kind, Typ: a.typ,
		Good: a.Good, Bad: a.Bad,
		SawNum: a.sawNum, Min: a.min, Max: a.max, Sum: a.sum,
		Untracked:  a.untracked,
		FieldNames: a.fieldNames,
		Elem:       a.elem, Length: a.length,
		Present: a.present, Absent: a.absent,
	}
	if len(a.ErrCounts) > 0 {
		s.ErrCounts = a.ErrCounts
	}
	if len(a.order) > 0 {
		s.Counts = make(map[string]uint64, len(a.order))
		for i, k := range a.order {
			s.Counts[k] = a.counts[i]
		}
		s.Order = a.order
	}
	if len(a.fields) > 0 {
		s.Fields = a.fields
	}
	if len(a.branches) > 0 {
		s.Branches = a.branches
	}
	if a.hist != nil {
		h := &histSnap{Neg: a.hist.neg, Zero: a.hist.zero, N: a.hist.n}
		for i, c := range a.hist.buckets {
			if c > 0 {
				h.Buckets = append(h.Buckets, uint64(i), c)
			}
		}
		s.Hist = h
	}
	if a.res != nil {
		s.Res = &resSnap{Sample: a.res.sample, Seen: a.res.seen, RNG: a.res.rng}
	}
	return json.Marshal(&s)
}

// UnmarshalJSON restores an accumulator from its MarshalJSON encoding. The
// receiver is overwritten entirely.
func (a *Accum) UnmarshalJSON(data []byte) error {
	var s accSnap
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	*a = Accum{
		cfg: s.Cfg.withDefaults(), kind: s.Kind, typ: s.Typ,
		Good: s.Good, Bad: s.Bad,
		sawNum: s.SawNum, min: s.Min, max: s.Max, sum: s.Sum,
		untracked:  s.Untracked,
		fieldNames: s.FieldNames,
		elem:       s.Elem, length: s.Length,
		present: s.Present, absent: s.Absent,
	}
	a.ErrCounts = s.ErrCounts
	if a.ErrCounts == nil {
		a.ErrCounts = make(map[padsrt.ErrCode]uint64)
	}
	if len(s.Order) != len(s.Counts) {
		return fmt.Errorf("accum: snapshot tracker order lists %d values for %d counts", len(s.Order), len(s.Counts))
	}
	a.slot = make(map[string]int, len(s.Order))
	for _, k := range s.Order {
		n, ok := s.Counts[k]
		if !ok {
			return fmt.Errorf("accum: snapshot tracked value %q has no count", k)
		}
		if _, dup := a.slot[k]; dup {
			return fmt.Errorf("accum: snapshot tracker lists %q twice", k)
		}
		a.insert(k, n)
	}
	a.fields = s.Fields
	if a.fields == nil {
		a.fields = make(map[string]*Accum)
	}
	a.branches = s.Branches
	if a.branches == nil {
		a.branches = make(map[string]uint64)
	}
	if len(a.fieldNames) != len(a.fields) {
		return fmt.Errorf("accum: snapshot field order lists %d names for %d fields", len(a.fieldNames), len(a.fields))
	}
	for _, n := range a.fieldNames {
		if a.fields[n] == nil {
			return fmt.Errorf("accum: snapshot field %q has no profile", n)
		}
	}
	if s.Hist != nil {
		h := &histogram{neg: s.Hist.Neg, zero: s.Hist.Zero, n: s.Hist.N}
		if len(s.Hist.Buckets)%2 != 0 {
			return fmt.Errorf("accum: snapshot histogram has odd bucket list")
		}
		for i := 0; i+1 < len(s.Hist.Buckets); i += 2 {
			idx := s.Hist.Buckets[i]
			if idx >= uint64(len(h.buckets)) {
				return fmt.Errorf("accum: snapshot histogram bucket %d out of range", idx)
			}
			h.buckets[idx] = s.Hist.Buckets[i+1]
		}
		a.hist = h
	}
	if s.Res != nil {
		a.res = &reservoir{sample: s.Res.Sample, seen: s.Res.Seen, rng: s.Res.RNG}
	}
	return nil
}
