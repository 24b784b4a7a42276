// Package accum implements PADS accumulators (section 5.2 of the paper):
// per-type statistical profiles of a data source. For each component an
// accumulator tracks the number of good and bad values, the distribution of
// legal values (first-N distinct values with counts), and numeric min/max/
// average. Reports reproduce the layout of the paper's length-field example.
package accum

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"pads/internal/padsrt"
	"pads/internal/sema"
	"pads/internal/value"
)

// Config controls how much an accumulator tracks.
type Config struct {
	// MaxTracked is the number of distinct values tracked per component
	// (the paper's default: the first 1000 distinct values seen).
	MaxTracked int
	// TopN is the number of values printed per component (default 10).
	TopN int
}

// DefaultConfig matches the paper's defaults.
func DefaultConfig() Config { return Config{MaxTracked: 1000, TopN: 10} }

func (c Config) withDefaults() Config {
	if c.MaxTracked <= 0 {
		c.MaxTracked = 1000
	}
	if c.TopN <= 0 {
		c.TopN = 10
	}
	return c
}

// Accum accumulates statistics for one component of a description and,
// recursively, its children.
type Accum struct {
	cfg  Config
	kind sema.Kind
	typ  string

	Good uint64
	Bad  uint64
	// ErrCounts tallies the first-error codes of bad values.
	ErrCounts map[padsrt.ErrCode]uint64

	// Numeric statistics over good values.
	sawNum   bool
	min, max float64
	sum      float64

	// Distinct-value tracking over good values: order[i] is the i-th
	// distinct value seen (insertion order bounds memory deterministically),
	// counts[i] how often it was seen, and slot maps it back to i.
	slot      map[string]int
	order     []string
	counts    []uint64
	untracked uint64 // good values seen after the tracker filled

	// Approximate summaries over good numeric values (the section 9
	// histogram/quantile extension).
	hist *histogram
	res  *reservoir

	// Structure.
	fieldNames []string
	fields     map[string]*Accum
	elem       *Accum // array elements
	length     *Accum // array lengths
	branches   map[string]uint64
	present    uint64 // Popt present count
	absent     uint64
}

// New creates an accumulator with the given configuration; the structure
// grows lazily as values are added.
func New(cfg Config) *Accum { return newAccum(cfg.withDefaults()) }

func newAccum(cfg Config) *Accum {
	return &Accum{
		cfg:       cfg,
		ErrCounts: make(map[padsrt.ErrCode]uint64),
		slot:      make(map[string]int),
		fields:    make(map[string]*Accum),
		branches:  make(map[string]uint64),
	}
}

func (a *Accum) child(name string) *Accum {
	c, ok := a.fields[name]
	if !ok {
		c = newAccum(a.cfg)
		a.fields[name] = c
		a.fieldNames = append(a.fieldNames, name)
	}
	return c
}

// Add folds one parsed value into the profile; this is the generated
// <type>_acc_add of Figure 6.
func (a *Accum) Add(v value.Value) {
	if v == nil {
		return
	}
	a.kind = v.Kind()
	a.typ = v.TypeName()
	pd := v.PD()
	if pd.Nerr > 0 {
		a.Bad++
		a.ErrCounts[pd.ErrCode]++
	} else {
		a.Good++
	}

	// Numeric keys are formatted into buf and looked up without copying;
	// only a value new to the tracker allocates its key. Each format is
	// the one fmt gave these keys before: %d, %g, and string(rune(c)).
	var buf [32]byte
	switch v := v.(type) {
	case *value.Uint:
		if pd.Nerr == 0 {
			a.addNum(float64(v.Val))
			a.trackBytes(strconv.AppendUint(buf[:0], v.Val, 10))
		}
	case *value.Int:
		if pd.Nerr == 0 {
			a.addNum(float64(v.Val))
			a.trackBytes(strconv.AppendInt(buf[:0], v.Val, 10))
		}
	case *value.Float:
		if pd.Nerr == 0 {
			a.addNum(v.Val)
			a.trackBytes(strconv.AppendFloat(buf[:0], v.Val, 'g', -1, 64))
		}
	case *value.Char:
		if pd.Nerr == 0 {
			a.addNum(float64(v.Val))
			a.trackBytes(utf8.AppendRune(buf[:0], rune(v.Val)))
		}
	case *value.Date:
		if pd.Nerr == 0 {
			a.addNum(float64(v.Sec))
			a.track(v.Raw)
		}
	case *value.IP:
		if pd.Nerr == 0 {
			a.addNum(float64(v.Val))
			a.trackBytes(padsrt.AppendIP(buf[:0], v.Val))
		}
	case *value.Str:
		if pd.Nerr == 0 {
			a.track(v.Val)
		}
	case *value.Enum:
		if pd.Nerr == 0 {
			a.track(v.Member)
		}
	case *value.Struct:
		for i, n := range v.Names {
			a.child(n).Add(v.Fields[i])
		}
	case *value.Union:
		if v.Tag != "" {
			a.branches[v.Tag]++
			a.child(v.Tag).Add(v.Val)
		}
	case *value.Array:
		if a.length == nil {
			a.length = newAccum(a.cfg)
		}
		a.length.addLength(len(v.Elems))
		if a.elem == nil {
			a.elem = newAccum(a.cfg)
		}
		for _, e := range v.Elems {
			a.elem.Add(e)
		}
	case *value.Opt:
		if v.Present {
			a.present++
			a.child("val").Add(v.Val)
		} else {
			a.absent++
		}
	}
}

// addLength folds an array length into a length accumulator exactly as
// Add folds a clean, untyped Uint of that value, without building one.
func (a *Accum) addLength(n int) {
	a.kind, a.typ = sema.KUint, ""
	a.Good++
	a.addNum(float64(n))
	var buf [20]byte
	a.trackBytes(strconv.AppendUint(buf[:0], uint64(n), 10))
}

// addNum folds a good numeric value into the min/max/sum statistics and the
// approximate summaries.
func (a *Accum) addNum(f float64) {
	if !a.sawNum || f < a.min {
		a.min = f
	}
	if !a.sawNum || f > a.max {
		a.max = f
	}
	a.sawNum = true
	a.sum += f
	if a.hist == nil {
		a.hist = &histogram{}
		a.res = &reservoir{}
	}
	a.hist.add(f)
	a.res.add(f)
}

// track counts one good value in the distinct-value tracker.
func (a *Accum) track(key string) {
	if i, ok := a.slot[key]; ok {
		a.counts[i]++
	} else if len(a.order) < a.cfg.MaxTracked {
		a.insert(key, 1)
	} else {
		a.untracked++
	}
}

// trackBytes is track for a key formatted into a scratch buffer: the lookup
// converts it without copying, so only an insert allocates the key.
func (a *Accum) trackBytes(key []byte) {
	if i, ok := a.slot[string(key)]; ok {
		a.counts[i]++
	} else if len(a.order) < a.cfg.MaxTracked {
		a.insert(string(key), 1)
	} else {
		a.untracked++
	}
}

// insert appends a value new to the tracker with count n.
func (a *Accum) insert(key string, n uint64) {
	a.slot[key] = len(a.order)
	a.order = append(a.order, key)
	a.counts = append(a.counts, n)
}

// Total is the number of values (good and bad) folded in.
func (a *Accum) Total() uint64 { return a.Good + a.Bad }

// PcntBad is the percentage of bad values.
func (a *Accum) PcntBad() float64 {
	if a.Total() == 0 {
		return 0
	}
	return float64(a.Bad) * 100 / float64(a.Total())
}

// Min, Max, Avg expose the numeric statistics (valid when Good > 0 on a
// numeric component).
func (a *Accum) Min() float64 { return a.min }
func (a *Accum) Max() float64 { return a.max }
func (a *Accum) Avg() float64 {
	if a.Good == 0 {
		return 0
	}
	return a.sum / float64(a.Good)
}

// Field returns the accumulator of a struct field / union branch, or nil.
func (a *Accum) Field(name string) *Accum { return a.fields[name] }

// Elem returns the element accumulator of an array component, or nil.
func (a *Accum) Elem() *Accum { return a.elem }

// Distinct is the number of distinct (tracked) values seen.
func (a *Accum) Distinct() int { return len(a.order) }

// TrackedPcnt is the percentage of good values that hit the tracker.
func (a *Accum) TrackedPcnt() float64 {
	if a.Good == 0 {
		return 0
	}
	var tracked uint64
	for _, n := range a.counts {
		tracked += n
	}
	return float64(tracked) * 100 / float64(a.Good)
}

type kv struct {
	key string
	n   uint64
}

func (a *Accum) top(n int) []kv {
	all := make([]kv, len(a.order))
	for i, k := range a.order {
		all[i] = kv{k, a.counts[i]}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].key < all[j].key
	})
	if len(all) > n {
		all = all[:n]
	}
	return all
}

// kindLabel names the component in the report header, e.g. "uint32".
func (a *Accum) kindLabel() string {
	switch a.kind {
	case sema.KUint, sema.KInt:
		base := sema.LookupBase(a.typ)
		if base != nil && base.Bits > 0 {
			prefix := "uint"
			if a.kind == sema.KInt {
				prefix = "int"
			}
			return fmt.Sprintf("%s%d", prefix, base.Bits)
		}
		if a.kind == sema.KInt {
			return "int"
		}
		return "uint32"
	case sema.KFloat:
		return "float"
	case sema.KChar:
		return "char"
	case sema.KString:
		return "string"
	case sema.KDate:
		return "date"
	case sema.KIP:
		return "ip"
	case sema.KEnum:
		return "enum " + a.typ
	case sema.KStruct:
		return "struct " + a.typ
	case sema.KUnion:
		return "union " + a.typ
	case sema.KArray:
		return "array " + a.typ
	case sema.KOpt:
		return "opt"
	default:
		return a.typ
	}
}

// Report writes the full nested profile and returns the first write error.
// prefix names the root component; the paper uses "<top>".
func (a *Accum) Report(w io.Writer, prefix string) error {
	ew := &errWriter{w: w}
	a.report(ew, prefix)
	return ew.err
}

// errWriter keeps the first write error and drops every write after it, so
// a report's many lines need one check at the end.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, err
}

func (a *Accum) report(w io.Writer, path string) {
	fmt.Fprintf(w, "%s : %s\n", path, a.kindLabel())
	fmt.Fprintln(w, strings.Repeat("+", 43))
	fmt.Fprintf(w, "good: %d bad: %d pcnt-bad: %.3f\n", a.Good, a.Bad, a.PcntBad())
	if len(a.ErrCounts) > 0 {
		codes := make([]padsrt.ErrCode, 0, len(a.ErrCounts))
		for c := range a.ErrCounts {
			codes = append(codes, c)
		}
		sort.Slice(codes, func(i, j int) bool { return codes[i] < codes[j] })
		for _, c := range codes {
			fmt.Fprintf(w, "  err %v: %d\n", c, a.ErrCounts[c])
		}
	}
	if a.sawNum && a.Good > 0 {
		fmt.Fprintf(w, "min: %s max: %s avg: %.3f\n", trimFloat(a.min), trimFloat(a.max), a.Avg())
		if a.res != nil {
			a.res.report(w)
		}
		if a.hist != nil {
			a.hist.report(w)
		}
	}
	if len(a.order) > 0 {
		top := a.top(a.cfg.TopN)
		fmt.Fprintf(w, "top %d values out of %d distinct values:\n", len(top), a.Distinct())
		fmt.Fprintf(w, "tracked %.3f%% of values\n", a.TrackedPcnt())
		var summed uint64
		for _, e := range top {
			pct := float64(0)
			if a.Good > 0 {
				pct = float64(e.n) * 100 / float64(a.Good)
			}
			fmt.Fprintf(w, "val: %10s count: %8d %%-of-good: %7.3f\n", e.key, e.n, pct)
			summed += e.n
		}
		fmt.Fprintln(w, ". . . . . . . . . . . . . . . . . . . . . .")
		sumPct := float64(0)
		if a.Good > 0 {
			sumPct = float64(summed) * 100 / float64(a.Good)
		}
		fmt.Fprintf(w, "SUMMING count: %d %%-of-good: %.3f\n", summed, sumPct)
	}
	if a.kind == sema.KUnion && len(a.branches) > 0 {
		tags := make([]string, 0, len(a.branches))
		for t := range a.branches {
			tags = append(tags, t)
		}
		sort.Strings(tags)
		for _, t := range tags {
			fmt.Fprintf(w, "branch %s: %d\n", t, a.branches[t])
		}
	}
	if a.kind == sema.KOpt {
		fmt.Fprintf(w, "present: %d absent: %d\n", a.present, a.absent)
	}
	fmt.Fprintln(w)

	// Children, in first-seen order.
	for _, n := range a.fieldNames {
		a.fields[n].report(w, path+"."+n)
	}
	if a.length != nil {
		a.length.report(w, path+".length")
	}
	if a.elem != nil {
		a.elem.report(w, path+".elt")
	}
}

// ReportField writes the profile of one dotted path (e.g. "length" under a
// record accumulator), matching the single-field excerpt in section 5.2. It
// returns an unknown path's error or the first write error.
func (a *Accum) ReportField(w io.Writer, prefix, path string) error {
	cur := a
	for _, part := range strings.Split(path, ".") {
		next := cur.fields[part]
		if next == nil && part == "elt" {
			next = cur.elem
		}
		if next == nil && part == "length" && cur.length != nil {
			next = cur.length
		}
		if next == nil {
			return fmt.Errorf("accum: no component %q under %q", part, prefix)
		}
		cur = next
	}
	ew := &errWriter{w: w}
	cur.report(ew, prefix+"."+path)
	return ew.err
}

func trimFloat(f float64) string {
	if f == float64(int64(f)) {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%.3f", f)
}
