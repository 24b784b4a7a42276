// Package fmtconv converts parsed values into delimited text suitable for
// loading into spreadsheets or relational databases (section 5.3.1 of the
// paper; Figure 8 shows the CLF output). A formatter takes a delimiter list:
// the first delimiter separates leaves at the top level, and each nesting
// level advances the list, reusing the last entry once exhausted. Masks
// suppress components; a date output format (e.g. "%D:%T") customizes dates.
package fmtconv

import (
	"io"

	"pads/internal/padsrt"
	"pads/internal/value"
)

// Formatter renders values as delimited records — the generated
// <type>_fmt2io of Figure 6.
type Formatter struct {
	// Delims is the delimiter list; defaults to ["|"].
	Delims []string
	// DateFormat renders Pdate values (FormatDate syntax); "" keeps the
	// raw source text.
	DateFormat string
	// Mask suppresses components: a subtree whose mask has Set cleared is
	// omitted from the output.
	Mask *padsrt.MaskNode
}

// New builds a formatter with the given delimiters.
func New(delims ...string) *Formatter {
	if len(delims) == 0 {
		delims = []string{"|"}
	}
	return &Formatter{Delims: delims}
}

func (f *Formatter) delim(depth int) string {
	if depth < 0 {
		depth = 0
	}
	if depth >= len(f.Delims) {
		depth = len(f.Delims) - 1
	}
	return f.Delims[depth]
}

// FormatRecord renders one record (without a trailing newline).
func (f *Formatter) FormatRecord(v value.Value) string {
	return string(f.Append(nil, v))
}

// Append appends the delimited form of v to dst.
func (f *Formatter) Append(dst []byte, v value.Value) []byte {
	dst, _ = f.render(dst, v, f.Mask, 0)
	return dst
}

// WriteRecord writes one record plus a newline. Into a *bytes.Buffer or a
// *bufio.Writer the record renders straight into the writer's free space
// (AvailableBuffer), with no buffer of its own.
func (f *Formatter) WriteRecord(w io.Writer, v value.Value) (int, error) {
	var buf []byte
	if ab, ok := w.(interface{ AvailableBuffer() []byte }); ok {
		buf = ab.AvailableBuffer()
	}
	return w.Write(append(f.Append(buf, v), '\n'))
}

// render appends the delimited text for one value to dst. ok=false means
// the value occupies no column at all (suppressed by mask, or void) and
// nothing was appended; an absent optional appends nothing but reports
// true — an empty column. Children of a compound at depth d are separated
// by the depth-d delimiter, so the list advances at each nested type
// boundary as the paper specifies.
func (f *Formatter) render(dst []byte, v value.Value, mask *padsrt.MaskNode, depth int) ([]byte, bool) {
	if v == nil || !mask.BaseMask().DoSet() {
		return dst, false
	}
	switch v := v.(type) {
	case *value.Struct:
		sep, n := f.delim(depth), 0
		for i, name := range v.Names {
			dst, n = f.column(dst, v.Fields[i], mask.Field(name), depth+1, sep, n)
		}
		return dst, true
	case *value.Union:
		if v.Val == nil {
			return dst, true
		}
		return f.render(dst, v.Val, mask.Field(v.Tag), depth+1)
	case *value.Array:
		sep, n := f.delim(depth), 0
		for _, e := range v.Elems {
			dst, n = f.column(dst, e, mask.ElemMask(), depth+1, sep, n)
		}
		return dst, true
	case *value.Opt:
		if !v.Present {
			return dst, true // an absent optional still occupies a column
		}
		return f.render(dst, v.Val, mask, depth)
	case *value.Void:
		return dst, false
	default:
		return f.leaf(dst, v), true
	}
}

// column appends one child of a compound as its n-th column, preceded by
// sep unless it is the first, and returns the new column count.
func (f *Formatter) column(dst []byte, v value.Value, mask *padsrt.MaskNode, depth int, sep string, n int) ([]byte, int) {
	mark := len(dst)
	if n > 0 {
		dst = append(dst, sep...)
	}
	dst, ok := f.render(dst, v, mask, depth)
	if !ok {
		return dst[:mark], n
	}
	return dst, n + 1
}

func (f *Formatter) leaf(dst []byte, v value.Value) []byte {
	switch v := v.(type) {
	case *value.Uint:
		return padsrt.AppendUint(dst, v.Val)
	case *value.Int:
		return padsrt.AppendInt(dst, v.Val)
	case *value.Float:
		return padsrt.AppendFloat(dst, v.Val, 64)
	case *value.Char:
		return append(dst, v.Val)
	case *value.Str:
		return append(dst, v.Val...)
	case *value.Date:
		if f.DateFormat != "" {
			return append(dst, padsrt.FormatDate(v.Sec, f.DateFormat)...)
		}
		return append(dst, v.Raw...)
	case *value.IP:
		return append(dst, padsrt.FormatIP(v.Val)...)
	case *value.Enum:
		return append(dst, v.Member...)
	}
	return dst
}
