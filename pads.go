// Package pads is a Go implementation of PADS, the declarative data
// description language for processing ad hoc data (Fisher & Gruber, PLDI
// 2005). A description captures the physical layout and semantic properties
// of a source — ASCII, binary, or Cobol/EBCDIC — and from it the system
// derives parsers with per-component error reporting (parse descriptors),
// masks that let each application pay only for the checks it needs,
// statistical profilers (accumulators), format converters (delimited text
// and XML), an XPath-subset query engine over raw data, a random data
// generator, and a compiler that emits standalone Go parsing libraries.
//
// Quick start:
//
//	desc, err := pads.CompileFile("weblog.pads")
//	rr, err := desc.Records(pads.NewSource(file), nil)
//	n, err := pads.Scan(rr, func(rec pads.Value) error {
//	    if rec.PD().Nerr > 0 { /* inspect the parse descriptor */ }
//	    return nil
//	})
//
// See the examples directory for complete programs and DESIGN.md for the
// mapping from the paper's sections to this module's packages.
package pads

import (
	"io"

	"pads/internal/accum"
	"pads/internal/baseline"
	"pads/internal/cobol"
	"pads/internal/core"
	"pads/internal/datagen"
	"pads/internal/dsl"
	"pads/internal/fmtconv"
	"pads/internal/interp"
	"pads/internal/padsrt"
	"pads/internal/query"
	"pads/internal/value"
	"pads/internal/xmlgen"
)

// Description is a compiled PADS description: see Compile.
type Description = core.Description

// Compile parses and checks a description given as source text. name labels
// diagnostics.
func Compile(src, name string) (*Description, error) { return core.Compile(src, name) }

// CompileFile reads and compiles a description file.
func CompileFile(path string) (*Description, error) { return core.CompileFile(path) }

// TranslateCopybook converts a Cobol copybook to a PADS description and
// compiles it (section 5.2 of the paper).
func TranslateCopybook(copybook, name string) (*Description, error) {
	prog, err := cobol.Translate(copybook)
	if err != nil {
		return nil, err
	}
	return core.Compile(dsl.Print(prog), name)
}

// ---- input sources ----

// Source is a streaming parse cursor over an input.
type Source = padsrt.Source

// SourceOption configures a Source.
type SourceOption = padsrt.SourceOption

// NewSource wraps an io.Reader; by default records are newline-terminated
// ASCII.
func NewSource(r io.Reader, opts ...SourceOption) *Source { return padsrt.NewSource(r, opts...) }

// NewBytesSource parses in-memory data.
func NewBytesSource(data []byte, opts ...SourceOption) *Source {
	return padsrt.NewBytesSource(data, opts...)
}

// WithDiscipline selects the record discipline.
func WithDiscipline(d Discipline) SourceOption { return padsrt.WithDiscipline(d) }

// WithCoding selects the ambient character coding.
func WithCoding(c Coding) SourceOption { return padsrt.WithCoding(c) }

// WithByteOrder selects the byte order of binary integers.
func WithByteOrder(o ByteOrder) SourceOption { return padsrt.WithByteOrder(o) }

// Discipline divides an input into records.
type Discipline = padsrt.Discipline

// Record disciplines: newline-terminated (ASCII default), fixed-width
// binary, Cobol length-prefixed, and whole-input.
func Newline() Discipline             { return padsrt.Newline() }
func FixedWidth(width int) Discipline { return padsrt.FixedWidth(width) }
func LenPrefix() Discipline           { return padsrt.LenPrefix() }
func NoRecords() Discipline           { return padsrt.NoRecords() }

// CustomDisc adapts user-supplied functions into a record discipline — the
// paper's "allows users to define their own encodings" of records.
type CustomDisc = padsrt.CustomDisc

// Coding is the ambient character coding.
type Coding = padsrt.Coding

// Codings.
const (
	ASCII  = padsrt.ASCII
	EBCDIC = padsrt.EBCDIC
)

// ByteOrder selects binary integer byte order.
type ByteOrder = padsrt.ByteOrder

// Byte orders.
const (
	BigEndian    = padsrt.BigEndian
	LittleEndian = padsrt.LittleEndian
)

// ---- values and parse descriptors ----

// Value is a parsed datum carrying its parse descriptor.
type Value = value.Value

// PD is a parse descriptor: the per-value error report.
type PD = padsrt.PD

// ErrCode identifies the first error detected while parsing a value.
type ErrCode = padsrt.ErrCode

// State is the parse state: Normal, Partial, or Panicking.
type State = padsrt.State

// Parse states.
const (
	Normal    = padsrt.Normal
	Partial   = padsrt.Partial
	Panicking = padsrt.Panicking
)

// ValueString renders a value compactly for diagnostics.
func ValueString(v Value) string { return value.String(v) }

// ValueEqual compares two value trees structurally.
func ValueEqual(a, b Value) bool { return value.Equal(a, b) }

// ---- masks ----

// Mask controls how much work a parse performs per component.
type Mask = padsrt.Mask

// Mask settings.
const (
	Ignore      = padsrt.Ignore
	Set         = padsrt.Set
	Check       = padsrt.Check
	CheckAndSet = padsrt.CheckAndSet
)

// MaskNode is a mask tree; nil means check-and-set everything.
type MaskNode = padsrt.MaskNode

// NewMask builds a mask tree node with every control set to m.
func NewMask(m Mask) *MaskNode { return padsrt.NewMaskNode(m) }

// ---- derived tools ----

// RecordReader iterates a data source one record at a time.
type RecordReader = interp.RecordReader

// Scan calls each on every record rr reads and returns how many it read;
// an error from each ends the scan and is returned, and the end of the
// input is not an error.
func Scan(rr *RecordReader, each func(Value) error) (int, error) { return core.Scan(rr, each) }

// Accum is a statistical profile of a data source (section 5.2).
type Accum = accum.Accum

// AccumConfig controls accumulator tracking limits.
type AccumConfig = accum.Config

// NewAccum builds an accumulator (zero config selects the paper's
// defaults: track 1000 distinct values, print the top 10).
func NewAccum(cfg AccumConfig) *Accum { return accum.New(cfg) }

// Formatter renders values as delimited records (section 5.3.1).
type Formatter = fmtconv.Formatter

// NewFormatter builds a formatter over the delimiter list.
func NewFormatter(delims ...string) *Formatter { return fmtconv.New(delims...) }

// WriteXML writes the canonical XML form of a value (section 5.3.2).
func WriteXML(w io.Writer, v Value, tag string) error { return xmlgen.WriteXML(w, v, tag, 0) }

// XMLString renders the canonical XML form of a value.
func XMLString(v Value, tag string) string { return xmlgen.XMLString(v, tag) }

// Node is the tree view of a parsed value used for queries (section 5.4).
type Node = query.Node

// Query is a compiled XPath-subset query.
type Query = query.Query

// CompileQuery compiles an XPath-subset query.
func CompileQuery(src string) (*Query, error) { return query.Compile(src) }

// NewNode roots a query tree at a parsed value.
func NewNode(name string, v Value) *Node { return query.NewNode(name, v) }

// ---- synthetic data (the paper's evaluation substrate) ----

// CLFConfig parameterizes the Common Log Format generator.
type CLFConfig = datagen.CLFConfig

// SiriusConfig parameterizes the Sirius provisioning-data generator.
type SiriusConfig = datagen.SiriusConfig

// DefaultCLF mirrors the section 5.2 CLF error population.
func DefaultCLF(records int) CLFConfig { return datagen.DefaultCLF(records) }

// DefaultSirius mirrors the section 7 Sirius data set, scaled.
func DefaultSirius(records int) SiriusConfig { return datagen.DefaultSirius(records) }

// GenerateCLF writes synthetic web server log data.
func GenerateCLF(w io.Writer, cfg CLFConfig) (datagen.CLFStats, error) { return datagen.CLF(w, cfg) }

// GenerateSirius writes synthetic provisioning data.
func GenerateSirius(w io.Writer, cfg SiriusConfig) (datagen.SiriusStats, error) {
	return datagen.Sirius(w, cfg)
}

// Corruptor injects controlled deviations into record-oriented data — data
// that "deviates from [the specification] in specified ways" (section 9).
type Corruptor = datagen.Corruptor

// Deviation selects a corruption kind for a Corruptor.
type Deviation = datagen.Deviation

// Deviations.
const (
	MangleDigit    = datagen.MangleDigit
	DropByte       = datagen.DropByte
	DupByte        = datagen.DupByte
	TruncateRecord = datagen.TruncateRecord
)

// ---- the hand-written comparators of section 7 ----

// SiriusVet runs the Perl-equivalent vetting program.
func SiriusVet(r io.Reader, clean, errOut io.Writer) (baseline.VetStats, error) {
	return baseline.SiriusVet(r, clean, errOut)
}

// SiriusSelect runs the Perl-equivalent Figure 9 selection program.
func SiriusSelect(r io.Reader, w io.Writer, state string) (baseline.SelectStats, error) {
	return baseline.SiriusSelect(r, w, state)
}

// CountRecords counts newline-terminated records, the trivial baseline.
func CountRecords(r io.Reader) (int, error) { return baseline.CountRecords(r) }
