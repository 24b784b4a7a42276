package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"pads/internal/accum"
	"pads/internal/fmtconv"
	"pads/internal/interp"
	"pads/internal/segment"
	"pads/internal/value"
	"pads/internal/xmlgen"
)

// The consumers the paper derives from a description — the accumulator
// profile (section 5.2), delimited text (5.3.1) and the XML stream (5.3.2)
// — are defined here once. The CLIs, padsd's stream endpoints and jobs, and
// out-of-core runs all write them through these types, so an output is the
// same bytes whichever path wrote it.

// Scan calls each on every record rr reads, in order, and returns how many
// it read. An error from each ends the scan and is returned; otherwise Scan
// returns rr's error, with the end of the input (io.EOF) reported as nil.
func Scan(rr *interp.RecordReader, each func(value.Value) error) (int, error) {
	n := 0
	for rr.More() {
		n++
		if err := each(rr.Read()); err != nil {
			return n, err
		}
	}
	if err := rr.Err(); err != nil && !errors.Is(err, io.EOF) {
		return n, err
	}
	return n, nil
}

// Output is one derived consumer, written alike by every path: Write for a
// sequential scan (the CLIs, padsd's stream endpoints), Configure and
// Result for an out-of-core job (the CLIs' -out-of-core, padsd's jobs).
type Output interface {
	// Configure sets an out-of-core job up to produce the output,
	// including the mode its manifest records ("accum", "xml", "fmt" or
	// "csv"), so a job resumes only into the output it began.
	Configure(cfg *segment.Config) error
	// Write writes the output of a sequential scan of rr into w. An error
	// from w ends the scan; the first error of either is returned.
	Write(w io.Writer, rr *interp.RecordReader) error
	// Result writes the output of a finished job into w: the profile of
	// its merged accumulator, or a stream's bytes, read from the job's
	// output file out.
	Result(w io.Writer, rep *segment.Report, out string) error
}

// RunJob runs out as an out-of-core job (segment.Run) over the data file
// cfg.DataPath. It opens and sizes the file and fills in the description's
// hash, its interpreter (unless cfg.Interp is set) and the output.
func (d *Description) RunJob(out Output, cfg segment.Config) (*segment.Report, error) {
	if err := out.Configure(&cfg); err != nil {
		return nil, err
	}
	f, err := os.Open(cfg.DataPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if cfg.Interp == nil {
		cfg.Interp = d.Interp
	}
	cfg.Data, cfg.DataSize, cfg.DescHash = f, st.Size(), segment.HashBytes([]byte(d.Source))
	return segment.Run(cfg)
}

// Profile is the accumulator report of section 5.2: the record count, then
// the profile of every component, or of the dotted path Field alone.
type Profile struct {
	Config accum.Config
	Field  string
}

// Configure makes the job fold each segment into an accumulator, merged in
// segment order. A profile has no output file.
func (p *Profile) Configure(cfg *segment.Config) error {
	cfg.AccumCfg, cfg.OutPath = p.Config, ""
	return nil
}

// Write folds the whole scan, then writes its report: a failed scan writes
// nothing.
func (p *Profile) Write(w io.Writer, rr *interp.RecordReader) error {
	acc, n, err := p.Fold(rr)
	if err != nil {
		return err
	}
	return p.Report(w, acc, n)
}

func (p *Profile) Result(w io.Writer, rep *segment.Report, _ string) error {
	return p.Report(w, rep.Acc, rep.Records)
}

// Fold folds every record rr reads into a fresh accumulator.
func (p *Profile) Fold(rr *interp.RecordReader) (*accum.Accum, int, error) {
	acc := accum.New(p.Config)
	n, err := Scan(rr, func(v value.Value) error {
		acc.Add(v)
		return nil
	})
	return acc, n, err
}

// Report writes the profile of acc, which folded records records.
func (p *Profile) Report(w io.Writer, acc *accum.Accum, records int) error {
	if _, err := fmt.Fprintf(w, "%d records\n\n", records); err != nil {
		return err
	}
	if p.Field != "" {
		return acc.ReportField(w, "<top>", p.Field)
	}
	acc.Report(w, "<top>")
	return nil
}

// Stream is an output written record by record into the caller's writer:
// begin with the source header (nil when there is none), record per
// record, end; begin and end may be nil. A Stream holds no mutable state,
// so out-of-core workers write records concurrently, each into its own
// segment buffer.
type Stream struct {
	mode   string
	begin  func(w io.Writer, header value.Value) error
	record func(w io.Writer, v value.Value) error
	end    func(w io.Writer) error
}

// XML builds the canonical XML stream of section 5.3.2: a root element
// named root ("" means "source"), which must be an XML 1.0 Name, holding
// the source header as <header> and one element per record, named after
// the record type.
func (d *Description) XML(root string) (*Stream, error) {
	if root == "" {
		root = "source"
	}
	if !xmlgen.ValidName(root) {
		return nil, fmt.Errorf("bad XML root element name %q", root)
	}
	// A source that is not record shaped writes no records: opening its
	// record reader fails first, with the shape's error.
	shape, _ := d.Shape()
	return &Stream{
		mode: "xml",
		begin: func(w io.Writer, header value.Value) error {
			if _, err := fmt.Fprintf(w, "<%s>\n", root); err != nil || header == nil {
				return err
			}
			return xmlgen.WriteXML(w, header, "header", 1)
		},
		record: func(w io.Writer, v value.Value) error {
			return xmlgen.WriteXML(w, v, shape.RecordType, 1)
		},
		end: func(w io.Writer) error {
			_, err := fmt.Fprintf(w, "</%s>\n", root)
			return err
		},
	}, nil
}

// NewDelimited builds the delimited text of section 5.3.1, one line per
// record: delims is a comma-separated list, one per nesting level (""
// means "|"); dateFmt formats dates ("" keeps the raw text); skipErrors
// omits records with parse errors. mode names the output in job manifests:
// "fmt" for padsfmt, "csv" for padsd.
func NewDelimited(mode, delims, dateFmt string, skipErrors bool) *Stream {
	if delims == "" {
		delims = "|"
	}
	f := fmtconv.New(strings.Split(delims, ",")...)
	f.DateFormat = dateFmt
	return &Stream{mode: mode, record: func(w io.Writer, v value.Value) error {
		if skipErrors && v.PD().Nerr > 0 {
			return nil
		}
		_, err := f.WriteRecord(w, v)
		return err
	}}
}

// Configure makes the job render each segment's records into a buffer,
// appended to cfg.OutPath in segment order, with begin and end around
// them.
func (s *Stream) Configure(cfg *segment.Config) error {
	if cfg.OutPath == "" {
		return fmt.Errorf("an out-of-core %s job needs an output file", s.mode)
	}
	cfg.Mode = s.mode
	cfg.Emit = func(out *bytes.Buffer, v value.Value) { s.record(out, v) }
	if s.begin != nil {
		cfg.EmitPrologue = func(out *bytes.Buffer, header value.Value) { s.begin(out, header) }
	}
	if s.end != nil {
		cfg.EmitEpilogue = func(out *bytes.Buffer) { s.end(out) }
	}
	return nil
}

// Write writes the stream over every record rr reads. The end is written
// even after a failed scan, so XML stays well-formed.
func (s *Stream) Write(w io.Writer, rr *interp.RecordReader) error {
	var err error
	if s.begin != nil {
		err = s.begin(w, rr.Header())
	}
	if err == nil {
		_, err = Scan(rr, func(v value.Value) error { return s.record(w, v) })
	}
	if s.end != nil {
		if eerr := s.end(w); err == nil {
			err = eerr
		}
	}
	return err
}

func (s *Stream) Result(w io.Writer, _ *segment.Report, out string) error {
	f, err := os.Open(out)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = io.Copy(w, f)
	return err
}
